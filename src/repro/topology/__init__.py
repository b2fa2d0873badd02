"""Declarative multi-hop interconnect topologies.

The paper evaluates one fabric — a non-blocking crossbar with one duplex
link per socket. This package generalizes that to a *declarative*
topology layer:

* :mod:`repro.topology.spec` — :class:`TopologySpec`, a validated named
  node/edge graph with a per-edge :class:`repro.config.LinkConfig`, plus
  builders for ``crossbar``, ``ring``, ``mesh2d``, ``fully_connected``
  and the two-level chiplet-style ``switch_tree``;
* :mod:`repro.topology.routing` — precomputed deterministic
  shortest-path routing tables (fixed tie-break by node id) and the
  canonical bisection cut;
* :mod:`repro.topology.fabric` — :class:`MultiHopFabric`, the one
  fabric (per-edge duplex lanes, precompiled per-``(src, dst)`` hop
  programs), and :func:`build_fabric`, the single fabric-or-none
  decision helper.

The default crossbar stays byte-identical to the paper baseline: a
``SystemConfig`` without a topology (or with a ``crossbar`` spec) builds
the crossbar as a star ``MultiHopFabric`` around one ``xbar`` router,
under the rules documented at :func:`is_crossbar`.
"""

from repro.topology.fabric import MultiHopFabric, build_fabric
from repro.topology.routing import RoutingTables, bisection_cut, compute_routes
from repro.topology.spec import (
    BUILDERS,
    EdgeSpec,
    TopologySpec,
    build_topology,
    crossbar,
    fully_connected,
    is_crossbar,
    mesh2d,
    mesh_dims,
    ring,
    switch_tree,
)

__all__ = [
    "BUILDERS",
    "EdgeSpec",
    "MultiHopFabric",
    "RoutingTables",
    "TopologySpec",
    "bisection_cut",
    "build_fabric",
    "build_topology",
    "compute_routes",
    "crossbar",
    "fully_connected",
    "is_crossbar",
    "mesh2d",
    "mesh_dims",
    "ring",
    "switch_tree",
]
