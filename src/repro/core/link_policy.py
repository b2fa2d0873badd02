"""Link provisioning policies (Section 4) and their wiring.

Three policies from the paper's evaluation:

* ``STATIC`` — fixed symmetric lanes (the baseline and everything in
  Sections 3 and 5),
* ``DYNAMIC`` — one :class:`repro.interconnect.balancer.LinkBalancer`
  per fabric link turning lanes at runtime. On the crossbar that is one
  balancer per socket link (the paper's per-GPU policy); on a multi-hop
  topology it is one balancer **per edge** — the same local
  saturation-driven rule applied to every duplex edge of the graph,
* ``DOUBLED`` — statically doubled per-lane bandwidth, Figure 6's red
  upper-bound bars.

``DOUBLED`` is applied at configuration time (see
:func:`effective_link_config` / :func:`effective_edge_link`); the other
two differ only in whether balancers are instantiated.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import LinkConfig, LinkPolicy, SystemConfig
from repro.interconnect.balancer import LinkBalancer
from repro.sim.engine import Engine


def effective_edge_link(config: SystemConfig, link: LinkConfig) -> LinkConfig:
    """One link/edge's LinkConfig with the DOUBLED policy applied."""
    if config.link_policy is LinkPolicy.DOUBLED:
        return replace(link, lane_bandwidth=link.lane_bandwidth * 2)
    return link


def effective_link_config(config: SystemConfig) -> LinkConfig:
    """The per-socket LinkConfig actually built (DOUBLED-aware)."""
    return effective_edge_link(config, config.link)


def build_balancers(
    config: SystemConfig,
    fabric,
    engine: Engine,
    record_timelines: bool = False,
    monitor_only: bool = False,
) -> list[LinkBalancer]:
    """Instantiate per-link balancers when the policy calls for them.

    ``fabric`` is a :class:`~repro.topology.fabric.MultiHopFabric` or
    ``None``; its ``balancer_links`` property names the duplex links the
    dynamic policy manages — one per edge, which on the crossbar star is
    one per socket link.

    ``monitor_only`` balancers sample and record utilization timelines but
    never turn lanes — used to capture Figure 5 on the static baseline.
    """
    if fabric is None:
        return []
    wants_balancers = config.link_policy is LinkPolicy.DYNAMIC or monitor_only
    if not wants_balancers:
        return []
    passive = monitor_only and config.link_policy is not LinkPolicy.DYNAMIC
    return [
        LinkBalancer(
            link,
            engine,
            config.controllers,
            record_timeline=record_timelines,
            monitor_only=passive,
        )
        for link in fabric.balancer_links
    ]
