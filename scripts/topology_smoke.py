#!/usr/bin/env python
"""Topology smoke: the compact suite on ring, mesh2d, and switch_tree.

The CI companion of the topology subsystem: runs the compact workload
cross-section (``repro.workloads.suite.COMPACT_SET``) on the ``ring``,
``mesh2d``, and ``switch_tree`` topologies at a paper-relevant scale
(default: ``small``), sanity-checks the multi-hop machinery end-to-end —

* per-edge stats are exported for every multi-hop run and cover every
  spec edge,
* hop histograms are populated and respect each topology's diameter,
* routed byte conservation: fabric bytes x mean hops equals the sum of
  per-edge bytes.

Usage::

    PYTHONPATH=src python scripts/topology_smoke.py                # assert
    PYTHONPATH=src python scripts/topology_smoke.py --scale tiny
    PYTHONPATH=src python scripts/topology_smoke.py --jobs 4
"""

from __future__ import annotations

import argparse
import json

from repro.harness.parallel import ParallelRunner, RunTask, resolve_jobs
from repro.harness.runner import ExperimentContext
from repro.topology.routing import compute_routes
from repro.workloads.spec import SCALES
from repro.workloads.suite import COMPACT_SET

#: The smoke grid: every multi-hop shape the subsystem introduces —
#: ring, 2-D mesh, and chiplet tree — at the socket counts CI can
#: afford at small scale (the mesh's conservation checks run on the
#: same hop-histogram / per-edge-crossing agreement asserts as the
#: other fabrics).
SMOKE_KINDS = ("ring", "mesh2d", "switch_tree")
SMOKE_SOCKETS = (2, 4)


def run_smoke(scale: str, jobs: int) -> dict:
    """Run the grid (optionally fanned out) and verify it."""
    ctx = ExperimentContext(scale=SCALES[scale])
    configs = [
        ctx.config_topology(kind, n_sockets=k)
        for kind in SMOKE_KINDS
        for k in SMOKE_SOCKETS
    ]
    tasks = [
        RunTask(name, config)
        for config in configs
        for name in COMPACT_SET
    ]
    if jobs > 1:
        ParallelRunner(ctx, jobs=jobs).prewarm(tasks)

    checked = 0
    for config in configs:
        spec = config.topology
        routes = compute_routes(spec)
        diameter = routes.diameter(spec.n_sockets)
        edge_names = {edge.name for edge in spec.edges}
        for name in COMPACT_SET:
            result = ctx.run(name, config)
            assert result.edges, (
                f"{name}/{spec.name}: multi-hop run exported no edge stats"
            )
            assert {e.name for e in result.edges} == edge_names, (
                f"{name}/{spec.name}: edge stats do not cover the spec"
            )
            hist = result.hop_histogram
            # Fully-local workloads legitimately send nothing (e.g.
            # private-reuse kernels under first-touch placement).
            assert hist or result.switch_bytes == 0, (
                f"{name}/{spec.name}: fabric moved bytes but the hop "
                "histogram is empty"
            )
            if not hist:
                checked += 1
                continue
            assert max(hist) <= diameter, (
                f"{name}/{spec.name}: {max(hist)}-hop route exceeds the "
                f"topology diameter {diameter}"
            )
            routed = sum(h * c for h, c in hist.items())
            packets = sum(c for c in hist.values())
            edge_packets = sum(
                e.packets_ab + e.packets_ba for e in result.edges
            )
            assert routed == edge_packets, (
                f"{name}/{spec.name}: {routed} routed hops != "
                f"{edge_packets} per-edge packet crossings"
            )
            assert packets > 0 and result.cycles > 0
            checked += 1
    return {
        "scale": scale,
        "jobs": jobs,
        "simulations": len(tasks),
        "checked": checked,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", default="small", choices=sorted(SCALES),
        help="workload scale for the smoke grid (default: small)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes (default: $REPRO_JOBS or 1; 0 = one per "
        "CPU)",
    )
    args = parser.parse_args(argv)
    jobs = resolve_jobs(args.jobs)
    record = run_smoke(args.scale, jobs)
    print(f"topology smoke: {json.dumps(record)}")
    print(
        f"OK: {record['checked']} multi-hop runs verified on "
        f"{'+'.join(SMOKE_KINDS)} at {args.scale} scale"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
