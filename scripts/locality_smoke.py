#!/usr/bin/env python
"""Locality smoke: distance-aware policies vs the distance-blind baseline.

The CI companion of the locality subsystem: runs the compact workload
cross-section (``repro.workloads.suite.COMPACT_SET``) through the
``locality`` experiment driver — ``distance_weighted_first_touch`` +
``distance_affine`` against the distance-blind ``first_touch`` +
``contiguous`` baseline on the same fabric — and asserts the headline
claim of the locality layer end-to-end:

* packet-weighted mean hops drop versus the distance-blind baseline on
  every (fabric, socket count) cell,
* the mean remote-access fraction does not regress,
* the distance-weighted policy actually re-homes pages (its counters
  are live), and the run is not pathologically slower than baseline.

The printed record carries the per-cell mean-hop numbers, the evidence
for the ring/mesh gap claim.

Usage::

    PYTHONPATH=src python scripts/locality_smoke.py                # CI: ring@8
    PYTHONPATH=src python scripts/locality_smoke.py --kinds ring mesh2d \\
        --sockets 8 16                             # the full 8-16 grid
"""

from __future__ import annotations

import argparse
import json

from repro.harness import experiments as E
from repro.harness.parallel import ParallelRunner, resolve_jobs
from repro.harness.runner import ExperimentContext
from repro.workloads.spec import SCALES
from repro.workloads.suite import COMPACT_SET

#: The headline policy pairing the acceptance gate is about.
SMOKE_POLICIES = (("distance_weighted_first_touch", "distance_affine"),)

#: Migration-heavy cross-section for the ACM read-shared before/after.
ACM_WORKLOADS = (
    "Rodinia-BFS", "HPC-AMG", "Lonestar-SSSP", "Rodinia-Euler3D",
)


def acm_filter_effect(ctx: "ExperimentContext", kind: str,
                      n_sockets: int) -> dict:
    """Record ``access_counter_migration`` with/without the read-shared
    filter (PR 8's ping-pong fix) on one sweep cell.

    The filter pins pages that two or more remote sockets read but none
    writes — migrating those only bounces them between sharers. On the
    suite traces every threshold-crossing page is eventually written
    remotely, so the filter delays rather than cancels migrations: the
    record asserts it never *adds* re-homings and keeps cycles within a
    tight band of the unfiltered policy, and the per-workload numbers
    land in the printed record as the before/after evidence.
    """
    out = {}
    for workload in ACM_WORKLOADS:
        cell = {}
        for label, params in (
            ("on", {}), ("off", {"read_shared_filter": False})
        ):
            config = ctx.config_locality_policy(
                "access_counter_migration", "contiguous",
                kind=kind, n_sockets=n_sockets, **params,
            )
            result = ctx.run(workload, config)
            cell[label] = {
                "cycles": result.cycles,
                "re_homed_pages": result.re_homed_pages,
            }
        on, off = cell["on"], cell["off"]
        assert on["re_homed_pages"] <= off["re_homed_pages"], (
            f"{workload}: the read-shared filter added re-homings "
            f"({on['re_homed_pages']} vs {off['re_homed_pages']})"
        )
        ratio = off["cycles"] / on["cycles"] if on["cycles"] else 0.0
        assert 0.95 <= ratio <= 1.05, (
            f"{workload}: read-shared filter moved cycles by more than "
            f"5% (off/on = {ratio:.4f}); the filter must be a targeted "
            "suppression, not a behaviour rewrite"
        )
        out[workload] = {
            "filter_on": on,
            "filter_off": off,
            "cycles_off_over_on": round(ratio, 4),
        }
    return out


def run_smoke(scale: str, jobs: int, kinds: tuple[str, ...],
              sockets: tuple[int, ...]) -> dict:
    """Run the locality grid and verify the headline claim."""
    ctx = ExperimentContext(scale=SCALES[scale])

    def driver(c):
        return E.locality_sweep(
            c,
            workloads=COMPACT_SET,
            kinds=kinds,
            socket_counts=sockets,
            policies=SMOKE_POLICIES,
        )

    if jobs > 1:
        ParallelRunner(ctx, jobs=jobs).prewarm_experiments([driver])
    result = driver(ctx)

    cells = {}
    for cell in result.cells:
        key = f"{cell.placement}+{cell.cta}/{cell.kind}/{cell.n_sockets}s"
        assert cell.baseline_mean_hops > 1.0, (
            f"{key}: distance-blind baseline routed no multi-hop traffic "
            "— the smoke grid is not exercising the fabric"
        )
        assert cell.mean_hops < cell.baseline_mean_hops, (
            f"{key}: packet-weighted mean hops did not drop "
            f"({cell.mean_hops:.3f} vs blind {cell.baseline_mean_hops:.3f})"
        )
        # Affinity assignment trades a little remote fraction for much
        # shorter routes on some grids, so the guard is a tolerance, not
        # a strict monotone: remote accesses must not *blow up*.
        assert cell.remote_fraction <= cell.baseline_remote_fraction + 0.02, (
            f"{key}: remote-access fraction regressed "
            f"({cell.remote_fraction:.4f} vs "
            f"{cell.baseline_remote_fraction:.4f})"
        )
        assert cell.re_homed_pages > 0, (
            f"{key}: distance-weighted policy never re-homed a page"
        )
        assert cell.speedup > 0.9, (
            f"{key}: distance-aware policies cost more than 10% "
            f"({cell.speedup:.3f}x)"
        )
        cells[key] = {
            "speedup_vs_blind": round(cell.speedup, 4),
            "mean_hops": round(cell.mean_hops, 4),
            "baseline_mean_hops": round(cell.baseline_mean_hops, 4),
            "remote_fraction": round(cell.remote_fraction, 4),
            "baseline_remote_fraction": round(
                cell.baseline_remote_fraction, 4
            ),
            "re_homed_pages": cell.re_homed_pages,
        }
    acm = acm_filter_effect(ctx, kinds[0], sockets[0])
    return {
        "scale": scale,
        "jobs": jobs,
        "kinds": list(kinds),
        "sockets": list(sockets),
        "workloads": len(COMPACT_SET),
        "simulations": ctx.cached_runs,
        "cells": cells,
        "acm_read_shared_filter": acm,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", default="small", choices=sorted(SCALES),
        help="workload scale for the smoke grid (default: small)",
    )
    parser.add_argument(
        "--kinds", nargs="+", default=["ring"],
        choices=["ring", "mesh2d", "switch_tree"],
        help="multi-hop fabrics to sweep (default: ring)",
    )
    parser.add_argument(
        "--sockets", nargs="+", type=int, default=[8],
        help="socket counts to sweep (default: 8)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes (default: $REPRO_JOBS or 1; 0 = one per "
        "CPU)",
    )
    args = parser.parse_args(argv)
    jobs = resolve_jobs(args.jobs)
    record = run_smoke(
        args.scale, jobs, tuple(args.kinds), tuple(args.sockets)
    )
    print(f"locality smoke: {json.dumps(record)}")
    print(
        f"OK: {len(record['cells'])} locality cells verified on "
        f"{'+'.join(args.kinds)} at {args.scale} scale "
        f"(mean hops drop on every cell)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
