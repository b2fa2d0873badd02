#!/usr/bin/env python
"""Define your own workload and study it under every placement policy.

Builds a custom broadcast+reduction workload with the synthetic factory,
then sweeps the Section 3 software policies (CTA scheduling x page
placement) and prints how the remote-access fraction and runtime respond
— the experiment behind Figure 3's green vs blue bars.

Usage:
    python examples/custom_workload.py [--scale tiny|small|medium]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro import CtaSpec, PlacementSpec, make_workload, run_workload_on, scaled_config
from repro.harness.formatting import format_table
from repro.workloads.spec import SCALES

POLICIES = (
    ("traditional", "interleaved", "fine_interleave"),
    ("page interleave", "interleaved", "page_interleave"),
    ("locality-optimized", "contiguous", "first_touch"),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    args = parser.parse_args()
    scale = SCALES[args.scale]

    workload = make_workload(
        "my-solver",
        pattern="broadcast",
        n_ctas=256,
        slices_per_cta=6,
        ops_per_slice=16,
        compute_per_slice=30,
        reduction_fraction=0.2,
        shared_access_fraction=0.6,
        iterations=2,
        init_shared=True,
    )
    print(f"workload: {workload.name} — {workload.description}")

    rows = []
    for label, cta, placement in POLICIES:
        cfg = replace(
            scaled_config(n_sockets=4),
            cta_spec=CtaSpec(kind=cta),
            placement_spec=PlacementSpec(kind=placement),
        )
        result = run_workload_on(cfg, workload, scale)
        rows.append(
            [
                label,
                f"{result.cycles:,}",
                f"{100 * result.total_remote_fraction:.0f}%",
                result.migrations,
            ]
        )
    print(
        format_table(
            ["Policy pair", "Cycles", "Remote accesses", "Page migrations"],
            rows,
            title="Software policies on a 4-socket NUMA GPU (Section 3)",
        )
    )


if __name__ == "__main__":
    main()
