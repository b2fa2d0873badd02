#!/usr/bin/env python
"""Watch the dynamic link balancer track phase behaviour (Figures 4-6).

Runs the HPC-HPGMG-UVM proxy — multigrid V-cycles whose restrict and
prolong phases flip each link's hot direction — on static and dynamic
links, then prints:

* the per-GPU ingress/egress utilization profile (Figure 5's plot),
* lane turns per socket and the final lane assignment,
* the speedup of dynamic lane reversal and of doubled bandwidth.

Usage:
    python examples/link_rebalancing_demo.py [--scale tiny|small|medium]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro import get_workload, scaled_config
from repro.config import LinkPolicy
from repro.core.builder import build_system
from repro.interconnect.link import Direction
from repro.metrics.timeline import bin_series
from repro.workloads.spec import SCALES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    parser.add_argument("--workload", default="HPC-HPGMG-UVM")
    parser.add_argument("--windows", type=int, default=16)
    args = parser.parse_args()
    scale = SCALES[args.scale]
    workload = get_workload(args.workload)

    static_cfg = scaled_config(n_sockets=4)
    print(f"=== {workload.name} on static links (Figure 5 profile) ===")
    system = build_system(static_cfg, record_timelines=True)
    static = system.run(workload.build_kernels(scale), workload.name)
    window = max(1, static.cycles // args.windows)
    names = sorted(static.link_timelines)
    profiles = {
        name: bin_series(series, window, static.cycles)
        for name, series in static.link_timelines.items()
    }
    header = "cycle".ljust(10) + "".join(n.rjust(16) for n in names)
    print(header)
    for i in range(args.windows):
        row = f"{i * window:<10}"
        for name in names:
            utils = profiles[name].utilization
            row += f"{utils[i] if i < len(utils) else 0.0:>16.2f}"
        print(row)
    print(f"kernel launches at: {static.kernel_launch_times}")

    print()
    print("=== dynamic lane reversal ===")
    dynamic_cfg = replace(static_cfg, link_policy=LinkPolicy.DYNAMIC)
    system = build_system(dynamic_cfg)
    dynamic = system.run(workload.build_kernels(scale), workload.name)
    assert system.fabric is not None
    for link in system.fabric.balancer_links:
        print(
            f"socket {link.socket_id}: {link.stats['lane_turns']:>3} lane "
            f"turns, final lanes egress={link.lanes(Direction.EGRESS)} "
            f"ingress={link.lanes(Direction.INGRESS)}"
        )
    print(f"dynamic vs static speedup: {static.cycles / dynamic.cycles:.3f}x")

    doubled_cfg = replace(static_cfg, link_policy=LinkPolicy.DOUBLED)
    doubled = build_system(doubled_cfg).run(
        workload.build_kernels(scale), workload.name
    )
    print(f"2x bandwidth upper bound:  {static.cycles / doubled.cycles:.3f}x")


if __name__ == "__main__":
    main()
