#!/usr/bin/env python
"""Run every experiment and dump the aggregate numbers to JSON.

This is the script behind EXPERIMENTS.md: it executes all the harness
drivers at the requested scale and records the means the paper reports.

Usage:
    python scripts/run_experiments.py [tiny|small|medium] [out.json]
        [--scale NAME] [--workloads full|extended|compact|auto]
        [--jobs N] [--cache-dir DIR | --no-cache]

``--scale`` overrides the positional scale (CI invokes the tier
explicitly as ``--scale small``); ``--workloads compact`` restricts the
figure grid to the behaviour-class cross-section
``repro.workloads.suite.COMPACT_SET`` so paper-scale tiers fit a CI job
budget, ``extended`` uses the roughly-2x ``EXTENDED_SET`` staging tier,
and ``auto`` picks the largest grid the resolved worker count can fan
out within a CI-job budget (full with >= 4 workers, extended with >= 2,
else compact) — the worker-count-aware driver selection that lets the
small tier grow toward the full 41-workload grid as runners allow.

With ``--jobs N`` (or ``REPRO_JOBS=N``) the full simulation grid is first
captured from the drivers and fanned out over N worker processes; the
figures are then computed from the warm cache and are bit-identical to a
serial (``--jobs 1``) run. With the on-disk cache enabled, repeated
invocations skip every already-completed simulation.

The grid is executed under supervision (both serially and in parallel):
a crashed, hung, or excepting simulation is retried with exponential
backoff (``--max-retries``, ``--retry-base-delay``), hung workers are
killed after ``--task-timeout`` seconds, and under ``--keep-going`` (the
default) a permanently failing cell aborts nothing else — the run ends
with a rendered FailureReport, a JSON copy next to the output file (or
at ``--failure-report``), and exit code 1. ``--fail-fast`` aborts on the
first exhausted cell instead.

With ``--checkpoint-dir DIR`` the run additionally keeps a crash-safe
study journal under DIR (manifest + append-only, per-cell completion
log; see ``repro.harness.checkpoint``). A run killed mid-suite — or
stopped with Ctrl-C/SIGTERM, which kills workers, flushes the journal,
and prints the resume command — picks up with ``--resume``: journaled
cells seed the context directly, in-flight cells re-run, and the
resumed figures are byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
import time

from repro.errors import CheckpointError, ExecutionError
from repro.harness import experiments as E
from repro.harness.checkpoint import StudyJournal
from repro.harness.parallel import ParallelRunner, make_context, resolve_jobs
from repro.harness.supervisor import RetryPolicy
from repro.workloads.spec import SCALES
from repro.workloads.suite import (
    COMPACT_SET,
    EXTENDED_SET,
    SUITE,
    TOPOLOGY_SET,
)

#: Figure 6 sampling-time sweep used for the JSON summary.
SAMPLE_TIMES = (500, 1000, 5000, 20000)

#: Topology sweep grid for the JSON summary (policy x fabric x sockets).
TOPOLOGY_KINDS = ("ring", "mesh2d", "switch_tree")
TOPOLOGY_SOCKETS = (2, 4, 8, 16)

#: Locality sweep grid: the distance-aware policies on the multi-hop
#: fabrics at the socket counts where the ring/mesh gap shows (the
#: distance-blind baselines are shared with the topology sweep's cache).
LOCALITY_KINDS = ("ring", "mesh2d")
LOCALITY_SOCKETS = (8, 16)


def resolve_workloads(selection: str, jobs: int) -> tuple[str, ...] | None:
    """Map a ``--workloads`` choice to a workload tuple (None = full).

    ``auto`` is worker-count-aware: the figure drivers get the largest
    workload grid the resolved worker count can fan out inside a CI job
    budget.
    """
    if selection == "auto":
        selection = "full" if jobs >= 4 else (
            "extended" if jobs >= 2 else "compact"
        )
    return {
        "full": None,
        "extended": EXTENDED_SET,
        "compact": COMPACT_SET,
    }[selection]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("scale", nargs="?", default="tiny",
                        choices=sorted(SCALES),
                        help="workload scale preset")
    parser.add_argument("output", nargs="?", default="experiment_results.json",
                        help="output JSON path")
    parser.add_argument(
        "--scale", dest="scale_opt", default=None, choices=sorted(SCALES),
        metavar="NAME",
        help="workload scale preset (overrides the positional form)",
    )
    parser.add_argument(
        "--output", dest="output_opt", default=None, metavar="PATH",
        help="output JSON path (overrides the positional form; use with "
        "--scale to avoid positional ambiguity)",
    )
    parser.add_argument(
        "--workloads", default="full",
        choices=("full", "extended", "compact", "auto"),
        help="figure-grid workload selection: the full 41-workload suite, "
        "the EXTENDED_SET staging tier, the CI cross-section "
        "(COMPACT_SET), or 'auto' (pick by resolved worker count)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes for the simulation grid "
        "(default: $REPRO_JOBS or 1 = serial; 0 = one per CPU). "
        "Parallel runs produce bit-identical figures to serial runs.",
    )
    cache = parser.add_mutually_exclusive_group()
    cache.add_argument(
        "--cache-dir", default="", metavar="DIR",
        help="on-disk result cache location "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    cache.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache entirely",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries per simulation after a crash/hang/exception",
    )
    parser.add_argument(
        "--retry-base-delay", type=float, default=0.5, metavar="SEC",
        help="exponential-backoff base: retry k waits base * 2**k seconds",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SEC",
        help="per-simulation wall-clock limit; a hung worker is killed "
        "and the cell retried (default: no limit)",
    )
    policy = parser.add_mutually_exclusive_group()
    policy.add_argument(
        "--keep-going", dest="keep_going", action="store_true", default=True,
        help="run every cell even if some fail permanently (default); "
        "failures are reported at the end and the exit code is 1",
    )
    policy.add_argument(
        "--fail-fast", dest="keep_going", action="store_false",
        help="abort the run on the first permanently failed simulation",
    )
    parser.add_argument(
        "--failure-report", default=None, metavar="PATH",
        help="where to write the JSON failure report on a non-clean run "
        "(default: <output>.failures.json)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="keep a crash-safe study journal under DIR: every finished "
        "cell is logged with its result so a killed run can --resume "
        "without re-simulating",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume the study journaled under --checkpoint-dir: "
        "journaled-done cells are skipped, in-flight ones re-run; "
        "figures are byte-identical to an uninterrupted run",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write a Chrome/Perfetto trace of the harness telemetry "
        "(per-worker task spans, wall clock) to DIR/study_trace.json",
    )
    return parser


def resume_command(argv: list[str] | None) -> str:
    """The exact invocation that resumes this run from its journal."""
    words = list(sys.argv[1:] if argv is None else argv)
    if "--resume" not in words:
        words.append("--resume")
    return "python scripts/run_experiments.py " + " ".join(
        shlex.quote(word) for word in words
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    scale = args.scale_opt or args.scale
    output = args.output_opt or args.output
    jobs = resolve_jobs(args.jobs)
    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    t0 = time.time()
    ctx = make_context(
        SCALES[scale],
        cache_dir=None if args.no_cache else args.cache_dir,
    )
    #: None = each driver's own default (full suite / study set).
    names = resolve_workloads(args.workloads, jobs)
    out: dict = {
        "scale": scale,
        "jobs": jobs,
        "workloads": args.workloads,
        "workload_count": len(names) if names is not None else len(SUITE),
    }

    # One driver per figure, defined once so the parallel prewarm captures
    # exactly the grid the serial pass below will request.
    drivers = {
        "figure2": lambda c: E.figure2(c),
        "figure3": lambda c: E.figure3(c, workloads=names),
        "figure5": lambda c: E.figure5(c),
        "figure6": lambda c: E.figure6(
            c, workloads=names, sample_times=SAMPLE_TIMES
        ),
        "figure8": lambda c: E.figure8(c, workloads=names),
        "figure9": lambda c: E.figure9(c, workloads=names),
        "figure10": lambda c: E.figure10(c, workloads=names),
        "figure11": lambda c: E.figure11(c, workloads=names),
        "switch_time": lambda c: E.switch_time_sensitivity(
            c, workloads=names, switch_times=(10, 100, 500), sample_time=1000
        ),
        "writeback": lambda c: E.writeback_sensitivity(c, workloads=names),
        "power": lambda c: E.power_analysis(c, workloads=names),
        # The topology sweep always uses its compact TOPOLOGY_SET (the
        # policy x fabric x socket grid is already ~200 simulations).
        "topology": lambda c: E.topology_sweep(
            c,
            workloads=TOPOLOGY_SET,
            kinds=TOPOLOGY_KINDS,
            socket_counts=TOPOLOGY_SOCKETS,
        ),
        # The locality sweep also pins its compact TOPOLOGY_SET grid.
        "locality": lambda c: E.locality_sweep(
            c,
            workloads=TOPOLOGY_SET,
            kinds=LOCALITY_KINDS,
            socket_counts=LOCALITY_SOCKETS,
        ),
    }

    # Study checkpointing: the journal logs every grid cell's start
    # and completion (with its result) so a killed run can --resume.
    journal = None
    if args.checkpoint_dir is not None:
        study = f"experiments:{args.workloads}:{out['workload_count']}"
        try:
            journal = (
                StudyJournal.resume(args.checkpoint_dir, scale, study)
                if args.resume
                else StudyJournal.start(args.checkpoint_dir, scale, study)
            )
        except CheckpointError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if args.resume:
            stats = journal.stats()
            print(f"resuming: {stats['done']} cells journaled done, "
                  f"{stats['corrupt_lines']} corrupt journal lines dropped",
                  flush=True)

    # The whole grid is prewarmed under supervision even when serial, so
    # --jobs 1 and --jobs N report failures identically and the figure
    # pass below only ever reads a warm cache.
    runner = ParallelRunner(
        ctx,
        jobs=jobs,
        policy=RetryPolicy(
            max_retries=args.max_retries,
            base_delay=args.retry_base_delay,
            task_timeout=args.task_timeout,
            keep_going=args.keep_going,
        ),
        journal=journal,
    )
    try:
        executed = runner.prewarm_experiments(
            drivers.values(),
            progress=lambda done, total: print(
                f"prewarm {done}/{total}", round(time.time() - t0), flush=True
            ) if done % 25 == 0 or done == total else None,
        )
    except ExecutionError as error:
        report = error.report
    else:
        report = runner.report
        print(f"prewarmed {executed} simulations "
              f"({runner.skipped} cached) on {jobs} workers",
              round(time.time() - t0), flush=True)
    finally:
        if journal is not None:
            journal.close()
    if report is not None and report.tasks:
        # Surface the attempt transcript even when every task recovered:
        # a chaos run that converged still documents what it survived.
        print(report.render(), flush=True)
    if report is not None and not report.ok():
        # Bail before the figure pass: a failed cell would otherwise be
        # re-run serially by ctx.run() and crash mid-figure without the
        # attempt accounting the supervisor collected.
        report_path = args.failure_report or f"{output}.failures.json"
        report.write_json(report_path)
        print(f"failure report -> {report_path}", flush=True)
        if report.interrupted:
            print(report.headline(), flush=True)
        if journal is not None:
            print(f"resume with: {resume_command(argv)}", flush=True)
        return 1
    if args.failure_report and report is not None:
        report.write_json(args.failure_report)

    out["figure2"] = drivers["figure2"](ctx).fill_percent

    f3 = drivers["figure3"](ctx)
    out["figure3"] = {
        "mean_traditional": sum(r.traditional for r in f3.rows) / len(f3.rows),
        "mean_locality": sum(r.locality for r in f3.rows) / len(f3.rows),
        "mean_hypothetical": sum(r.hypothetical for r in f3.rows) / len(f3.rows),
        "measured_grey": f3.measured_grey_box,
        "rows": {
            r.workload: [r.traditional, r.locality, r.hypothetical]
            for r in f3.rows
        },
    }
    print("fig3 done", round(time.time() - t0), flush=True)

    f5 = drivers["figure5"](ctx)
    out["figure5"] = {
        "asymmetry": f5.asymmetry,
        "kernels": len(f5.kernel_launch_times),
    }

    f6 = drivers["figure6"](ctx)
    out["figure6"] = {f"s{s}": f6.mean_speedup(f"s{s}") for s in SAMPLE_TIMES}
    out["figure6"]["2x"] = f6.mean_speedup("2x")
    out["figure6_best_per_workload"] = {
        name: max(cols[k] for k in cols if k.startswith("s"))
        for name, cols in f6.per_workload.items()
    }
    print("fig6 done", round(time.time() - t0), flush=True)

    f8 = drivers["figure8"](ctx)
    out["figure8"] = {
        c: f8.mean_speedup(c)
        for c in ("static_rc", "shared_coherent", "numa_aware")
    }
    out["figure8_rows"] = f8.per_workload
    print("fig8 done", round(time.time() - t0), flush=True)

    f9 = drivers["figure9"](ctx)
    out["figure9"] = {
        "mean_overhead": f9.mean_overhead,
        "max_overhead": max(f9.per_workload.values()),
    }

    f10 = drivers["figure10"](ctx)
    out["figure10"] = {
        c: f10.mean(c) for c in ("baseline", "combined", "hypothetical")
    }
    print("fig10 done", round(time.time() - t0), flush=True)

    f11 = drivers["figure11"](ctx)
    out["figure11"] = {
        str(k): {
            "speedup": f11.mean_speedup(k),
            "hypothetical": f11.mean_hypothetical(k),
            "efficiency": f11.efficiency(k),
        }
        for k in (2, 4, 8)
    }
    print("fig11 done", round(time.time() - t0), flush=True)

    topo = drivers["topology"](ctx)
    out["topology"] = {
        f"{c.policy}/{c.kind}/{c.n_sockets}s": {
            "speedup_vs_crossbar": c.speedup,
            "mean_hops": c.mean_hops,
            "bisection_utilization": c.bisection_utilization,
        }
        for c in topo.cells
    }
    print("topology done", round(time.time() - t0), flush=True)

    loc = drivers["locality"](ctx)
    out["locality"] = {
        f"{c.placement}+{c.cta}/{c.kind}/{c.n_sockets}s": {
            "speedup_vs_blind": c.speedup,
            "mean_hops": c.mean_hops,
            "baseline_mean_hops": c.baseline_mean_hops,
            "remote_fraction": c.remote_fraction,
            "baseline_remote_fraction": c.baseline_remote_fraction,
            "migrations": c.migrations,
            "re_homed_pages": c.re_homed_pages,
        }
        for c in loc.cells
    }
    print("locality done", round(time.time() - t0), flush=True)

    st = drivers["switch_time"](ctx)
    out["switch_time"] = st.mean_speedup

    out["writeback"] = drivers["writeback"](ctx).mean_speedup

    pw = drivers["power"](ctx)
    out["power"] = {
        "baseline_w": pw.geomean("baseline_w"),
        "numa_aware_w": pw.geomean("numa_aware_w"),
    }

    # Harness telemetry (wall-clock; excluded from determinism checks):
    # per-worker task spans and tally deltas plus cross-process totals,
    # and the disk-cache health counters when a cache is attached.
    out["telemetry"] = report.telemetry if report is not None else None
    if out["telemetry"] is not None and report.cache is not None:
        out["telemetry"]["cache"] = report.cache
    if args.trace_dir is not None and report is not None:
        import os

        from repro.obs.chrome import study_to_chrome, write_chrome_trace

        os.makedirs(args.trace_dir, exist_ok=True)
        trace_path = os.path.join(args.trace_dir, "study_trace.json")
        write_chrome_trace(study_to_chrome(report.telemetry), trace_path)
        print(f"study trace -> {trace_path}", flush=True)
    out["wall_seconds"] = time.time() - t0
    out["simulations"] = ctx.cached_runs
    with open(output, "w") as handle:
        json.dump(out, handle, indent=1, default=str)
    print("ALL DONE", round(time.time() - t0), "->", output, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
