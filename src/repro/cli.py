"""Command-line interface: run workloads and experiments from a shell.

Installed as the ``repro`` console script::

    repro list                         # the 41 workloads
    repro run HPC-MCB --sockets 4 --cache numa_aware --links dynamic
    repro run HPC-AMG --topology ring  # same workload on a ring fabric
    repro run HPC-MCB --trace mcb.json # + Chrome/Perfetto trace export
    repro experiment figure8           # any table/figure driver
    repro experiment topology          # policy x fabric x socket sweep
    repro topology describe ring --sockets 8   # graph + routing tables
    repro trace run HPC-MCB out.json   # traced simulation -> trace.json
    repro trace study results.json out.json  # worker telemetry -> trace
    repro trace workload HPC-MCB out.trace   # record a replayable trace
    repro lint src scripts             # contract-enforcing static analysis
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.cli import add_lint_arguments, run_lint
from repro.config import (
    CacheArch,
    LinkPolicy,
    scaled_config,
)
from repro.core.builder import run_workload_on
from repro.errors import ConfigError
from repro.harness import experiments
from repro.harness.formatting import format_table
from repro.harness.runner import ExperimentContext
from repro.locality import (
    CTA_KINDS,
    PLACEMENT_KINDS,
    CtaSpec,
    DistanceModel,
    PlacementSpec,
)
from repro.metrics.export import run_to_dict
from repro.topology.routing import bisection_bandwidth, bisection_cut, compute_routes
from repro.topology.spec import BUILDERS as TOPOLOGY_KINDS
from repro.topology.spec import build_topology
from repro.workloads.spec import SCALES
from repro.workloads.suite import SUITE, get_workload
from repro.workloads.trace import record_trace, save_trace

#: Experiment drivers reachable from the CLI.
EXPERIMENTS = {
    "table1": experiments.table1,
    "table2": experiments.table2,
    "figure2": experiments.figure2,
    "figure3": experiments.figure3,
    "figure5": experiments.figure5,
    "figure6": experiments.figure6,
    "figure8": experiments.figure8,
    "figure9": experiments.figure9,
    "figure10": experiments.figure10,
    "figure11": experiments.figure11,
    "switch_time": experiments.switch_time_sensitivity,
    "writeback": experiments.writeback_sensitivity,
    "power": experiments.power_analysis,
    "topology": experiments.topology_sweep,
    "locality": experiments.locality_sweep,
}


def cycle_count(text: str) -> int:
    """Argparse type for a sampling interval: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument grammar."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NUMA-aware multi-socket GPU simulator "
        "(Milic et al., MICRO-50 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the 41 workloads")

    run = sub.add_parser("run", help="simulate one workload")
    run.add_argument("workload")
    run.add_argument("--sockets", type=int, default=4)
    run.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    run.add_argument(
        "--cache",
        choices=[a.value for a in CacheArch],
        default=CacheArch.MEM_SIDE.value,
    )
    run.add_argument(
        "--links",
        choices=[p.value for p in LinkPolicy],
        default=LinkPolicy.STATIC.value,
    )
    run.add_argument(
        "--placement",
        choices=sorted(PLACEMENT_KINDS),
        default=PlacementSpec().kind,
        help="page-placement policy (repro.locality registry; includes "
        "the distance-aware distance_weighted_first_touch and "
        "access_counter_migration)",
    )
    run.add_argument(
        "--cta-policy",
        choices=sorted(CTA_KINDS),
        default=CtaSpec().kind,
        help="CTA-assignment policy (repro.locality registry; includes "
        "the affinity-aware distance_affine)",
    )
    run.add_argument(
        "--topology",
        choices=sorted(TOPOLOGY_KINDS),
        default=None,
        help="interconnect topology (default: the paper's crossbar)",
    )
    run.add_argument(
        "--trace",
        nargs="?",
        const="trace.json",
        default=None,
        metavar="PATH",
        help="emit a Chrome/Perfetto trace of the run to PATH (default: "
        "trace.json). Simulated time only (1 cycle = 1 us), so traces "
        "of identical configs are byte-identical",
    )
    run.add_argument(
        "--metrics-interval",
        type=cycle_count,
        default=0,
        metavar="CYCLES",
        help="with --trace: sample the stock metric gauges every N "
        "simulated cycles into counter tracks (0 = off)",
    )

    topo = sub.add_parser(
        "topology", help="inspect the declarative topology layer"
    )
    topo_sub = topo.add_subparsers(dest="topology_command", required=True)
    describe = topo_sub.add_parser(
        "describe",
        help="print a topology's graph, per-edge lanes, and routing tables",
    )
    describe.add_argument("kind", choices=sorted(TOPOLOGY_KINDS))
    describe.add_argument("--sockets", type=int, default=4)
    describe.add_argument(
        "--distances",
        action="store_true",
        help="also print the DistanceModel the locality policies consume "
        "(hop matrix + per-pair bottleneck bandwidth)",
    )

    exp = sub.add_parser("experiment", help="run a table/figure driver")
    exp.add_argument("name", choices=sorted(EXPERIMENTS))
    exp.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    exp.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes for the experiment's simulation grid "
        "(default: $REPRO_JOBS or 1; 0 = one per CPU); results are "
        "bit-identical to a serial run",
    )
    exp.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="enable the on-disk result cache at DIR "
        "('' = $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    exp.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries per simulation after a crash/hang/exception "
        "(default: 2)",
    )
    exp.add_argument(
        "--retry-base-delay", type=float, default=0.5, metavar="SEC",
        help="exponential-backoff base: retry k waits base * 2**k seconds "
        "(default: 0.5)",
    )
    exp.add_argument(
        "--task-timeout", type=float, default=None, metavar="SEC",
        help="per-simulation wall-clock limit; a hung worker is killed "
        "and the cell retried (default: no limit)",
    )
    exp_policy = exp.add_mutually_exclusive_group()
    exp_policy.add_argument(
        "--keep-going", dest="keep_going", action="store_true", default=True,
        help="run every cell even if some fail permanently (default)",
    )
    exp_policy.add_argument(
        "--fail-fast", dest="keep_going", action="store_false",
        help="abort the run on the first permanently failed simulation",
    )
    exp.add_argument(
        "--failure-report", default=None, metavar="PATH",
        help="write the JSON failure report here on any non-clean run",
    )
    exp.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="keep a crash-safe study journal under DIR (every finished "
        "cell is logged with its result); a killed or interrupted run "
        "can then --resume without re-simulating finished cells",
    )
    exp.add_argument(
        "--resume", action="store_true",
        help="resume the study journaled under --checkpoint-dir; "
        "results are byte-identical to an uninterrupted run",
    )

    trace = sub.add_parser(
        "trace",
        help="export Chrome/Perfetto traces or record replayable op traces",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_run = trace_sub.add_parser(
        "run",
        help="simulate one workload under the tracer and write its "
        "Chrome/Perfetto trace.json (simulated-time tracks: kernel "
        "spans per socket, miss paths, fabric transfers, migration "
        "and lane instants, metric counters)",
    )
    trace_run.add_argument("workload")
    trace_run.add_argument("output")
    trace_run.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    trace_run.add_argument("--sockets", type=int, default=4)
    trace_run.add_argument(
        "--metrics-interval",
        type=cycle_count,
        default=1000,
        metavar="CYCLES",
        help="sample the stock metric gauges every N simulated cycles "
        "into counter tracks (0 = off)",
    )
    trace_study = trace_sub.add_parser(
        "study",
        help="convert a study record's harness telemetry (a "
        "run_experiments.py output or failure-report JSON with a "
        "'telemetry' key) into a wall-clock worker-utilization trace",
    )
    trace_study.add_argument("input")
    trace_study.add_argument("output")
    trace_workload = trace_sub.add_parser(
        "workload", help="record a replayable memory-op trace"
    )
    trace_workload.add_argument("workload")
    trace_workload.add_argument("output")
    trace_workload.add_argument(
        "--scale", choices=sorted(SCALES), default="tiny"
    )

    lint = sub.add_parser(
        "lint",
        help="run the contract checkers (determinism, fingerprint "
        "completeness, hot-path discipline, export round-trip, registry "
        "hygiene) with a baseline gate",
    )
    add_lint_arguments(lint)
    return parser


def cmd_list() -> int:
    for name, spec in SUITE.items():
        print(f"{name:28s} {spec.paper_avg_ctas:>7} CTAs "
              f"{spec.paper_footprint_mb:>5} MB  {spec.description}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from dataclasses import replace

    if args.metrics_interval and not args.trace:
        print("error: --metrics-interval needs --trace", file=sys.stderr)
        return 2
    if args.topology and args.sockets < 2:
        # Multi-node specs need at least two sockets; reject up front
        # with a clean message instead of surfacing the spec builder's
        # traceback (the last construction-asymmetry remnant: a 1-socket
        # system never builds a fabric, so the spec would be unused even
        # if it could be built).
        print(
            f"error: --topology {args.topology} needs at least 2 sockets "
            f"(got --sockets {args.sockets}); a single-socket system has "
            "no interconnect",
            file=sys.stderr,
        )
        return 2
    try:
        base = scaled_config(n_sockets=args.sockets)
        config = replace(
            base,
            cache_arch=CacheArch(args.cache),
            link_policy=LinkPolicy(args.links),
            placement_spec=PlacementSpec(kind=args.placement),
            cta_spec=CtaSpec(kind=args.cta_policy),
            topology=(
                build_topology(args.topology, args.sockets, base.link)
                if args.topology
                else None
            ),
        )
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    workload = get_workload(args.workload)
    if args.trace:
        from repro.core.builder import run_workload_traced
        from repro.obs import Tracer
        from repro.obs.chrome import tracer_to_chrome, write_chrome_trace

        tracer = Tracer()
        # record_timelines adds monitor-only balancers, so the trace
        # gets per-link utilization tracks even on the static policy
        # (the Figure-5 capture precedent); passive monitors do not
        # change the simulated results.
        result, system = run_workload_traced(
            config, workload, SCALES[args.scale],
            record_timelines=True,
            tracer=tracer, metrics_interval=args.metrics_interval,
        )
    else:
        result = run_workload_on(config, workload, SCALES[args.scale])
    for key, value in run_to_dict(result).items():
        print(f"{key:16s} {value}")
    for edge in result.edges:
        print(
            f"{'edge':16s} {edge.name}: {edge.bytes_ab}B ->, "
            f"{edge.bytes_ba}B <-, lanes {edge.lanes_ab}/{edge.lanes_ba}, "
            f"{edge.lane_turns} turns"
        )
    if args.trace:
        payload = tracer_to_chrome(
            tracer, registry=system.metrics,
            link_timelines=result.link_timelines,
            label=f"{args.workload}@{args.scale}",
        )
        write_chrome_trace(payload, args.trace)
        print(f"{'trace':16s} {len(payload['traceEvents'])} events "
              f"-> {args.trace}")
    return 0


def cmd_topology_describe(args: argparse.Namespace) -> int:
    """Print one topology's graph, per-edge lanes, and routing summary."""
    # Build with the scaled link so the bandwidth columns match what
    # `repro run --topology` and the experiment drivers simulate.
    spec = build_topology(
        args.kind, args.sockets, scaled_config(n_sockets=args.sockets).link
    )
    routes = compute_routes(spec)
    print(f"topology {spec.name} ({spec.kind}): "
          f"{spec.n_sockets} sockets, {len(spec.routers)} routers, "
          f"{len(spec.edges)} edges")
    cut = set(bisection_cut(spec))
    rows = [
        [
            edge.name,
            edge.link.lanes_per_direction,
            f"{edge.link.direction_bandwidth:.0f}",
            edge.link.latency,
            "cut" if e in cut else "",
        ]
        for e, edge in enumerate(spec.edges)
    ]
    print(format_table(
        ["Edge", "Lanes/dir", "B/cyc/dir", "Latency", "Bisection"],
        rows,
        title="Edges",
    ))
    n = spec.n_sockets
    hop_rows = [
        [spec.sockets[s]] + [routes.hop_count[s][d] for d in range(n)]
        for s in range(n)
    ]
    print(format_table(
        ["hops"] + list(spec.sockets), hop_rows, title="Socket hop counts"
    ))
    print(f"diameter: {routes.diameter(n)} hops, "
          f"mean socket distance: {routes.mean_socket_hops(n):.2f} hops")
    print(f"bisection bandwidth (canonical cut, both directions): "
          f"{bisection_bandwidth(spec):.0f} B/cyc")
    if args.distances:
        model = DistanceModel.from_spec(spec)
        hop_matrix = [
            [spec.sockets[s]] + list(model.hops[s]) for s in range(n)
        ]
        print(format_table(
            ["hops"] + list(spec.sockets),
            hop_matrix,
            title="Distance model: hop matrix (what the locality "
            "policies weight by)",
        ))
        bw_matrix = [
            [spec.sockets[s]]
            + [
                "-" if s == d else f"{model.min_bandwidth[s][d]:.0f}"
                for d in range(n)
            ]
            for s in range(n)
        ]
        print(format_table(
            ["B/cyc"] + list(spec.sockets),
            bw_matrix,
            title="Distance model: bottleneck bandwidth per route "
            "(min over crossed edges, per direction)",
        ))
        print(f"mean socket distance (model): {model.mean_hops():.2f} hops")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.errors import CheckpointError, ExecutionError
    from repro.harness.checkpoint import StudyJournal
    from repro.harness.parallel import ParallelRunner, make_context, resolve_jobs
    from repro.harness.supervisor import RetryPolicy

    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    ctx = make_context(SCALES[args.scale], cache_dir=args.cache_dir)
    jobs = resolve_jobs(args.jobs)
    driver = EXPERIMENTS[args.name]
    journal = None
    if args.checkpoint_dir is not None:
        study = f"experiment:{args.name}"
        try:
            journal = (
                StudyJournal.resume(args.checkpoint_dir, args.scale, study)
                if args.resume
                else StudyJournal.start(args.checkpoint_dir, args.scale, study)
            )
        except CheckpointError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    # The grid is prewarmed under supervision even serially, so --jobs 1
    # and --jobs N retry and report failures identically.
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
        runner.prewarm_experiments([driver])
    except ExecutionError as error:
        report = error.report
    else:
        report = runner.report
    finally:
        if journal is not None:
            journal.close()
    if report is not None and report.tasks:
        print(report.render(), file=sys.stderr)
    if args.failure_report and report is not None:
        report.write_json(args.failure_report)
    if report is not None and not report.ok():
        if report.interrupted:
            print(report.headline(), file=sys.stderr)
        if journal is not None:
            print(
                f"resume with: repro experiment {args.name} "
                f"--scale {args.scale} "
                f"--checkpoint-dir {args.checkpoint_dir} --resume",
                file=sys.stderr,
            )
        return 1
    result = driver(ctx)
    print(result.render())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "run":
        return cmd_trace_run(args)
    if args.trace_command == "study":
        return cmd_trace_study(args)
    workload = get_workload(args.workload)
    trace = record_trace(workload, SCALES[args.scale])
    save_trace(trace, args.output)
    print(f"recorded {trace.total_ops()} memory ops across "
          f"{len(trace.kernels)} kernels -> {args.output}")
    return 0


def cmd_trace_run(args: argparse.Namespace) -> int:
    """Simulate one workload under the tracer; write its Chrome trace."""
    from repro.core.builder import run_workload_traced
    from repro.obs import Tracer
    from repro.obs.chrome import tracer_to_chrome, write_chrome_trace

    tracer = Tracer()
    workload = get_workload(args.workload)
    result, system = run_workload_traced(
        scaled_config(n_sockets=args.sockets), workload, SCALES[args.scale],
        record_timelines=True,
        tracer=tracer, metrics_interval=args.metrics_interval,
    )
    payload = tracer_to_chrome(
        tracer, registry=system.metrics,
        link_timelines=result.link_timelines,
        label=f"{args.workload}@{args.scale}",
    )
    write_chrome_trace(payload, args.output)
    print(f"{len(tracer.kernel_spans)} kernel spans, "
          f"{len(tracer.read_spans)} read spans, "
          f"{len(tracer.write_spans)} write spans, "
          f"{len(tracer.fabric_sends)} fabric sends "
          f"-> {args.output}")
    return 0


def cmd_trace_study(args: argparse.Namespace) -> int:
    """Convert study-record harness telemetry into a wall-clock trace."""
    import json

    from repro.obs.chrome import study_to_chrome, write_chrome_trace

    with open(args.input) as handle:
        data = json.load(handle)
    telemetry = (
        data.get("telemetry")
        if isinstance(data, dict) and "telemetry" in data
        else data
    )
    if not isinstance(telemetry, dict) or "workers" not in telemetry:
        print(
            f"error: {args.input} carries no harness telemetry (expected "
            "a run_experiments.py output or failure report with a "
            "'telemetry' key, or a bare telemetry object)",
            file=sys.stderr,
        )
        return 2
    payload = study_to_chrome(telemetry)
    write_chrome_trace(payload, args.output)
    n_tasks = sum(
        len(record.get("tasks", ()))
        for record in telemetry["workers"].values()
    )
    print(f"{n_tasks} task spans across {len(telemetry['workers'])} "
          f"workers -> {args.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        return cmd_run(args)
    if args.command == "topology":
        return cmd_topology_describe(args)
    if args.command == "experiment":
        return cmd_experiment(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "lint":
        return run_lint(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
