"""The benchmark's command line: runs one leg and prints its metrics.

Imported by ``run.py`` once ``src`` is on ``sys.path``; see there and
``README.md`` for usage.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import legs
from checks import DigestBook, load_reference, store_reference
from speed import REFERENCE_SECONDS, UNSCALED, Speed
from measure import (Outcome, StudyShape, closed_loop, modelled,
                     run_sim_pass, run_study_iteration, study_jobs)
from tracing import Recorder, layer_profile, median, profiled, ratio, tail

ENTRY = Path(__file__).resolve().parent / "run.py"
ROOT = ENTRY.parent.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = legs.SIM_LEGS + (legs.STUDY_LEG,)

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("cell_s.p50", "s"),
    ("cell_s.tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("study_cold_s", "s"),
    ("study_warm_s", "s"),
)

PER_LAYER = (
    ("workloads.trace_s", "s"), ("workloads.ops", "count"),
    ("core.build_s", "s"), ("core.self_share", "ratio"),
    ("sim.drain_s", "s"), ("sim.events", "count"),
    ("sim.events_per_op", "1/op"), ("sim.cycles", "cycles"),
    ("sim.self_share", "ratio"), ("sim.calls_per_op", "1/op"),
    ("gpu.self_share", "ratio"), ("gpu.calls_per_op", "1/op"),
    ("gpu.l1_hit_rate", "ratio"), ("gpu.remote_fraction", "ratio"),
    ("memory.self_share", "ratio"), ("memory.calls_per_op", "1/op"),
    ("memory.l2_hit_rate", "ratio"), ("memory.dram_bytes_per_op", "B/op"),
    ("interconnect.self_share", "ratio"),
    ("interconnect.calls_per_op", "1/op"),
    ("interconnect.bytes_per_op", "B/op"),
    ("interconnect.lane_turns", "count"),
    ("topology.self_share", "ratio"), ("topology.calls_per_op", "1/op"),
    ("topology.mean_hops", "hops"),
    ("locality.self_share", "ratio"), ("locality.calls_per_op", "1/op"),
    ("locality.migrations", "count"), ("locality.re_homed_pages", "count"),
    ("runtime.self_share", "ratio"),
    ("obs.self_share", "ratio"), ("obs.calls_per_op", "1/op"),
    ("metrics.export_s", "s"),
    ("harness.plan_s", "s"), ("harness.prewarm_s", "s"),
    ("harness.worker_busy_frac", "ratio"),
    ("harness.cache_put_s", "s"), ("harness.cache_get_s", "s"),
    ("harness.cache_hit_rate", "ratio"), ("harness.reduce_s", "s"),
    ("harness.retries", "count"),
    ("fail_rate", "ratio"),
    ("trace_overhead_ratio", "ratio"),
)

#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_SAMPLES = 7
#: Warm re-runs of the study after each cold sweep (one is ~50 ms).
WARM_REPS = 20
#: Layers whose self-time share the cProfile pass reports.
SHARE_LAYERS = ("workloads", "core", "sim", "gpu", "memory", "interconnect",
                "topology", "locality", "runtime", "obs")
#: Layers whose calls per simulated op the cProfile pass reports.
CALL_LAYERS = ("sim", "gpu", "memory", "interconnect", "topology",
               "locality", "obs")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up the workload and exit (times setup_s)")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's cell digests as reference")
    return parser.parse_args(argv)


class Leg:
    """One workload, set up and ready for its first timed cell."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.book = DigestBook(load_reference(workload, seed))
        self.outcome = Outcome()
        self.speed = Speed()
        if workload == legs.STUDY_LEG:
            self.names = legs.study_workloads(seed)
            self.shape = StudyShape(legs.STUDY_SCALE)
            self.jobs = study_jobs()
        else:
            self.groups = legs.sim_cells(workload, seed)
            self.scale = legs.SIM_SCALE

    def sim_pass(self, rec: Recorder, index: int | str, scaled: bool = True):
        """One pass over the sim leg's cells (host times scaled to the
        reference host unless ``scaled`` is false)."""
        tag = f"{'t' if rec.keep else 'p'}{index}"
        return run_sim_pass(self.groups, self.scale, rec, self.book,
                            self.outcome, tag,
                            self.speed if scaled else UNSCALED)

    def study_iteration(self, rec: Recorder, index: int | str, jobs: int = 0,
                        warm_reps: int = WARM_REPS, scaled: bool = True):
        """One cold study sweep and its warm re-runs: ``(cold, warms)``."""
        return run_study_iteration(
            self.names, self.shape, jobs or self.jobs, rec, self.book,
            self.outcome, OUT / "tmp", warm_reps, str(index),
            self.speed if scaled else UNSCALED)


# ---------------------------------------------------------------------------
# sim legs
# ---------------------------------------------------------------------------
def sim_end_to_end(leg: Leg, seconds: float) -> tuple[dict, list[str]]:
    passes = closed_loop(leg.sim_pass, [Recorder()], seconds, 2)
    cells = [s for p in passes for s in p.cell_seconds]
    pct, tail_value = tail(cells)
    metrics = {
        "ops_per_s": median([ratio(p.ops, p.seconds) for p in passes]),
        "cell_s.p50": median(cells),
        "cell_s.tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "study_cold_s": median([p.seconds for p in passes]),
        "study_warm_s": median([
            p.seconds - p.spans.get("workloads.record_trace", 0.0)
            for p in passes]),
    }
    notes = [
        f"cell_s.tail is p{pct} of {len(cells)} cells",
        f"{len(passes)} passes of {len(passes[0].cell_seconds)} cells; "
        f"workloads.ops {passes[0].ops} per pass",
        "study_cold_s is the median pass, study_warm_s the median pass "
        "without trace materialization",
    ]
    return metrics, notes


def sim_per_layer(leg: Leg, seconds: float) -> tuple[dict, list[str]]:
    # Untraced and traced passes alternate; the profiled pass, about two
    # passes long, comes out of the same time budget.
    rec = Recorder(keep=True)
    passes = closed_loop(leg.sim_pass, [Recorder(), rec], seconds, 2,
                         reserve_runs=2)
    plain, traced = passes[0::2], passes[1::2]
    profile, profiled_pass = profiled(
        lambda: leg.sim_pass(Recorder(), "prof", scaled=False))
    first = traced[0]

    def rate(passes):
        return median([ratio(p.ops, p.seconds) for p in passes])

    def span_median(name):
        return median([p.spans.get(name, 0.0) for p in traced])

    metrics = {
        "workloads.trace_s": span_median("workloads.record_trace"),
        "workloads.ops": first.ops,
        "core.build_s": span_median("core.build_system"),
        "sim.drain_s": median([p.drain_seconds for p in traced]),
        "sim.events": first.events,
        "sim.events_per_op": ratio(first.events, first.ops),
        "metrics.export_s": span_median("metrics.export"),
        "trace_overhead_ratio": ratio(rate(traced), rate(plain)),
    }
    metrics.update(modelled(first.results, first.ops))
    metrics.update(_profile_metrics(layer_profile(profile),
                                    profiled_pass.ops))
    path = OUT / f"{leg.workload}-seed{leg.seed}.trace.json"
    rec.write_chrome(path)
    notes = [f"{len(plain)} untraced, {len(traced)} traced and 1 profiled "
             f"pass; spans written to {path.relative_to(ROOT)}"]
    return metrics, notes


def _profile_metrics(layers: dict, ops: int) -> dict:
    metrics = {f"{name}.self_share": layers[name]["self_share"]
               for name in SHARE_LAYERS}
    metrics.update({f"{name}.calls_per_op": ratio(layers[name]["calls"], ops)
                    for name in CALL_LAYERS})
    return metrics


# ---------------------------------------------------------------------------
# study leg
# ---------------------------------------------------------------------------
def study_end_to_end(leg: Leg, seconds: float) -> tuple[dict, list[str]]:
    iterations = closed_loop(leg.study_iteration, [Recorder()], seconds, 1)
    colds = [cold for cold, _ in iterations]
    warms = [warm for _, reps in iterations for warm in reps]
    cells = [t_end - t_start for c in colds for t_start, t_end, _, _ in c.tasks]
    pct, tail_value = tail(cells)
    usage = resource.getrusage
    rss = (usage(resource.RUSAGE_SELF).ru_maxrss
           + leg.jobs * usage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    metrics = {
        "ops_per_s": median([ratio(c.ops, c.seconds)
                              for c in colds]),
        "cell_s.p50": median(cells),
        "cell_s.tail": tail_value,
        "peak_rss_mb": rss,
        "study_cold_s": median([c.seconds for c in colds]),
        "study_warm_s": median([w.seconds for w in warms]),
    }
    notes = [
        f"cell_s.tail is p{pct} of {len(cells)} cells",
        f"workloads {', '.join(leg.names)}; {len(colds)} cold sweeps of "
        f"{len(colds[0].tasks)} cells, {len(warms)} warm sweeps; "
        f"{leg.jobs} workers; workloads.ops {colds[0].ops} "
        "per cold sweep",
        "peak_rss_mb adds the largest worker's peak once per worker",
    ]
    return metrics, notes


def study_per_layer(leg: Leg, seconds: float) -> tuple[dict, list[str]]:
    rec = Recorder(keep=True)
    iterations = closed_loop(leg.study_iteration, [Recorder(), rec], seconds,
                             2, reserve_runs=4)
    plain = [cold for cold, _ in iterations[0::2]]
    colds = [cold for cold, _ in iterations[1::2]]
    warms = [warm for _, reps in iterations[1::2] for warm in reps]
    # The profiled sweep runs serially, in this process, so the profile
    # sees every layer and its call counts do not depend on scheduling.
    profile, (serial, _) = profiled(
        lambda: leg.study_iteration(Recorder(), "prof", jobs=1, warm_reps=1,
                                    scaled=False))
    first = colds[0]
    ops = first.ops

    def rate(sweeps):
        return median([ratio(c.ops, c.seconds) for c in sweeps])

    def span_median(sweeps, name):
        return median([s.spans.get(name, 0.0) for s in sweeps])

    warm_lookups = sum(w.cache["hits"] + w.cache["misses"] for w in warms)
    metrics = {
        # Worker time outside the engine drain: trace materialization,
        # system build and result collection, which the pool runs as one
        # call per cell.
        "workloads.trace_s": median(
            [sum(end - start - drain for start, end, drain, _ in c.tasks)
             for c in colds]),
        "workloads.ops": ops,
        "sim.drain_s": median(
            [sum(t[2] for t in c.tasks) for c in colds]),
        "sim.events": first.events,
        "sim.events_per_op": ratio(first.events, ops),
        "harness.plan_s": span_median(colds, "harness.capture_plan"),
        "harness.prewarm_s": span_median(colds, "harness.prewarm"),
        "harness.worker_busy_frac": median([
            ratio(sum(end - start for start, end, _, _ in c.tasks),
                  c.workers * c.spans.get("harness.prewarm", 0.0))
            for c in colds]),
        "harness.cache_put_s": span_median(colds, "harness.cache_put"),
        "harness.cache_get_s": span_median(warms, "harness.cache_get"),
        "harness.cache_hit_rate": ratio(sum(w.cache["hits"] for w in warms),
                                        warm_lookups),
        "harness.reduce_s": span_median(colds, "harness.reduce"),
        "harness.retries": sum(c.retries for c in plain + colds + warms
                               + [serial]),
        "trace_overhead_ratio": ratio(rate(colds), rate(plain)),
    }
    metrics.update(modelled(first.results, ops))
    metrics.update(_profile_metrics(layer_profile(profile),
                                    serial.ops))
    path = OUT / f"{leg.workload}-seed{leg.seed}.trace.json"
    rec.write_chrome(path)
    warm_trace = sum(end - start - drain for w in warms
                     for start, end, drain, _ in w.tasks)
    notes = [
        f"warm sweeps: workloads.trace_s {warm_trace} s over "
        f"{sum(len(w.tasks) for w in warms)} simulated cells",
        f"{len(plain)} untraced, {len(colds)} traced and 1 profiled (serial) "
        f"cold sweeps; spans written to {path.relative_to(ROOT)}",
        "layer shares of the study cover the profiled serial sweep",
    ]
    return metrics, notes


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------
def setup_seconds(args: argparse.Namespace, speed: Speed) -> float:
    """Median wall-clock of fresh interpreters that only set up the leg,
    scaled to the reference host."""
    samples = []
    speed.probe()
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        subprocess.run(
            [sys.executable, str(ENTRY),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append((time.monotonic() - start) * speed.factor())
    return statistics.median(samples)


def main(argv: list[str], started: float) -> int:
    """Run one workload; ``started`` is the process's start time."""
    args = parse_args(argv)
    leg = Leg(args.workload, args.seed)
    if args.setup_only:
        return 0
    own_setup = time.monotonic() - started
    study = args.workload == "study"
    if args.trace:
        run_leg = study_per_layer if study else sim_per_layer
    else:
        run_leg = study_end_to_end if study else sim_end_to_end
    metrics, notes = run_leg(leg, args.seconds)
    outcome = leg.outcome
    if args.trace:
        metrics["fail_rate"] = ratio(outcome.failed, outcome.attempted)
        names = PER_LAYER
    else:
        metrics["setup_s"] = setup_seconds(args, leg.speed)
        names = END_TO_END
    if args.record_reference and outcome.failed == 0:

        store_reference(args.workload, args.seed, leg.book.seen)

    print(f"perfbench {args.workload} seed {args.seed} "
          f"({'traced, per-layer' if args.trace else 'untraced, end-to-end'})")
    print(f"  setup in this process: {own_setup:.3f} s")
    for note in notes:
        print(f"  {note}")
    speeds = leg.speed.samples
    print(f"  host speed probe: median {median(speeds) * 1e3:.2f} ms over "
          f"{len(speeds)} samples (min {min(speeds) * 1e3:.2f}, max "
          f"{max(speeds) * 1e3:.2f}); host times are scaled to the "
          f"{REFERENCE_SECONDS * 1e3:g} ms reference")
    table = {name: {"value": metrics.get(name, 0), "unit": unit}
             for name, unit in names}
    for name, entry in table.items():
        print(f"  {name:28s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  cells attempted {outcome.attempted}, failed {outcome.failed}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": table,
    }))
    return 0 if outcome.failed == 0 else 1
