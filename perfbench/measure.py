"""Closed-loop measurement of one benchmark leg.

Sim legs run their cells back to back in one process, one client, in
whole *passes* (every cell once, workload-major, so each workload's
trace is materialized once per pass, as the library's own trace memo
does). The ``study`` leg runs a cold locality sweep through the
supervised worker pool into a fresh disk cache, then warm re-runs over
the same cache, and repeats.

Every program call is timed from outside by a span; the modelled
counters come from the objects the program already exposes
(``RunResult``, ``SIM_TALLY``, ``FailureReport.telemetry``,
``ResultDiskCache.stats()``). A speed probe runs between cells (sim
legs) or sweeps (study), and every reported host time is scaled to the
reference host by the probes around it (see ``speed.py``); Chrome-trace
spans keep the raw clock.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.builder import build_system
from repro.harness.diskcache import ResultDiskCache
from repro.harness.parallel import ParallelRunner, capture_plan
from repro.harness.runner import ExperimentContext
from repro.metrics.export import result_to_json_dict
from repro.metrics.report import RunResult
from repro.sim.instrumentation import SIM_TALLY
from repro.workloads.spec import WorkloadScale
from repro.workloads.suite import get_workload
from repro.workloads.trace import record_trace

from checks import DigestBook, check_result, digest, export_text
from legs import Cell, study_driver
from speed import UNSCALED, Speed
from tracing import Recorder, ratio


@dataclass
class Outcome:
    """Cells attempted and failed, with one line per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, cell_id: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for error in errors:
                line = f"FAILED {cell_id}: {error}"
                self.problems.append(line)
                print(line, file=sys.stderr)


def _guarded(call):
    """Run ``call``; return ``(value, [])`` or ``(None, [traceback])``."""
    try:
        return call(), []
    except Exception:  # a failing cell is counted, the run goes on
        return None, [traceback.format_exc().strip().replace("\n", " | ")]


# ---------------------------------------------------------------------------
# sim legs
# ---------------------------------------------------------------------------
@dataclass
class SimPass:
    """One pass over a sim leg's cells; host times at the reference speed."""

    cell_seconds: list[float]
    ops: int
    events: int
    drain_seconds: float
    results: list[RunResult]
    digests: dict[str, str]
    #: seconds per span name within the pass.
    spans: dict[str, float]
    #: reference-host seconds per host second over the pass's cells.
    factor: float = 1.0

    @property
    def seconds(self) -> float:
        """Program time of the pass: trace + build + drain + export."""
        return sum(self.cell_seconds)


def run_sim_pass(groups: list[list[Cell]], scale: WorkloadScale,
                 rec: Recorder, book: DigestBook, outcome: Outcome,
                 tag: str, speed: Speed = UNSCALED) -> SimPass:
    """Run every cell once; time, check and digest each.

    Each cell is scaled by the speed probes on either side of it; the
    drain time and spans by the pass's time-weighted factor.
    """
    rec.reset()
    record = SimPass([], 0, 0, 0.0, [], {}, {})
    host_seconds = 0.0
    speed.probe()
    for group in groups:
        trace = None
        for cell in group:
            cell_tag = f"{cell.id}#{tag}"

            def run_cell():
                nonlocal trace
                with rec.span("cell", cell_tag) as span:
                    if trace is None:
                        with rec.span("workloads.record_trace", cell_tag):
                            trace = record_trace(cell.workload, scale)
                    with rec.span("core.build_system", cell_tag):
                        system = build_system(cell.config)
                    events, drain = SIM_TALLY.events, SIM_TALLY.wall_seconds
                    with rec.span("gpu.NumaGpuSystem.run", cell_tag):
                        result = system.run(trace.build_kernels(),
                                            workload_name=cell.workload.name)
                    with rec.span("metrics.export", cell_tag):
                        text = export_text(result_to_json_dict(result))
                record.events += SIM_TALLY.events - events
                record.drain_seconds += SIM_TALLY.wall_seconds - drain
                return result, text, span["end"] - span["start"]

            value, errors = _guarded(run_cell)
            factor = speed.factor()
            if value is not None:
                result, text, seconds = value
                host_seconds += seconds
                record.cell_seconds.append(seconds * factor)
                record.ops += trace.total_ops()
                record.results.append(result)
                record.digests[cell.id] = digest(text)
                errors = check_result(
                    result,
                    ctas=sum(k.n_ctas for k in trace.kernels),
                    kernels=len(trace.kernels),
                ) + book.check(cell.id, record.digests[cell.id])
            outcome.record(cell_tag, errors)
    record.factor = ratio(record.seconds, host_seconds) or 1.0
    record.drain_seconds *= record.factor
    record.spans = {k: v * record.factor for k, v in rec.totals.items()}
    return record


def closed_loop(run_once, recorders: list[Recorder], seconds: float,
                min_runs: int, reserve_runs: float = 0) -> list:
    """Call ``run_once(rec, i)`` back to back until ``seconds`` have gone by.

    Run ``i`` records into ``recorders[i % len(recorders)]``, so a traced
    and an untraced recorder alternate run by run. The loop stops early
    enough to leave ``reserve_runs`` times the first run's wall-clock of
    the budget for later work.
    """
    runs: list = []
    start = time.monotonic()
    budget = seconds
    while len(runs) < min_runs or time.monotonic() - start < budget:
        if len(runs) == 1:
            budget = seconds - reserve_runs * (time.monotonic() - start)
        runs.append(run_once(recorders[len(runs) % len(recorders)],
                             len(runs)))
    return runs


def modelled(results: list[RunResult], ops: int) -> dict[str, float]:
    """Deterministic modelled counters of one pass's results."""
    sockets = [s for r in results for s in r.sockets]
    l1_hits = sum(s.l1_hits for s in sockets)
    l2_hits = sum(s.l2_hits for s in sockets)
    remote = sum(s.remote_accesses for s in sockets)
    packets = sum(n for r in results for n in r.hop_histogram.values())
    hops = sum(h * n for r in results for h, n in r.hop_histogram.items())
    return {
        "sim.cycles": sum(r.cycles for r in results),
        "gpu.l1_hit_rate": ratio(
            l1_hits, l1_hits + sum(s.l1_misses for s in sockets)),
        "gpu.remote_fraction": ratio(
            remote, remote + sum(s.local_accesses for s in sockets)),
        "memory.l2_hit_rate": ratio(
            l2_hits, l2_hits + sum(s.l2_misses for s in sockets)),
        "memory.dram_bytes_per_op": ratio(
            sum(s.dram_bytes for s in sockets), ops),
        "interconnect.bytes_per_op": ratio(
            sum(r.switch_bytes for r in results), ops),
        "interconnect.lane_turns": sum(r.total_lane_turns for r in results),
        "topology.mean_hops": ratio(hops, packets),
        "locality.migrations": sum(r.migrations for r in results),
        "locality.re_homed_pages": sum(r.re_homed_pages for r in results),
    }


# ---------------------------------------------------------------------------
# study leg
# ---------------------------------------------------------------------------
class TimedDiskCache(ResultDiskCache):
    """The result disk cache with each ``get``/``put`` call timed."""

    def __init__(self, root: Path, rec: Recorder) -> None:
        super().__init__(root)
        self.rec = rec

    def get(self, workload, scale_name, record_timelines, config):
        with self.rec.span("harness.cache_get", workload):
            return super().get(workload, scale_name, record_timelines, config)

    def put(self, workload, scale_name, record_timelines, config, result):
        with self.rec.span("harness.cache_put", workload):
            return super().put(workload, scale_name, record_timelines,
                               config, result)


@dataclass
class StudyPass:
    """One study sweep, cold (empty cache) or warm (same cache again)."""

    seconds: float
    spans: dict[str, float]
    #: per-task ``(t_start, t_end, engine drain seconds, task key)``.
    tasks: list[tuple[float, float, float, str]]
    #: worker processes (or the serial runner) that executed tasks.
    workers: int
    events: int
    retries: int
    cache: dict
    #: simulated memory ops of the sweep's cells.
    ops: int
    #: the cells' results (kept for cold sweeps only).
    results: list[RunResult]

    def scaled(self, factor: float) -> "StudyPass":
        """The sweep with every host time scaled by ``factor``."""
        return replace(
            self, seconds=self.seconds * factor,
            spans={k: v * factor for k, v in self.spans.items()},
            tasks=[(start * factor, end * factor, drain * factor, key)
                   for start, end, drain, key in self.tasks])


class StudyShape:
    """Per-workload trace sizes of the study (computed once, untimed)."""

    def __init__(self, scale: WorkloadScale) -> None:
        self.scale = scale
        self._sizes: dict[str, tuple[int, int, int]] = {}

    def size(self, name: str) -> tuple[int, int, int]:
        """``(ops, ctas, kernels)`` of one workload's trace."""
        if name not in self._sizes:
            trace = record_trace(get_workload(name), self.scale)
            self._sizes[name] = (trace.total_ops(),
                                 sum(k.n_ctas for k in trace.kernels),
                                 len(trace.kernels))
        return self._sizes[name]


def run_study_pass(names, shape: StudyShape, jobs: int, rec: Recorder,
                   book: DigestBook, outcome: Outcome, cache_dir: Path,
                   tag: str, keep_results: bool) -> StudyPass:
    """One sweep: capture the plan, prewarm it into the cache, reduce."""
    driver = study_driver(names)
    cache = (TimedDiskCache(cache_dir, rec) if rec.keep
             else ResultDiskCache(cache_dir))
    ctx = ExperimentContext(scale=shape.scale, disk_cache=cache)
    runner = ParallelRunner(ctx, jobs=jobs)
    rec.reset()

    def sweep():
        with rec.span("study", tag) as span:
            with rec.span("harness.capture_plan", tag):
                plan = capture_plan(ctx, [driver])
            with rec.span("harness.prewarm", tag):
                runner.prewarm(plan)
            with rec.span("harness.reduce", tag):
                reduced = driver(ctx).render()
        return span["end"] - span["start"], plan, reduced

    value, errors = _guarded(sweep)
    if value is None:
        outcome.record(f"study#{tag}", errors)
        return StudyPass(0.0, dict(rec.totals), [], 0, 0, 0,
                         cache.stats(), 0, [])
    seconds, plan, reduced = value
    report = runner.report
    tasks = []
    workers = sorted(report.telemetry["workers"].items())
    for tid, (_, worker) in enumerate(workers, start=2):
        for task in worker["tasks"]:
            tasks.append((task["t_start"], task["t_end"],
                          task["wall_seconds"], task["key"]))
            rec.add("harness.task", task["t_start"], task["t_end"],
                    cell=task["key"], tid=tid)
    results = []
    ops = 0
    for task in plan:
        if not ctx.is_cached(ctx.cache_key(task.workload, task.config)):
            outcome.record(f"{task.workload}#{tag}",
                           ["task failed in the worker pool"])
            continue
        result = ctx.run(task.workload, task.config)
        results.append(result)
        cell_ops, ctas, kernels = shape.size(task.workload)
        ops += cell_ops
        cell_id = f"{task.workload}|{result.config_label}"
        outcome.record(f"{cell_id}#{tag}", check_result(result, ctas, kernels)
                       + book.check(cell_id, digest(export_text(
                           result_to_json_dict(result)))))
    outcome.record(f"reduction#{tag}", book.check("reduction", digest(reduced)))
    return StudyPass(
        seconds=seconds,
        spans=dict(rec.totals),
        tasks=tasks,
        workers=len(workers),
        events=report.telemetry["totals"]["events"],
        retries=sum(1 for t in report.tasks if len(t.attempts) > 1),
        cache=cache.stats(),
        ops=ops,
        # Holding every warm sweep's results would grow the heap, and the
        # garbage collector's work with it, sweep by sweep.
        results=results if keep_results else [],
    )


def run_study_iteration(names, shape, jobs, rec, book, outcome,
                        tmp_root: Path, warm_reps: int, tag: str,
                        speed: Speed = UNSCALED
                        ) -> tuple[StudyPass, list[StudyPass]]:
    """A cold sweep into a fresh cache, then ``warm_reps`` warm sweeps.

    Each sweep is scaled by the speed probes on either side of it.
    """
    tmp_root.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="study-", dir=tmp_root))
    try:
        speed.probe()
        cold = run_study_pass(names, shape, jobs, rec, book, outcome,
                              cache_dir, f"cold{tag}", keep_results=True)
        cold = cold.scaled(speed.factor())
        warm = []
        for i in range(warm_reps):
            rep = run_study_pass(names, shape, jobs, rec, book, outcome,
                                 cache_dir, f"warm{tag}.{i}",
                                 keep_results=False)
            warm.append(rep.scaled(speed.factor()))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    for rep in warm:
        if rep.tasks:
            outcome.record(f"warm{tag}", [
                f"warm sweep simulated {len(rep.tasks)} cells, expected 0"])
    return cold, warm


def study_jobs() -> int:
    """Worker budget: at most two, and never more than the usable CPUs."""
    return max(1, min(2, len(os.sched_getaffinity(0))))
