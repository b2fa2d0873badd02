"""Tests of the benchmark itself (run: PYTHONPATH=src pytest perfbench/tests).

They run the benchmark's own measurement code at a micro trace scale, so
they finish in seconds; the benchmark proper runs ``small``/``tiny``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bench  # noqa: E402
import checks  # noqa: E402
import legs  # noqa: E402
import measure  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from repro.workloads.spec import WorkloadScale  # noqa: E402
from repro.workloads.suite import TOPOLOGY_SET  # noqa: E402
from repro.workloads.trace import record_trace  # noqa: E402

MICRO = WorkloadScale(name="micro", cta_cap=24, footprint_lines=2048,
                      ops_scale=0.25)


def _pass(leg: str, seed: int, rec=None, book=None):
    outcome = measure.Outcome()
    record = measure.run_sim_pass(
        legs.sim_cells(leg, seed), MICRO, rec or tracing.Recorder(),
        book or checks.DigestBook(), outcome, "test")
    return record, outcome


def _deterministic_counts(leg: str, seed: int) -> dict:
    """Everything the benchmark promises repeats exactly for a seed."""
    groups = legs.sim_cells(leg, seed)
    book = checks.DigestBook()
    outcome = measure.Outcome()
    measure.run_sim_pass(groups, MICRO, tracing.Recorder(), book, outcome,
                         "warm")
    profile, record = tracing.profiled(lambda: measure.run_sim_pass(
        groups, MICRO, tracing.Recorder(), book, outcome, "prof"))
    assert outcome.failed == 0, outcome.problems
    layers = tracing.layer_profile(profile)
    counts = {f"{name}.calls": layers[name]["calls"] for name in tracing.LAYERS}
    counts.update(measure.modelled(record.results, record.ops))
    counts.update({"sim.events": record.events, "workloads.ops": record.ops})
    return counts


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == list(bench.END_TO_END))
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == list(bench.PER_LAYER))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_study_workloads_are_a_seeded_choice_from_topology_set():
    chosen = {legs.study_workloads(seed) for seed in range(20)}
    assert len(chosen) == 2
    for names in chosen:
        assert len(set(names)) == 3 and set(names) <= set(TOPOLOGY_SET)
    assert legs.study_workloads(3) == legs.study_workloads(3)


def test_working_set_ratios_match_the_rationale():
    assert legs.l2_ratio("crossbar4") == 3.0
    assert legs.l2_ratio("ring8") == 1.5
    assert legs.l2_ratio("single-gpu") == 12.0


def test_deterministic_counts_repeat_for_a_seed_and_differ_for_another():
    first = _deterministic_counts("ring8", 1)
    assert _deterministic_counts("ring8", 1) == first
    other = _deterministic_counts("ring8", 2)
    assert other["workloads.ops"] == first["workloads.ops"]
    assert other["sim.events"] != first["sim.events"]
    assert other["sim.cycles"] != first["sim.cycles"]


def test_every_cell_passes_its_checks_on_every_sim_leg():
    for leg in legs.SIM_LEGS:
        record, outcome = _pass(leg, 5)
        assert outcome.failed == 0, outcome.problems
        assert outcome.attempted == len(record.results) > 0


def test_corrupted_result_trips_the_check():
    record, _ = _pass("ring8", 1)
    result = record.results[0]
    groups = legs.sim_cells("ring8", 1)
    trace = record_trace(groups[0][0].workload, MICRO)
    ctas = sum(k.n_ctas for k in trace.kernels)
    kernels = len(trace.kernels)
    assert checks.check_result(result, ctas, kernels) == []

    lost_cta = dataclasses.replace(result, sockets=[
        dataclasses.replace(result.sockets[0],
                            ctas_completed=result.sockets[0].ctas_completed - 1),
        *result.sockets[1:]])
    assert checks.check_result(lost_cta, ctas, kernels)
    assert checks.check_result(
        dataclasses.replace(result, kernels=kernels + 1), ctas, kernels)
    lost_bytes = dataclasses.replace(result, sockets=[
        dataclasses.replace(result.sockets[0],
                            egress_bytes=result.sockets[0].egress_bytes + 128),
        *result.sockets[1:]])
    assert checks.check_result(lost_bytes, ctas, kernels)
    extra_hop = dict(result.hop_histogram)
    extra_hop[1] = extra_hop.get(1, 0) + 1
    assert checks.check_result(
        dataclasses.replace(result, hop_histogram=extra_hop), ctas, kernels)


def test_digest_book_flags_pass_and_reference_mismatches():
    book = checks.DigestBook({"a|x": "1" * 64})
    assert book.check("a|x", "1" * 64) == []
    assert book.check("a|x", "2" * 64)
    assert book.check("b|y", "3" * 64) == []
    assert book.check("b|y", "4" * 64)


def test_a_corrupted_cell_counts_as_failed():
    record, _ = _pass("single-gpu", 1)
    reference = {cell: "0" * 64 for cell in record.digests}
    _, outcome = _pass("single-gpu", 1, book=checks.DigestBook(reference))
    assert outcome.failed == outcome.attempted == len(reference)


def test_traced_and_untraced_results_are_identical():
    plain, _ = _pass("crossbar4", 3)
    rec = tracing.Recorder(keep=True)
    traced, outcome = _pass("crossbar4", 3, rec=rec,
                            book=checks.DigestBook(plain.digests))
    assert outcome.failed == 0, outcome.problems
    assert traced.digests == plain.digests
    names = {span["name"] for span in rec.spans}
    assert {"cell", "workloads.record_trace", "core.build_system",
            "gpu.NumaGpuSystem.run", "metrics.export"} <= names
    parents = {span["id"]: span for span in rec.spans}
    for span in rec.spans:
        if span["name"] != "cell":
            assert parents[span["parent"]]["name"] == "cell"


def test_each_cell_is_scaled_by_the_speed_probes_around_it():
    groups = legs.sim_cells("single-gpu", 1)
    probe = speed.Speed()
    record = measure.run_sim_pass(groups, MICRO, tracing.Recorder(),
                                  checks.DigestBook(), measure.Outcome(),
                                  "test", probe)
    samples = probe.samples
    assert len(samples) == len(record.cell_seconds) + 1
    factors = [2 * speed.REFERENCE_SECONDS / (a + b)
               for a, b in zip(samples, samples[1:])]
    assert min(factors) <= record.factor <= max(factors)
    # The cell spans, scaled by the pass factor, add up to the cells.
    assert abs(record.spans["cell"] - record.seconds) < 1e-9
    assert record.drain_seconds < record.seconds
    unscaled = measure.run_sim_pass(groups, MICRO, tracing.Recorder(),
                                    checks.DigestBook(), measure.Outcome(),
                                    "test")
    assert unscaled.factor == 1.0


def test_sim_legs_stay_in_one_process():
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    _pass("ring8", 1)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (after.ru_utime, after.ru_stime) == (before.ru_utime,
                                                before.ru_stime)
    assert threading.active_count() == 1


def test_study_stays_within_the_core_budget_and_warm_sweeps_simulate_nothing(
        tmp_path):
    jobs = measure.study_jobs()
    assert 1 <= jobs <= min(2, len(os.sched_getaffinity(0)))
    outcome = measure.Outcome()
    cold, warm = measure.run_study_iteration(
        legs.study_workloads(1), measure.StudyShape(MICRO), jobs,
        tracing.Recorder(keep=True), checks.DigestBook(), outcome, tmp_path,
        2, "test")
    assert outcome.failed == 0, outcome.problems
    assert len(cold.tasks) == len(cold.results) == 30
    assert 1 <= cold.workers <= jobs
    assert cold.cache["misses"] == 30 and cold.cache["entries"] == 30
    assert cold.ops == sum(measure.StudyShape(MICRO).size(r.workload)[0]
                           for r in cold.results)
    for sweep in warm:
        assert sweep.tasks == [] and sweep.results == []
        assert sweep.ops == cold.ops
        assert sweep.cache["hits"] == 30 and sweep.cache["misses"] == 0
        assert "harness.cache_get" in sweep.spans
    assert list(tmp_path.iterdir()) == []


def test_tail_percentile_leaves_ten_samples_beyond():
    values = [float(i) for i in range(1, 41)]
    pct, value = tracing.tail(values)
    assert pct == 75 and value == 30.0
    assert sum(v > value for v in values) >= 10
    assert tracing.tail([1.0, 2.0, 3.0]) == (100, 3.0)
    assert tracing.tail([float(i) for i in range(20)]) == (100, 19.0)


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crossbar4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 2
    assert done.stdout == ""


def test_command_prints_every_declared_metric_in_both_modes():
    for trace, declared in (("0", bench.END_TO_END), ("1", bench.PER_LAYER)):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "single-gpu",
             "--seed", "2", "--seconds", "0", "--trace", trace],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert ([(name, m["unit"]) for name, m in result["metrics"].items()]
                == list(declared))
