"""Unit tests for the parallel runner, plan capture, and disk cache."""

import gc
from multiprocessing import get_start_method

import pytest

from repro.core import builder
from repro.gpu.system import NumaGpuSystem
from repro.harness import experiments as exp
from repro.harness.diskcache import ResultDiskCache
from repro.harness.faults import FAULT_PLAN_ENV
from repro.harness.parallel import (
    JOBS_ENV,
    ParallelRunner,
    PlanningContext,
    RunTask,
    _execute_measured,
    capture_plan,
    make_context,
    resolve_jobs,
)
from repro.harness.runner import ExperimentContext
from repro.harness.supervisor import RetryPolicy, run_supervised, task_key
from repro.metrics.export import (
    result_from_json_dict,
    result_to_json_dict,
    run_to_dict,
)
from repro.workloads.spec import WorkloadScale, WorkloadSpec

#: A minuscule scale so parallel tests run in milliseconds per simulation.
MICRO = WorkloadScale(name="micro", cta_cap=24, footprint_lines=2048,
                      ops_scale=0.25)

SUBSET = ("Lonestar-SP", "Rodinia-Hotspot")


@pytest.fixture()
def ctx():
    return ExperimentContext(sms_per_socket=2, scale=MICRO)


# ---------------------------------------------------------------------------
# jobs resolution
# ---------------------------------------------------------------------------

def test_resolve_jobs_explicit_wins(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "7")
    assert resolve_jobs(3) == 3


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "5")
    assert resolve_jobs(None) == 5


def test_resolve_jobs_default_serial(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)
    assert resolve_jobs(None) == 1


def test_resolve_jobs_zero_means_cpu_count():
    import os

    assert resolve_jobs(0) == (os.cpu_count() or 1)


def test_resolve_jobs_rejects_garbage(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "lots")
    with pytest.raises(ValueError):
        resolve_jobs(None)
    with pytest.raises(ValueError):
        resolve_jobs(-2)


# ---------------------------------------------------------------------------
# plan capture
# ---------------------------------------------------------------------------

def test_capture_plan_enumerates_figure3_grid(ctx):
    plan = capture_plan(ctx, [lambda c: exp.figure3(c, workloads=SUBSET)])
    # 2 workloads x {single, traditional, locality, hypothetical}.
    assert len(plan) == 8
    assert {t.workload for t in plan} == set(SUBSET)
    assert all(isinstance(t, RunTask) for t in plan)
    assert not any(t.record_timelines for t in plan)


def test_capture_plan_deduplicates_shared_baselines(ctx):
    # figure3 and figure10 share the single-GPU baseline per workload.
    plan = capture_plan(ctx, [
        lambda c: exp.figure3(c, workloads=SUBSET),
        lambda c: exp.figure10(c, workloads=SUBSET),
    ])
    keys = {
        ctx.cache_key(t.workload, t.config, t.record_timelines) for t in plan
    }
    assert len(keys) == len(plan)  # no duplicates survive capture


def test_capture_plan_records_timeline_flag(ctx):
    plan = capture_plan(
        ctx, [lambda c: exp.figure5(c, workload="Lonestar-SP", n_windows=4)]
    )
    assert len(plan) == 1
    assert plan[0].record_timelines


def test_planning_context_runs_nothing(ctx):
    planner = PlanningContext.from_context(ctx)
    result = exp.figure3(planner, workloads=SUBSET)
    assert len(planner.tasks) == 8
    # Stub results flow through the driver arithmetic without simulating.
    assert all(r.traditional == 1.0 for r in result.rows)


class ConfigCensus:
    """Counts the config work done while installed.

    ``walks`` maps ``id`` to ``[config, count]`` for every
    ``SystemConfig`` walked without an identity memo (the config is kept
    alive so an id is never reused), ``sub_walks`` names the shared
    sub-tree types walked so, ``builds`` counts ``SystemConfig``
    constructions and ``replaces`` the ``dataclasses.replace`` calls of
    the modules that derive configs.
    """

    def __init__(self, monkeypatch):
        import dataclasses

        from repro import config as config_mod
        from repro.harness import runner as runner_mod
        from repro.topology import spec as spec_mod

        self.walks: dict[int, list] = {}
        self.sub_walks: list[str] = []
        self.builds = 0
        self.replaces = 0
        shared = (config_mod.GpuConfig, config_mod.CacheConfig,
                  config_mod.LinkConfig, config_mod.ControllerConfig,
                  spec_mod.TopologySpec)
        system = config_mod.SystemConfig
        real_canonical = config_mod._canonical
        real_post_init = system.__post_init__
        real_replace = dataclasses.replace

        def canonical(value):
            if config_mod._CANONICAL_MEMO not in getattr(value, "__dict__",
                                                         {}):
                if type(value) is system:
                    self.walks.setdefault(id(value), [value, 0])[1] += 1
                elif type(value) in shared:
                    self.sub_walks.append(type(value).__name__)
            return real_canonical(value)

        def post_init(config):
            self.builds += 1
            real_post_init(config)

        def replace(obj, /, **changes):
            self.replaces += 1
            return real_replace(obj, **changes)

        monkeypatch.setattr(config_mod, "_canonical", canonical)
        monkeypatch.setattr(system, "__post_init__", post_init)
        for module in (dataclasses, config_mod, runner_mod, spec_mod):
            monkeypatch.setattr(module, "replace", replace)

    def reset(self) -> None:
        self.walks.clear()
        self.sub_walks.clear()
        self.builds = self.replaces = 0


def test_warm_sweep_walks_each_config_at_most_once(monkeypatch):
    """Capture, seed, prewarm and reduce a fully cached sweep, twice.

    Every context config is a shared frozen object from a memoized
    builder, so the plan capture and the reduction key the *same*
    objects: the first sweep walks each distinct plan config once and
    nothing else, and a second sweep in a fresh context builds, derives
    and walks no config at all. The contexts use a system size no other
    test builds, so the first sweep's configs are new to this process;
    the scaled base the builders key on is digested up front.
    """
    from repro.config import config_digest
    from repro.harness import runner as runner_mod
    from repro.harness.parallel import _stub_result

    def no_simulation(*args, **kwargs):
        raise AssertionError("a warm sweep must not simulate")

    def context():
        return ExperimentContext(sms_per_socket=3, scale=MICRO)

    config_digest(context().base_config())
    census = ConfigCensus(monkeypatch)
    monkeypatch.setattr(runner_mod, "run_workload_on", no_simulation)
    driver = lambda c: exp.locality_sweep(  # noqa: E731
        c, workloads=SUBSET, kinds=("ring",), socket_counts=(4,))

    def cached_sweep(context):
        plan = capture_plan(context, [driver])
        for task in plan:
            context.seed_cache(task.workload, task.config,
                               task.record_timelines,
                               _stub_result(task.workload, task.config))
        runner = ParallelRunner(context, jobs=1)
        assert runner.prewarm(plan) == 0
        assert runner.skipped == len(plan)
        driver(context)
        return plan

    plan = cached_sweep(context())
    plan_configs = {id(task.config) for task in plan}
    assert set(census.walks) == plan_configs
    assert max(count for _, count in census.walks.values()) == 1
    census.reset()
    again = cached_sweep(context())
    assert [task.config for task in again] == [task.config for task in plan]
    assert {id(task.config) for task in again} == plan_configs
    assert census.walks == {}
    assert census.sub_walks == []
    assert (census.builds, census.replaces) == (0, 0)


def test_builder_memos_hold_a_whole_suite(monkeypatch):
    """``run_all``'s whole plan, captured again in a fresh context,
    builds and walks no config: no builder memo drops an entry partway
    through a suite, whatever earlier captures left in it."""
    from repro.config import BUILDER_MEMO_SIZE
    from repro.workloads.spec import TINY

    first = capture_plan(ExperimentContext(scale=TINY), [exp.run_all])
    configs = {id(task.config) for task in first}
    assert len(configs) < BUILDER_MEMO_SIZE < len(first)
    census = ConfigCensus(monkeypatch)
    second = capture_plan(ExperimentContext(scale=TINY), [exp.run_all])
    assert [task.config for task in second] == [
        task.config for task in first]
    assert {id(task.config) for task in second} == configs
    assert census.walks == {}
    assert census.sub_walks == []
    assert (census.builds, census.replaces) == (0, 0)


# ---------------------------------------------------------------------------
# parallel == serial
# ---------------------------------------------------------------------------

def test_parallel_prewarm_matches_serial_bit_for_bit(ctx):
    drivers = [
        lambda c: exp.figure3(c, workloads=SUBSET),
        lambda c: exp.figure6(c, workloads=SUBSET, sample_times=(1000,)),
    ]
    serial_results = [d(ctx) for d in drivers]

    par_ctx = ExperimentContext(sms_per_socket=2, scale=MICRO)
    runner = ParallelRunner(par_ctx, jobs=2)
    executed = runner.prewarm_experiments(drivers)
    assert executed == par_ctx.cached_runs == ctx.cached_runs
    parallel_results = [d(par_ctx) for d in drivers]
    # No additional simulations ran while computing the figures.
    assert par_ctx.cached_runs == executed

    f3_s, f3_p = serial_results[0], parallel_results[0]
    assert [
        (r.workload, r.traditional, r.locality, r.hypothetical)
        for r in f3_s.rows
    ] == [
        (r.workload, r.traditional, r.locality, r.hypothetical)
        for r in f3_p.rows
    ]
    assert serial_results[1].per_workload == parallel_results[1].per_workload


def test_prewarm_skips_cached_tasks(ctx):
    drivers = [lambda c: exp.figure3(c, workloads=("Lonestar-SP",))]
    runner = ParallelRunner(ctx, jobs=1)
    first = runner.prewarm_experiments(drivers)
    assert first == 4
    second = runner.prewarm_experiments(drivers)
    assert second == 0
    assert runner.skipped == 4


def test_prewarm_serial_path(ctx):
    runner = ParallelRunner(ctx, jobs=1)
    n = runner.prewarm_experiments(
        [lambda c: exp.figure3(c, workloads=("Lonestar-SP",))]
    )
    assert n == 4 and ctx.cached_runs == 4


# ---------------------------------------------------------------------------
# trace-affine dispatch and per-task heap release
# ---------------------------------------------------------------------------

AFFINE_WORKLOADS = ("Lonestar-SP", "Rodinia-Hotspot", "Rodinia-BFS")


def config_major_plan(ctx) -> list[RunTask]:
    """3 workloads x 3 configs, workloads innermost (as sweep drivers ask)."""
    configs = (ctx.config_single_gpu(), ctx.config_locality(),
               ctx.config_combined())
    return [RunTask(w, c) for c in configs for w in AFFINE_WORKLOADS]


def plan_order_reference(plan) -> list:
    ref = ExperimentContext(sms_per_socket=2, scale=MICRO)
    return [ref.run(t.workload, t.config) for t in plan]


def count_trace_builds(monkeypatch, path):
    """Log every trace materialization, in this process and forked workers.

    The memo is cleared first so a trace left by an earlier test cannot
    hide a build.
    """
    original = WorkloadSpec.build_kernels

    def build_kernels(spec, scale):
        with open(path, "a") as log:
            log.write(spec.name + "\n")
        return original(spec, scale)

    monkeypatch.setattr(WorkloadSpec, "build_kernels", build_kernels)
    monkeypatch.setattr(builder, "_last_traces", None)
    return lambda: path.read_text().split() if path.exists() else []


def run_plan(plan, jobs):
    results = {}

    def merge(task, result):
        results[task] = result

    report = run_supervised(plan, MICRO, jobs,
                            RetryPolicy(max_retries=1, base_delay=0.0), merge)
    return report, [results[t] for t in plan]


def test_serial_dispatch_builds_each_trace_once(ctx, monkeypatch, tmp_path):
    plan = config_major_plan(ctx)
    reference = plan_order_reference(plan)
    builds = count_trace_builds(monkeypatch, tmp_path / "builds")
    report, results = run_plan(plan, jobs=1)
    assert report.ok() and report.executed == len(plan)
    assert sorted(builds()) == sorted(AFFINE_WORKLOADS)  # 3, not 9
    assert results == reference
    (tasks,) = [w["tasks"] for w in report.telemetry["workers"].values()]
    assert [t["key"].split("@")[0] for t in tasks] == [
        w for w in AFFINE_WORKLOADS for _ in range(3)
    ]


def test_fault_target_and_report_keep_plan_position(ctx, monkeypatch):
    plan = config_major_plan(ctx)
    # Plan index 1 is dispatched fourth, after Lonestar-SP's three cells.
    monkeypatch.setenv(FAULT_PLAN_ENV, "transient_nth=1")
    report, results = run_plan(plan, jobs=1)
    assert report.ok()
    (faulted,) = report.tasks
    assert faulted.index == 1
    assert faulted.key == task_key(plan[1], MICRO.name)
    assert faulted.workload == plan[1].workload == "Rodinia-Hotspot"
    assert faulted.outcomes() == ["error", "ok"]
    assert results == plan_order_reference(plan)


def test_pool_dispatch_is_workload_major_per_worker(ctx, monkeypatch,
                                                   tmp_path):
    plan = config_major_plan(ctx)
    _, serial = run_plan(plan, jobs=1)
    builds = count_trace_builds(monkeypatch, tmp_path / "builds")
    report, results = run_plan(plan, jobs=2)
    assert report.ok() and report.executed == len(plan)
    assert results == serial
    blocks = 0
    for worker in report.telemetry["workers"].values():
        order = [t["key"].split("@")[0] for t in worker["tasks"]]
        runs = [w for i, w in enumerate(order) if i == 0 or w != order[i - 1]]
        # Each workload is one contiguous run, in plan first-appearance
        # order, so the worker's memo misses once per workload.
        assert runs == [w for w in AFFINE_WORKLOADS if w in runs]
        blocks += len(runs)
    assert blocks <= 2 * len(AFFINE_WORKLOADS)
    if get_start_method() == "fork":  # workers inherit the build counter
        assert len(builds()) == blocks


def test_execute_measured_releases_the_system_heap(ctx):
    def systems():
        return [o for o in gc.get_objects() if isinstance(o, NumaGpuSystem)]

    # Garbage left by earlier tests is not this task's to free.
    before = systems()
    _execute_measured(RunTask("Lonestar-SP", ctx.config_locality()), MICRO)
    leaked = [s for s in systems() if not any(s is b for b in before)]
    assert leaked == []


# ---------------------------------------------------------------------------
# RunResult JSON round-trip
# ---------------------------------------------------------------------------

def test_result_json_round_trip(ctx):
    result = ctx.run("Lonestar-SP", ctx.config_locality(),
                     record_timelines=True)
    clone = result_from_json_dict(result_to_json_dict(result))
    assert clone == result  # dataclass equality covers every field
    assert run_to_dict(clone) == run_to_dict(result)


# ---------------------------------------------------------------------------
# disk cache
# ---------------------------------------------------------------------------

def test_disk_cache_round_trip(tmp_path, ctx):
    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    result = ctx.run("Lonestar-SP", config)
    cache.put("Lonestar-SP", MICRO.name, False, config, result)
    assert len(cache) == 1
    loaded = cache.get("Lonestar-SP", MICRO.name, False, config)
    assert loaded == result
    assert cache.hits == 1


def test_disk_cache_miss_on_different_config(tmp_path, ctx):
    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    cache.put("Lonestar-SP", MICRO.name, False, config,
              ctx.run("Lonestar-SP", config))
    assert cache.get("Lonestar-SP", MICRO.name, False,
                     ctx.config_locality()) is None
    assert cache.get("Rodinia-Hotspot", MICRO.name, False, config) is None
    assert cache.get("Lonestar-SP", "tiny", False, config) is None
    assert cache.get("Lonestar-SP", MICRO.name, True, config) is None


def test_disk_cache_corrupt_entry_is_quarantined(tmp_path, ctx):
    """Regression: corrupt entries used to be silently counted as plain
    misses and left in place, so every later run re-read and re-failed
    the same broken file. They must be moved aside and counted."""
    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    path = cache.put("Lonestar-SP", MICRO.name, False, config,
                     ctx.run("Lonestar-SP", config))
    path.write_text("{not json")
    assert cache.get("Lonestar-SP", MICRO.name, False, config) is None
    assert cache.corrupt == 1
    assert cache.misses == 0  # quarantine is not a plain miss
    assert not path.exists()
    assert path.with_suffix(".corrupt").exists()
    # The broken entry is gone: the next lookup is an ordinary miss.
    assert cache.get("Lonestar-SP", MICRO.name, False, config) is None
    assert cache.corrupt == 1
    assert cache.misses == 1


def test_disk_cache_checksum_mismatch_is_quarantined(tmp_path, ctx):
    import json

    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    path = cache.put("Lonestar-SP", MICRO.name, False, config,
                     ctx.run("Lonestar-SP", config))
    # Valid JSON, valid envelope shape — but the payload was tampered
    # with after the checksum was computed (silent bit-rot model).
    header, body = path.read_bytes().split(b"\n", 1)
    payload = json.loads(body)
    payload["cycles"] = payload["cycles"] + 1
    path.write_bytes(header + b"\n" + json.dumps(payload).encode())
    assert cache.get("Lonestar-SP", MICRO.name, False, config) is None
    assert cache.corrupt == 1
    assert path.with_suffix(".corrupt").exists()


def test_disk_cache_v1_envelope_is_quarantined(tmp_path, ctx):
    import json

    from repro.harness.diskcache import payload_checksum

    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    result = ctx.run("Lonestar-SP", config)
    path = cache.put("Lonestar-SP", MICRO.name, False, config, result)
    # A well-formed entry of the older one-object format, whose checksum
    # re-encoded the decoded payload, is not trusted either.
    payload = result_to_json_dict(result)
    path.write_text(json.dumps(
        {"v": 1, "checksum": payload_checksum(payload), "payload": payload}))
    assert cache.get("Lonestar-SP", MICRO.name, False, config) is None
    assert cache.corrupt == 1
    assert path.with_suffix(".corrupt").exists()


def test_disk_cache_cut_off_body_is_quarantined(tmp_path, ctx):
    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    path = cache.put("Lonestar-SP", MICRO.name, False, config,
                     ctx.run("Lonestar-SP", config))
    header, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b"\n" + body[: len(body) // 2])
    assert cache.get("Lonestar-SP", MICRO.name, False, config) is None
    assert cache.corrupt == 1
    assert path.with_suffix(".corrupt").exists()


def test_disk_cache_hit_encodes_nothing(tmp_path, ctx, monkeypatch):
    import json

    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    result = ctx.run("Lonestar-SP", config)
    cache.put("Lonestar-SP", MICRO.name, False, config, result)

    def no_encode(*args, **kwargs):
        raise AssertionError("a cache hit must not re-encode its payload")

    monkeypatch.setattr(json, "dumps", no_encode)
    assert cache.get("Lonestar-SP", MICRO.name, False, config) == result
    assert (cache.hits, cache.corrupt) == (1, 0)


def test_disk_cache_header_is_the_json_envelope(tmp_path, ctx):
    """``put`` still writes ``json.dumps({"v": 2, "checksum": ...})``."""
    import hashlib
    import json

    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    result = ctx.run("Lonestar-SP", config)
    path = cache.put("Lonestar-SP", MICRO.name, False, config, result)
    header, body = path.read_bytes().split(b"\n", 1)
    checksum = hashlib.sha256(body).hexdigest()
    assert header == json.dumps({"v": 2, "checksum": checksum}).encode()


@pytest.mark.parametrize("change", ["extra", "missing", "not_object"])
def test_disk_cache_bad_stats_record_is_quarantined(tmp_path, ctx, change):
    """A checksummed payload whose socket record has the wrong fields
    fails reconstruction, so the entry is quarantined, not returned."""
    import hashlib
    import json

    from repro.harness.diskcache import envelope_header

    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    result = ctx.run("Lonestar-SP", config)
    path = cache.put("Lonestar-SP", MICRO.name, False, config, result)
    payload = result_to_json_dict(result)
    if change == "extra":
        payload["sockets"][0]["bogus"] = 1
    elif change == "missing":
        del payload["sockets"][0]["flushes"]
    else:
        payload["sockets"][0] = 7
    body = json.dumps(payload).encode()
    path.write_bytes(envelope_header(hashlib.sha256(body).hexdigest())
                     + b"\n" + body)
    assert cache.get("Lonestar-SP", MICRO.name, False, config) is None
    assert cache.corrupt == 1
    assert path.with_suffix(".corrupt").exists()


def test_disk_cache_pre_envelope_entry_is_quarantined(tmp_path, ctx):
    import json

    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    result = ctx.run("Lonestar-SP", config)
    path = cache.put("Lonestar-SP", MICRO.name, False, config, result)
    # A bare payload with no checksum envelope (the pre-hardening disk
    # format) must not be trusted.
    path.write_text(json.dumps(result_to_json_dict(result)))
    assert cache.get("Lonestar-SP", MICRO.name, False, config) is None
    assert cache.corrupt == 1


def test_disk_cache_put_degrades_when_root_unwritable(tmp_path, ctx):
    # The cache root path is an existing *file*, so mkdir fails with an
    # OSError regardless of privileges (chmod tricks don't bind as root).
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    cache = ResultDiskCache(blocker)
    config = ctx.config_single_gpu()
    result = ctx.run("Lonestar-SP", config)
    with pytest.warns(RuntimeWarning, match="result cache write failed"):
        assert cache.put("Lonestar-SP", MICRO.name, False, config,
                         result) is None
    assert cache.put_errors == 1
    # Degraded, not dead: the warning fires once, the counter keeps going.
    import warnings as warnings_module

    with warnings_module.catch_warnings(record=True) as caught:
        warnings_module.simplefilter("always")
        assert cache.put("Lonestar-SP", MICRO.name, False, config,
                         result) is None
    assert caught == []
    assert cache.put_errors == 2
    # Reads against the unwritable root are plain misses, not crashes.
    assert cache.get("Lonestar-SP", MICRO.name, False, config) is None
    assert cache.misses == 1


def test_disk_cache_put_degrades_on_enospc(tmp_path, ctx, monkeypatch):
    import errno

    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    result = ctx.run("Lonestar-SP", config)

    def replace_enospc(src, dst):
        raise OSError(errno.ENOSPC, "no space left on device")

    monkeypatch.setattr("repro.harness.diskcache.os.replace", replace_enospc)
    with pytest.warns(RuntimeWarning, match="No space left|no space left"):
        assert cache.put("Lonestar-SP", MICRO.name, False, config,
                         result) is None
    assert cache.put_errors == 1
    assert len(cache) == 0


def test_disk_cache_keyed_by_package_version(tmp_path, ctx, monkeypatch):
    import repro

    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    cache.put("Lonestar-SP", MICRO.name, False, config,
              ctx.run("Lonestar-SP", config))
    monkeypatch.setattr(repro, "__version__", "0.0.0-test")
    assert cache.get("Lonestar-SP", MICRO.name, False, config) is None


def test_context_uses_disk_cache_across_instances(tmp_path):
    first = make_context(MICRO, cache_dir=tmp_path, sms_per_socket=2)
    a = first.run("Lonestar-SP", first.config_single_gpu())
    assert len(first.disk_cache) == 1

    second = make_context(MICRO, cache_dir=tmp_path, sms_per_socket=2)
    b = second.run("Lonestar-SP", second.config_single_gpu())
    assert b == a
    assert second.disk_cache.hits == 1


def test_make_context_without_cache():
    ctx = make_context(MICRO, cache_dir=None)
    assert ctx.disk_cache is None


def test_clear_removes_entries(tmp_path, ctx):
    cache = ResultDiskCache(tmp_path)
    config = ctx.config_single_gpu()
    cache.put("Lonestar-SP", MICRO.name, False, config,
              ctx.run("Lonestar-SP", config))
    assert cache.clear() == 1
    assert len(cache) == 0
