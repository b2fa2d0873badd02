"""Unit tests for trace recording, persistence, and replay."""

import gc
import weakref

import pytest

from repro.config import scaled_config
from repro.core.builder import run_workload_on
from repro.errors import WorkloadError
from repro.gpu.system import NumaGpuSystem
from repro.workloads.spec import TINY
from repro.workloads.suite import get_workload
from repro.workloads.synthetic import make_workload
from repro.workloads.trace import (
    load_trace,
    record_trace,
    save_trace,
)


def micro():
    return make_workload("trace-micro", pattern="stencil", n_ctas=12,
                         slices_per_cta=3, ops_per_slice=6, iterations=2)


def test_record_captures_all_kernels_and_ctas():
    wl = micro()
    trace = record_trace(wl, TINY)
    expected_kernels = len(wl.build_kernels(TINY))
    assert len(trace.kernels) == expected_kernels
    assert trace.kernels[0].n_ctas == 12
    assert trace.total_ops() > 0


def test_replay_matches_generator_exactly():
    wl = micro()
    cfg = scaled_config(n_sockets=2, sms_per_socket=2)
    direct = run_workload_on(cfg, wl, TINY)
    trace = record_trace(wl, TINY)
    replayed = NumaGpuSystem(cfg).run(trace.build_kernels(), wl.name)
    assert replayed.cycles == direct.cycles
    assert replayed.switch_bytes == direct.switch_bytes
    assert replayed.total_dram_bytes == direct.total_dram_bytes


def test_save_and_load_roundtrip(tmp_path):
    trace = record_trace(micro(), TINY)
    path = tmp_path / "micro.trace"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.workload == trace.workload
    assert loaded.scale == trace.scale
    assert len(loaded.kernels) == len(trace.kernels)
    assert loaded.total_ops() == trace.total_ops()
    for original, restored in zip(trace.kernels, loaded.kernels):
        assert original.name == restored.name
        assert original.ctas == restored.ctas


def test_loaded_trace_replays_identically(tmp_path):
    wl = micro()
    cfg = scaled_config(n_sockets=2, sms_per_socket=2)
    trace = record_trace(wl, TINY)
    path = tmp_path / "replay.trace"
    save_trace(trace, path)
    a = NumaGpuSystem(cfg).run(trace.build_kernels(), wl.name)
    b = NumaGpuSystem(cfg).run(load_trace(path).build_kernels(), wl.name)
    assert a.cycles == b.cycles


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.trace"
    path.write_text("")
    with pytest.raises(WorkloadError):
        load_trace(path)


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text('{"version": 999, "workload": "x", "scale": "tiny", "kernels": 0}\n')
    with pytest.raises(WorkloadError):
        load_trace(path)


def test_load_rejects_truncated_file(tmp_path):
    trace = record_trace(micro(), TINY)
    path = tmp_path / "trunc.trace"
    save_trace(trace, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(WorkloadError):
        load_trace(path)


def test_suite_workload_traces():
    trace = record_trace(get_workload("Lonestar-SP"), TINY)
    assert trace.workload == "Lonestar-SP"
    assert trace.total_ops() > 0


def _ops(trace):
    return [op for k in trace.kernels for cta in k.ctas for s in cta for op in s.ops]


def _assert_ops_shared(trace):
    seen = {}
    for op in _ops(trace):
        assert seen.setdefault((op.addr, op.is_write), op) is op
    # The table shares ops; it never merges distinct ones.
    assert len(seen) < len(_ops(trace))


@pytest.mark.parametrize("name", ["Rodinia-Gaussian", "Lonestar-SP"])
def test_recorded_ops_are_shared_values(name):
    # Rodinia-Gaussian has an init kernel, which shares the same table.
    _assert_ops_shared(record_trace(get_workload(name), TINY))


def test_record_trace_is_repeatable():
    wl = get_workload("Rodinia-Gaussian")
    assert record_trace(wl, TINY) == record_trace(wl, TINY)


def test_loaded_trace_equals_recorded_and_shares_ops(tmp_path):
    trace = record_trace(get_workload("Rodinia-Gaussian"), TINY)
    path = tmp_path / "shared.trace"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded == trace
    _assert_ops_shared(loaded)


def test_a_replayed_system_frees_itself_without_a_collection():
    wl = micro()
    trace = record_trace(wl, TINY)
    gc.disable()
    try:
        system = NumaGpuSystem(scaled_config(n_sockets=2, sms_per_socket=2))
        system.run(trace.build_kernels(), wl.name)
        dead = weakref.ref(system)
        del system
        assert dead() is None  # freed by reference counting alone
    finally:
        gc.enable()


def test_record_trace_runs_no_collection():
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.disable()
    gc.callbacks.append(count)
    try:
        record_trace(micro(), TINY)
    finally:
        gc.callbacks.remove(count)
        gc.enable()
    assert collections == []


def test_record_trace_keeps_a_callers_paused_collector():
    gc.disable()
    try:
        record_trace(micro(), TINY)
        assert not gc.isenabled()
    finally:
        gc.enable()
