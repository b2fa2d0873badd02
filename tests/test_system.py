"""Unit tests for NumaGpuSystem wiring and the core builders."""

import pytest

from dataclasses import replace

from repro.config import (
    CacheArch,
    LinkPolicy,
    scaled_config,
    single_gpu_config,
)
from repro.core.builder import build_system, run_workload_on
from repro.core.link_policy import build_balancers, effective_link_config
from repro.gpu.system import NumaGpuSystem
from repro.workloads.spec import TINY
from repro.workloads.synthetic import make_workload


def micro_workload():
    return make_workload("sys-micro", n_ctas=16, slices_per_cta=2,
                         ops_per_slice=4, iterations=1)


def test_build_system_default_is_scaled_four_socket():
    system = build_system()
    assert system.config.n_sockets == 4
    assert len(system.sockets) == 4
    assert system.fabric is not None


def test_single_socket_has_no_switch_or_balancers():
    system = build_system(single_gpu_config(scaled_config()))
    assert system.fabric is None
    assert system.balancers == []
    assert system.cache_controllers == []


def test_links_know_their_owner():
    system = build_system(scaled_config(n_sockets=4, sms_per_socket=2))
    assert system.fabric is not None
    assert len(system.fabric.owners) == len(system.sockets)
    for sid, socket in enumerate(system.sockets):
        assert system.fabric.owners[sid] is socket


def test_static_policy_builds_no_balancers():
    system = build_system(scaled_config(n_sockets=2, sms_per_socket=2))
    assert system.balancers == []


def test_dynamic_policy_builds_one_balancer_per_socket():
    cfg = replace(
        scaled_config(n_sockets=4, sms_per_socket=2),
        link_policy=LinkPolicy.DYNAMIC,
    )
    system = build_system(cfg)
    assert len(system.balancers) == 4
    assert all(not b.monitor_only for b in system.balancers)


def test_record_timelines_builds_monitor_balancers_on_static():
    system = build_system(
        scaled_config(n_sockets=2, sms_per_socket=2), record_timelines=True
    )
    assert len(system.balancers) == 2
    assert all(b.monitor_only for b in system.balancers)


def test_cache_controllers_only_for_numa_aware():
    for arch in CacheArch:
        cfg = replace(
            scaled_config(n_sockets=2, sms_per_socket=2), cache_arch=arch
        )
        system = build_system(cfg)
        expected = 2 if arch is CacheArch.NUMA_AWARE else 0
        assert len(system.cache_controllers) == expected


def test_doubled_link_policy_doubles_bandwidth():
    cfg = replace(scaled_config(), link_policy=LinkPolicy.DOUBLED)
    effective = effective_link_config(cfg)
    assert effective.lane_bandwidth == pytest.approx(
        cfg.link.lane_bandwidth * 2
    )
    system = build_system(cfg)
    assert system.fabric is not None
    from repro.interconnect.link import Direction

    link = system.fabric.balancer_links[0]
    assert link.bandwidth(Direction.EGRESS) == pytest.approx(
        2 * cfg.link.direction_bandwidth
    )


def test_build_balancers_none_without_switch():
    cfg = scaled_config(n_sockets=2, sms_per_socket=2)
    from repro.sim.engine import Engine

    assert build_balancers(cfg, None, Engine()) == []


def test_run_returns_result_with_config_label():
    system = build_system(scaled_config(n_sockets=2, sms_per_socket=2))
    result = system.run(micro_workload().build_kernels(TINY), "label-test")
    assert result.workload == "label-test"
    assert "2s/contiguous/first_touch" in result.config_label


def test_run_workload_on_uses_fresh_system_each_call():
    cfg = scaled_config(n_sockets=2, sms_per_socket=2)
    wl = micro_workload()
    a = run_workload_on(cfg, wl, TINY)
    b = run_workload_on(cfg, wl, TINY)
    # Fresh caches/page tables: identical results, not accumulated state.
    assert a.cycles == b.cycles
    assert a.migrations == b.migrations


def test_controllers_stop_after_workload():
    cfg = replace(
        scaled_config(n_sockets=2, sms_per_socket=2),
        cache_arch=CacheArch.NUMA_AWARE,
        link_policy=LinkPolicy.DYNAMIC,
    )
    system = build_system(cfg)
    system.run(micro_workload().build_kernels(TINY), "stop-test")
    # The engine fully drained: no controller is still self-rescheduling.
    assert system.engine.pending_events == 0


def test_system_cycles_property():
    system = build_system(scaled_config(n_sockets=2, sms_per_socket=2))
    assert system.cycles == 0
    result = system.run(micro_workload().build_kernels(TINY), "cyc")
    assert system.cycles == result.cycles > 0
