"""Unit tests for the NUMA-aware cache partition controller (Fig 7(d))."""

import pytest

from dataclasses import replace

from repro.config import CacheArch, ControllerConfig, scaled_config
from repro.core.numa_cache import CachePartitionController
from repro.gpu.socket import GpuSocket
from repro.interconnect.link import Direction
from repro.interconnect.packets import DATA_BYTES
from repro.memory.cache import NumaClass
from repro.memory.page_table import PageTable
from repro.sim.engine import Engine
from repro.topology.fabric import build_fabric


def build_controller(sample_time=1000, record=False):
    config = replace(
        scaled_config(n_sockets=2, sms_per_socket=2),
        cache_arch=CacheArch.NUMA_AWARE,
        controllers=ControllerConfig(cache_sample_time=sample_time),
    )
    engine = Engine()
    table = PageTable(config)
    switch = build_fabric(config, engine)
    sockets = [GpuSocket(s, config, engine, table, switch) for s in range(2)]
    switch.owners = list(sockets)
    controller = CachePartitionController(
        sockets[0], switch.monitor_port(0), engine, config.controllers,
        record_timeline=record,
    )
    return controller, sockets[0], switch.balancer_links[0], engine


def saturate_dram(socket, until):
    socket.dram.resource.service(0, int(socket.dram.resource.rate * until * 2))


def fake_remote_reads(socket, link, window):
    """Enough outgoing read requests to project a saturated ingress."""
    capacity = link.bandwidth(Direction.INGRESS) * window
    n = int(capacity / DATA_BYTES) + 2
    socket.n_remote_read_requests += n


def test_starts_half_and_half():
    controller, socket, _link, _engine = build_controller()
    local, remote = controller.quotas
    assert local == remote == socket.l2.n_ways // 2


def test_step2_grows_remote_when_link_saturated():
    controller, socket, link, engine = build_controller()
    controller.start()
    fake_remote_reads(socket, link, 1000)
    engine.run(until=1000)
    local, remote = controller.quotas
    assert remote == 9 and local == 7
    assert controller.stats["grow_remote"] == 1
    assert socket.l2.quota(NumaClass.REMOTE) == 9  # quotas pushed to cache


def test_step3_grows_local_when_dram_saturated():
    controller, socket, _link, engine = build_controller()
    controller.start()
    saturate_dram(socket, 1000)
    engine.run(until=1000)
    local, remote = controller.quotas
    assert local == 9 and remote == 7
    assert controller.stats["grow_local"] == 1


def test_step4_equalizes_when_both_saturated():
    controller, socket, link, engine = build_controller()
    controller._local_ways, controller._remote_ways = 4, 12
    controller._apply()
    controller.start()
    saturate_dram(socket, 1000)
    fake_remote_reads(socket, link, 1000)
    engine.run(until=1000)
    local, remote = controller.quotas
    assert (local, remote) == (5, 11)
    assert controller.stats["equalize"] == 1


def test_step5_no_action_when_idle():
    controller, _socket, _link, engine = build_controller()
    controller.start()
    engine.run(until=5000)
    assert controller.quotas == (8, 8)
    assert controller.stats["samples"] >= 4


def test_never_starves_a_class():
    controller, socket, link, engine = build_controller(sample_time=100)
    controller.start()
    for end in range(100, 5001, 100):
        fake_remote_reads(socket, link, 100)
        engine.run(until=end)
    local, remote = controller.quotas
    assert local == 1 and remote == 15


def test_l1_quotas_scale_with_l2():
    controller, socket, link, engine = build_controller(sample_time=100)
    controller.start()
    for end in range(100, 3001, 100):
        fake_remote_reads(socket, link, 100)
        engine.run(until=end)
    l1 = socket.sms[0].l1
    assert l1.quota(NumaClass.REMOTE) == l1.n_ways - 1
    assert l1.quota(NumaClass.LOCAL) == 1


def test_kernel_launch_resets_quotas():
    controller, _socket, link, engine = build_controller()
    controller._local_ways, controller._remote_ways = 2, 14
    controller.on_kernel_launch()
    assert controller.quotas == (8, 8)


def test_stop_halts_sampling():
    controller, _socket, _link, engine = build_controller()
    controller.start()
    controller.stop()
    engine.run(until=10_000)
    assert controller.stats["samples"] == 0


def test_timeline_recording():
    controller, socket, link, engine = build_controller(record=True)
    controller.start()
    fake_remote_reads(socket, link, 1000)
    engine.run(until=2000)
    assert controller.timeline is not None
    assert len(controller.timeline) >= 1


def test_write_traffic_does_not_trigger_remote_growth():
    """The projected-ingress trick ignores incoming writes (Section 5)."""
    controller, socket, link, engine = build_controller()
    # Saturate the real ingress with write traffic but issue no reads.
    link.resource(Direction.INGRESS).service(0, 10**7)
    controller.start()
    engine.run(until=1000)
    assert controller.quotas == (8, 8)
