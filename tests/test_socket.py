"""Unit tests for the GPU socket memory paths across cache organizations."""

import pytest

from dataclasses import replace

from repro.config import (
    CacheArch,
    SystemConfig,
    WritePolicy,
    scaled_config,
)
from repro.gpu.socket import GpuSocket
from repro.locality import PlacementSpec
from repro.memory.cache import NumaClass
from repro.memory.page_table import PageTable
from repro.sim.engine import Engine
from repro.topology.fabric import build_fabric


def build_pair(cache_arch=CacheArch.MEM_SIDE, write_policy=WritePolicy.WRITE_BACK,
               placement="first_touch", coherence=True):
    """Two sockets joined by a switch, plus the engine."""
    config = replace(
        scaled_config(n_sockets=2, sms_per_socket=2),
        cache_arch=cache_arch,
        l2_write_policy=write_policy,
        placement_spec=PlacementSpec(kind=placement),
        coherence_invalidations=coherence,
        migration_latency=0,
    )
    engine = Engine()
    table = PageTable(config)
    switch = build_fabric(config, engine)
    sockets = [GpuSocket(s, config, engine, table, switch) for s in range(2)]
    switch.owners = list(sockets)
    return sockets, engine, table


def read(socket, engine, addr):
    done = []
    sync = socket.access(0, addr, False, lambda: done.append(engine.now))
    engine.run()
    return sync, done


def write(socket, engine, addr):
    done = []
    socket.access(0, addr, True, lambda: done.append(engine.now))
    engine.run()
    return done


PAGE = 4096


def test_local_read_miss_then_l1_hit():
    (s0, _s1), engine, _ = build_pair()
    sync, done = read(s0, engine, 0)
    assert not sync and done
    # Second read of the same line hits the L1 synchronously.
    sync2, _ = read(s0, engine, 0)
    assert sync2
    assert s0.stats["l1_hits"] == 1


def test_local_read_fills_l2():
    (s0, _s1), engine, _ = build_pair()
    read(s0, engine, 0)
    assert s0.l2.contains(0)


def test_remote_read_takes_longer_than_local():
    (s0, s1), engine, table = build_pair()
    # Socket 1 claims page 1 by first touch.
    table.translate(PAGE, accessor=1)
    _, local_done = read(s0, engine, 0)
    t_local = local_done[0]
    start = engine.now
    done = []
    s0.access(0, PAGE, False, lambda: done.append(engine.now - start))
    engine.run()
    assert done[0] > t_local


def test_remote_read_counts_remote_access():
    (s0, _s1), engine, table = build_pair()
    table.translate(PAGE, accessor=1)
    read(s0, engine, PAGE)
    assert s0.stats["remote_accesses"] == 1
    assert s0.stats["remote_read_requests"] == 1


def test_mem_side_does_not_cache_remote_in_l2():
    (s0, s1), engine, table = build_pair(CacheArch.MEM_SIDE)
    table.translate(PAGE, accessor=1)
    read(s0, engine, PAGE)
    line = PAGE // 128
    assert not s0.l2.contains(line)
    # The home socket's mem-side L2 caches it.
    assert s1.l2.contains(line)


@pytest.mark.parametrize(
    "arch",
    [CacheArch.STATIC_RC, CacheArch.SHARED_COHERENT, CacheArch.NUMA_AWARE],
)
def test_gpu_side_archs_cache_remote_in_l2(arch):
    (s0, _s1), engine, table = build_pair(arch)
    table.translate(PAGE, accessor=1)
    read(s0, engine, PAGE)
    line = PAGE // 128
    assert s0.l2.contains(line)
    assert s0.l2.occupancy()[NumaClass.REMOTE] == 1


def test_remote_l2_hit_avoids_second_link_crossing():
    (s0, _s1), engine, table = build_pair(CacheArch.STATIC_RC)
    table.translate(PAGE, accessor=1)
    read(s0, engine, PAGE)
    requests_before = s0.stats["remote_read_requests"]
    # L1 also holds it; drop L1 copy to force the L2 probe.
    s0.sms[0].l1.invalidate_all()
    read(s0, engine, PAGE)
    assert s0.stats["remote_read_requests"] == requests_before


def test_concurrent_reads_coalesce():
    (s0, _s1), engine, _ = build_pair()
    done = []
    s0.access(0, 0, False, lambda: done.append("a"))
    s0.access(1, 0, False, lambda: done.append("b"))
    assert s0.stats["reads_coalesced"] == 1
    engine.run()
    assert sorted(done) == ["a", "b"]
    # Both SMs' L1s receive the fill.
    assert s0.sms[0].l1.contains(0)
    assert s0.sms[1].l1.contains(0)


def test_local_write_allocates_dirty_in_l2():
    (s0, _s1), engine, _ = build_pair()
    write(s0, engine, 0)
    assert s0.l2.contains(0)
    dirty = s0.l2.invalidate_all()
    assert [e.line for e in dirty] == [0]


def test_local_write_through_policy_writes_dram():
    (s0, _s1), engine, _ = build_pair(write_policy=WritePolicy.WRITE_THROUGH)
    write(s0, engine, 0)
    assert s0.dram.stats["writes"] == 1


def test_remote_write_forwarded_in_mem_side():
    (s0, s1), engine, table = build_pair(CacheArch.MEM_SIDE)
    table.translate(PAGE, accessor=1)
    write(s0, engine, PAGE)
    assert s0.stats["remote_writes_forwarded"] == 1
    assert s1.stats["remote_writes_absorbed"] == 1
    assert s1.l2.contains(PAGE // 128)


def test_remote_write_absorbed_locally_in_coherent_archs():
    (s0, s1), engine, table = build_pair(CacheArch.NUMA_AWARE)
    table.translate(PAGE, accessor=1)
    write(s0, engine, PAGE)
    assert s0.stats["remote_writes_forwarded"] == 0
    line = PAGE // 128
    assert s0.l2.contains(line)
    assert not s1.l2.contains(line)


def test_remote_write_through_forwards_and_drops():
    (s0, s1), engine, table = build_pair(
        CacheArch.NUMA_AWARE, write_policy=WritePolicy.WRITE_THROUGH
    )
    table.translate(PAGE, accessor=1)
    read(s0, engine, PAGE)  # cache it remotely first
    write(s0, engine, PAGE)
    assert s0.stats["remote_writes_forwarded"] == 1
    assert not s0.l2.contains(PAGE // 128)


def test_dirty_remote_eviction_writes_back_to_home():
    (s0, s1), engine, table = build_pair(CacheArch.NUMA_AWARE)
    table.translate(PAGE, accessor=1)
    write(s0, engine, PAGE)  # dirty remote line in s0's L2
    before = s1.dram.stats["writes"]
    flush = s0.flush_caches()
    engine.run()
    assert flush.remote_dirty_lines == 1
    assert s0.stats["flush_remote_writebacks"] == 1
    assert s1.dram.stats["writes"] == before + 1


def test_flush_disabled_when_coherence_off():
    (s0, _s1), engine, table = build_pair(CacheArch.NUMA_AWARE, coherence=False)
    table.translate(PAGE, accessor=1)
    write(s0, engine, PAGE)
    s0.flush_caches()
    assert s0.l2.contains(PAGE // 128)
    assert s0.coherence.stats["flushes"] == 0
    assert s0.coherence.stats["flushes_skipped"] == 1


def test_flush_mem_side_keeps_l2():
    (s0, _s1), engine, _ = build_pair(CacheArch.MEM_SIDE)
    read(s0, engine, 0)
    s0.flush_caches()
    assert s0.l2.contains(0)  # mem-side L2 is not coherent, never flushed
    assert not s0.sms[0].l1.contains(0)  # L1s always flush


def test_flush_static_rc_drops_only_remote():
    (s0, _s1), engine, table = build_pair(CacheArch.STATIC_RC)
    table.translate(PAGE, accessor=1)
    read(s0, engine, 0)
    read(s0, engine, PAGE)
    s0.flush_caches()
    assert s0.l2.contains(0)
    assert not s0.l2.contains(PAGE // 128)


def test_subkernel_runs_all_ctas():
    from repro.gpu.cta import MemOp, Slice

    (s0, _s1), engine, _ = build_pair()
    finished = []
    ctas = [
        (i, [Slice(5, (MemOp(i * 128, False),))]) for i in range(10)
    ]
    s0.start_subkernel(ctas, finished.append)
    engine.run()
    assert finished == [0]
    assert s0.stats["ctas_completed"] == 10


def test_subkernel_empty_completes_immediately():
    (s0, _s1), _engine, _ = build_pair()
    finished = []
    s0.start_subkernel([], finished.append)
    assert finished == [0]


def test_l1_hit_rate_helper():
    (s0, _s1), engine, _ = build_pair()
    read(s0, engine, 0)
    read(s0, engine, 0)
    assert 0.0 < s0.l1_hit_rate() < 1.0


def test_remote_fraction_helper():
    (s0, _s1), engine, table = build_pair()
    table.translate(PAGE, accessor=1)
    read(s0, engine, 0)
    read(s0, engine, PAGE)
    assert s0.remote_fraction == pytest.approx(0.5)
