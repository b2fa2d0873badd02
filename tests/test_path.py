"""Unit tests for the fused miss pipeline (repro.sim.path, PR 3).

The end-to-end semantics of every path shape are pinned by
tests/test_socket.py and the byte-for-byte goldens in
tests/golden/hotpath/; these tests cover the walker mechanics
themselves — pooling/recycling, the closed-form quotes, the packed
fill_fast contract, and the MSHR single-waiter fast path.
"""

from dataclasses import replace

import pytest

from repro.config import (
    CacheArch,
    CacheConfig,
    WritePolicy,
    scaled_config,
)
from repro.gpu.socket import GpuSocket
from repro.locality import PlacementSpec
from repro.memory.cache import NumaClass, SetAssocCache
from repro.memory.page_table import PageTable
from repro.sim.engine import Engine
from repro.sim.path import CLS_LOCAL, CLS_REMOTE, ReadPath, WritePath
from repro.topology.fabric import build_fabric


def build_pair(cache_arch=CacheArch.MEM_SIDE, write_policy=WritePolicy.WRITE_BACK):
    config = replace(
        scaled_config(n_sockets=2, sms_per_socket=2),
        cache_arch=cache_arch,
        l2_write_policy=write_policy,
        placement_spec=PlacementSpec(kind="first_touch"),
        migration_latency=0,
    )
    engine = Engine()
    table = PageTable(config)
    switch = build_fabric(config, engine)
    sockets = [GpuSocket(s, config, engine, table, switch) for s in range(2)]
    switch.owners = list(sockets)
    return sockets, engine, table


PAGE = 4096


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def test_read_walker_is_recycled_through_the_pool():
    (s0, _s1), engine, _ = build_pair()
    done = []
    s0.access(0, 0, False, lambda: done.append(engine.now))
    assert len(s0._read_pool) == 0  # in flight
    engine.run()
    assert len(s0._read_pool) == 1  # released at completion
    walker = s0._read_pool[-1]
    s0.access(0, 128, False, lambda: done.append(engine.now))
    assert len(s0._read_pool) == 0
    assert s0._read_pool == []  # the same object was reacquired
    engine.run()
    assert s0._read_pool[-1] is walker


def test_write_walker_released_at_requester_for_local_writes():
    (s0, _s1), engine, _ = build_pair()
    s0.access(0, 0, True, lambda: None)
    # The local write path releases the walker at the L2 stage, before
    # the ack callback fires.
    engine.run(until=s0.noc_latency + 2)
    assert len(s0._write_pool) in (0, 1)
    engine.run()
    assert len(s0._write_pool) == 1


def test_forwarded_write_walker_returns_to_the_issuing_pool():
    (s0, s1), engine, table = build_pair(CacheArch.MEM_SIDE)
    table.translate(PAGE, accessor=1)
    s0.access(0, PAGE, True, lambda: None)
    engine.run()
    # The walker crossed to socket 1 for the absorb stage but was pooled
    # back where it was allocated.
    assert len(s0._write_pool) == 1
    assert len(s1._write_pool) == 0


def test_pools_are_per_socket():
    (s0, s1), engine, table = build_pair()
    table.translate(PAGE, accessor=1)
    s0.access(0, 0, False, lambda: None)
    s1.access(0, PAGE, False, lambda: None)
    engine.run()
    assert len(s0._read_pool) == 1
    assert len(s1._read_pool) == 1
    assert s0._read_pool[0] is not s1._read_pool[0]


# ---------------------------------------------------------------------------
# quotes
# ---------------------------------------------------------------------------

def test_l2_hit_completion_is_quoted_closed_form():
    (s0, _s1), engine, _ = build_pair()
    done = []
    s0.access(0, 0, False, lambda: done.append(engine.now))
    engine.run()
    t_miss = done[0]
    # Drop the L1 copy so the next read probes the (now warm) L2.
    s0.sms[0].l1.invalidate_all()
    start = engine.now
    s0.access(0, 0, False, lambda: done.append(engine.now - start))
    engine.run()
    # NoC serialize + NoC latency to reach the L2, then the quoted
    # pure-latency tail: hit latency + NoC reply.
    import math

    from repro.interconnect.packets import DATA_BYTES

    gpu = s0.config.gpu
    noc_hop = math.ceil(DATA_BYTES / gpu.noc_bandwidth) + gpu.noc_latency
    expected = noc_hop + gpu.l2.hit_latency + gpu.noc_latency
    assert done[1] == expected
    assert t_miss > done[1]  # the miss path was slower


def test_local_miss_quote_matches_dram_closed_form():
    import math

    from repro.interconnect.packets import DATA_BYTES

    (s0, _s1), engine, _ = build_pair()
    done = []
    start = engine.now
    s0.access(0, 0, False, lambda: done.append(engine.now - start))
    engine.run()
    gpu = s0.config.gpu
    noc_hop = math.ceil(DATA_BYTES / gpu.noc_bandwidth) + gpu.noc_latency
    dram_done = math.ceil(noc_hop + 128 / gpu.dram_bandwidth) + gpu.dram_latency
    expected = dram_done + gpu.noc_latency
    assert done[0] == expected


def test_walker_constants_track_the_socket():
    (s0, _s1), engine, _ = build_pair()
    s0.access(0, 0, False, lambda: None)
    engine.run()
    walker = s0._read_pool[0]
    assert isinstance(walker, ReadPath)
    assert walker.socket is s0
    assert walker.l2 is s0.l2
    assert walker.hit_tail == s0._l2_hit_latency + s0.noc_latency
    assert walker.cls in (CLS_LOCAL, CLS_REMOTE)


# ---------------------------------------------------------------------------
# fill_fast packing
# ---------------------------------------------------------------------------

def test_fill_fast_reports_only_dirty_victims_packed():
    cache = SetAssocCache("t", CacheConfig(capacity_bytes=2 * 128, ways=2))
    assert cache.fill_fast(0, 0) == -1  # invalid frame, no victim
    assert cache.fill_fast(2, 1, dirty=True) == -1  # second way
    # Evicts line 0 (clean): still -1.
    assert cache.fill_fast(4, 0) == -1
    assert cache.n_evictions == 1
    # Evicts line 2 (dirty, remote): packed (line << 1) | cls.
    packed = cache.fill_fast(6, 0)
    assert packed == (2 << 1) | 1
    assert cache.n_dirty_evictions == 1


def test_fill_fast_counters_match_fill():
    a = SetAssocCache("a", CacheConfig(capacity_bytes=4 * 128, ways=4))
    b = SetAssocCache("b", CacheConfig(capacity_bytes=4 * 128, ways=4))
    lines = [0, 4, 8, 12, 16, 4, 0, 20]
    for line in lines:
        a.fill(line, NumaClass.LOCAL, dirty=line % 8 == 0)
        b.fill_fast(line, 0, line % 8 == 0)
    for attr in ("n_fills", "n_evictions", "n_dirty_evictions", "valid_lines"):
        assert getattr(a, attr) == getattr(b, attr)
    assert sorted(a._where) == sorted(b._where)


# ---------------------------------------------------------------------------
# MSHR single-waiter fast path (waiters live on the in-flight walker)
# ---------------------------------------------------------------------------

def test_single_waiter_lives_on_the_walker():
    (s0, _s1), engine, _ = build_pair()
    s0.access(0, 0, False, lambda: None)
    rec = s0._lines[0]
    rp = rec.rp
    assert isinstance(rp, ReadPath)
    assert rp.w_sm == 0 and rp.w_more is None  # no coalesce list yet
    engine.run()
    assert s0._lines[0].rp is None  # fetch completed, MSHR cleared


def test_coalesced_waiters_append_to_the_walker_in_arrival_order():
    (s0, _s1), engine, _ = build_pair()
    done = []
    s0.access(0, 0, False, lambda: done.append("a"))
    s0.access(1, 0, False, lambda: done.append("b"))
    s0.access(1, 0, False, lambda: done.append("c"))
    rp = s0._lines[0].rp
    # Flat [sm, cb, sm, cb] pairs behind the first waiter (w_sm).
    assert [rp.w_sm] + rp.w_more[0::2] == [0, 1, 1]
    assert s0.stats["reads_coalesced"] == 2
    engine.run()
    assert done == ["a", "b", "c"]
    # Both SMs' L1s were refilled exactly once each.
    assert s0.sms[0].l1.contains(0)
    assert s0.sms[1].l1.contains(0)
    assert s0.sms[1].l1.stats["fills"] == 1
    # The coalesce list was recycled through the socket's pool.
    assert s0._waiter_pool == [[]]


def test_writepath_clears_its_callback_on_release():
    (s0, _s1), engine, _ = build_pair()
    s0.access(0, 0, True, lambda: None)
    engine.run()
    walker = s0._write_pool[0]
    assert isinstance(walker, WritePath)
    assert walker.on_done is None  # no stale callback retained
