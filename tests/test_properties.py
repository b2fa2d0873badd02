"""Property-based tests (hypothesis) on core invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, LINE_SIZE, LinkConfig, scaled_config
from repro.interconnect.link import Direction, DuplexLink
from repro.locality import CTA_POLICIES, PlacementSpec
from repro.memory.cache import NumaClass, SetAssocCache
from repro.memory.page_table import PageTable
from repro.sim.engine import Engine
from repro.sim.resource import BandwidthResource, UtilizationWindow
from repro.workloads.patterns import (
    PatternGeometry,
    PatternKind,
    Region,
    generate_addresses,
)

lines = st.integers(min_value=0, max_value=4096)
classes = st.sampled_from([NumaClass.LOCAL, NumaClass.REMOTE])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(lines, classes, st.booleans()), max_size=300))
def test_cache_capacity_invariant(fills):
    """No fill sequence ever exceeds total capacity or per-set ways."""
    cache = SetAssocCache(
        "p", CacheConfig(capacity_bytes=4 * 8 * 128, ways=4)
    )
    for line, numa_class, dirty in fills:
        cache.fill(line, numa_class, dirty=dirty)
        assert cache.valid_lines <= 32
    per_set: dict[int, int] = {}
    for line in list(cache._where):
        per_set[line % cache.n_sets] = per_set.get(line % cache.n_sets, 0) + 1
    assert all(count <= cache.n_ways for count in per_set.values())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(lines, classes), min_size=1, max_size=300),
    st.integers(min_value=1, max_value=3),
)
def test_partitioned_cache_respects_quota_eventually(fills, local_ways):
    """Once frames are all valid, each class stays within its quota +
    whatever the other class under-uses (lazy eviction bound)."""
    cache = SetAssocCache(
        "p",
        CacheConfig(capacity_bytes=4 * 1 * 128, ways=4),
        local_ways=local_ways,
        remote_ways=4 - local_ways,
    )
    for line, numa_class in fills:
        cache.fill(line % 64, numa_class)
    # Filled lines of a class never exceed quota once the set is full,
    # except lines grandfathered by laziness; a full sweep of one class
    # settles to its quota.
    for line in range(64):
        cache.fill(line, NumaClass.LOCAL)
    occ = cache.occupancy()
    assert occ[NumaClass.LOCAL] <= local_ways * cache.n_sets


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(lines, classes, st.booleans()), max_size=200))
def test_invalidate_returns_exactly_the_dirty_lines(fills):
    cache = SetAssocCache("p", CacheConfig(capacity_bytes=8 * 8 * 128, ways=8))
    expected_dirty = set()
    for line, numa_class, dirty in fills:
        cache.fill(line, numa_class, dirty=dirty)
        if cache.contains(line) and dirty:
            expected_dirty.add(line)
    resident_dirty = {
        line for line in expected_dirty if cache.contains(line)
    }
    reported = {e.line for e in cache.invalidate_all()}
    # Reported dirty lines are resident lines that were ever dirtied.
    assert reported <= resident_dirty
    assert cache.valid_lines == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
             min_size=1, max_size=50)
)
def test_fifo_server_monotonic_and_work_conserving(transfers):
    res = BandwidthResource("p", 4.0)
    last_done = 0
    total_bytes = 0
    for arrival, nbytes in sorted(transfers):
        done = res.service(arrival, nbytes)
        assert done >= last_done  # FIFO ordering
        assert done >= arrival
        last_done = done
        total_bytes += nbytes
    assert res.bytes_total == total_bytes
    # Busy time equals service time of all transfers.
    horizon = last_done + 10_000
    assert abs(res.busy_up_to(horizon) - total_bytes / 4.0) < 1e-6


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=100))
def test_utilization_window_bounded(busy_bytes):
    res = BandwidthResource("p", 2.0)
    win = UtilizationWindow(res)
    now = 0
    for nbytes in busy_bytes:
        res.service(now, nbytes)
        now += 100
        assert 0.0 <= win.sample(now) <= 1.0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lane_conservation_under_random_turns(data):
    engine = Engine()
    link = DuplexLink(0, LinkConfig(), engine)
    for _ in range(data.draw(st.integers(0, 30))):
        direction = data.draw(st.sampled_from([Direction.EGRESS, Direction.INGRESS]))
        donor = direction.other
        if link.lanes(donor) > link.config.min_lanes:
            link.turn_lane(direction, switch_time=10)
        assert link.total_lanes == 16
        assert link.lanes(Direction.EGRESS) >= 1
        assert link.lanes(Direction.INGRESS) >= 1
    engine.run()
    assert link.total_lanes == 16


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(["contiguous", "interleaved"]),
)
def test_cta_assignment_is_a_partition(n_ctas, n_sockets, kind):
    blocks = CTA_POLICIES[kind]().assign(n_ctas, range(n_sockets))
    flat = sorted(i for block in blocks for i in block)
    assert flat == list(range(n_ctas))
    sizes = [len(b) for b in blocks]
    assert max(sizes) - min(sizes) <= 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**40), st.integers(0, 3))
def test_placement_is_deterministic_and_in_range(addr, accessor):
    cfg = scaled_config(n_sockets=4)
    for kind in ("fine_interleave", "page_interleave"):
        from dataclasses import replace

        table = PageTable(
            replace(cfg, placement_spec=PlacementSpec(kind=kind))
        )
        home1, _ = table.translate(addr, accessor)
        home2, _ = table.translate(addr, accessor)
        assert home1 == home2
        assert 0 <= home1 < 4


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(list(PatternKind)),
    st.integers(0, 63),
    st.integers(1, 64),
    st.integers(0, 10),
    st.integers(0, 10_000),
)
def test_pattern_addresses_always_line_aligned_and_bounded(
    kind, cta, n_ops, slice_index, phase_offset
):
    private = Region(0, 2048 * LINE_SIZE)
    shared = Region(private.end, 256 * LINE_SIZE)
    output = Region(shared.end, 32 * LINE_SIZE)
    geo = PatternGeometry(64, private, shared, output)
    addrs = generate_addresses(
        kind, geo, cta, n_ops, random.Random(1), slice_index, phase_offset
    )
    assert len(addrs) == n_ops
    for addr in addrs:
        assert addr % LINE_SIZE == 0
        assert 0 <= addr < output.end


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 5)), max_size=60))
def test_engine_clock_never_goes_backwards(events):
    engine = Engine()
    seen = []
    for delay, _tag in events:
        engine.schedule(delay, lambda: seen.append(engine.now))
    engine.run()
    assert seen == sorted(seen)
