"""Property-based tests (hypothesis) on core invariants."""

import random

import pytest
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


# ---------------------------------------------------------------------------
# differential cache fuzz: SetAssocCache vs a way-order reference
# ---------------------------------------------------------------------------

_CACHE_COUNTERS = tuple(attr for attr, _key in SetAssocCache._STAT_FIELDS)


class _ReferenceCache:
    """Every frame built up front; every victim found by a way-order scan.

    The definition :class:`SetAssocCache` must match: first invalid
    frame in way order, else plain LRU (unpartitioned), or the
    class-quota rules of lazy repartitioning (partitioned). Frames are
    ``[line, cls, dirty, home]``; ``order[s]`` lists set ``s``'s valid
    ways from LRU to MRU.
    """

    def __init__(self, n_sets, n_ways, local_ways, write_through):
        self.n_sets = n_sets
        self.n_ways = n_ways
        self.write_through = write_through
        self.frames = [
            [[None, 0, False, -1] for _ in range(n_ways)]
            for _ in range(n_sets)
        ]
        self.order = [[] for _ in range(n_sets)]
        self.quota = (
            None if local_ways is None else [local_ways, n_ways - local_ways]
        )
        self.counters = dict.fromkeys(_CACHE_COUNTERS, 0)
        # A cache built partitioned sets its first quotas at construction.
        self.counters["n_repartitions"] = int(local_ways is not None)

    def _find(self, line):
        s = line % self.n_sets
        for w, frame in enumerate(self.frames[s]):
            if frame[0] == line:
                return s, w
        return s, None

    def _touch(self, s, w):
        self.order[s].remove(w)
        self.order[s].append(w)

    def _victim(self, s, cls):
        frames = self.frames[s]
        order = self.order[s]
        invalid = [w for w in range(self.n_ways) if frames[w][0] is None]
        if self.quota is None:
            return invalid[0] if invalid else order[0]
        own = sum(1 for w in order if frames[w][1] == cls)
        if own >= self.quota[cls]:
            return next(w for w in order if frames[w][1] == cls)
        if invalid:
            return invalid[0]
        other = 1 - cls
        if len(order) - own > self.quota[other]:
            return next(w for w in order if frames[w][1] == other)
        return order[0]

    def _insert(self, line, cls, dirty, home):
        s = line % self.n_sets
        w = self._victim(s, cls)
        frame = self.frames[s][w]
        evicted = None
        if frame[0] is not None:
            evicted = (frame[0], frame[1], frame[2])
            self.counters["n_evictions"] += 1
            if frame[2]:
                self.counters["n_dirty_evictions"] += 1
            self.order[s].remove(w)
        self.frames[s][w] = [line, cls, dirty, home]
        self.order[s].append(w)
        self.counters["n_fills"] += 1
        return evicted

    def lookup(self, line, write):
        s, w = self._find(line)
        kind = "write" if write else "read"
        if w is None:
            self.counters[f"n_{kind}_misses"] += 1
            return False
        self._touch(s, w)
        if write and not self.write_through:
            self.frames[s][w][2] = True
        self.counters[f"n_{kind}_hits"] += 1
        return True

    def fill(self, line, cls, dirty):
        s, w = self._find(line)
        if w is not None:
            self._touch(s, w)
            self.frames[s][w][2] = self.frames[s][w][2] or dirty
            return None
        return self._insert(line, cls, dirty, -1)

    def refill(self, line, cls, home):
        s, w = self._find(line)
        if w is not None:
            self._touch(s, w)
            self.frames[s][w][3] = home
            return
        self._insert(line, cls, False, home)

    def drop(self, line):
        s, w = self._find(line)
        if w is None:
            return False
        self.frames[s][w] = [None, self.frames[s][w][1], False, -1]
        self.order[s].remove(w)
        self.counters["n_drops"] += 1
        return True

    def invalidate(self, cls=None):
        dirty = []
        count = 0
        for s, frames in enumerate(self.frames):
            for w, frame in enumerate(frames):
                if frame[0] is None or (cls is not None and frame[1] != cls):
                    continue
                count += 1
                if frame[2]:
                    dirty.append((frame[0], frame[1]))
                frames[w] = [None, frame[1], False, -1]
                self.order[s].remove(w)
        self.counters["n_invalidations"] += 1
        self.counters["n_lines_invalidated"] += count
        return dirty

    def set_quotas(self, local_ways, remote_ways):
        if local_ways + remote_ways != self.n_ways or min(
            local_ways, remote_ways
        ) < 1:
            return False
        self.quota = [local_ways, remote_ways]
        self.counters["n_repartitions"] += 1
        return True


def _cache_state(cache):
    """Per-set way layout and recency order, resident lines, counters."""
    layout = []
    recency = []
    for s in range(cache.n_sets):
        frames = cache._sets[s] or []
        assert len(frames) <= cache.n_ways
        layout.append(
            [
                None if w.line is None else (w.line, w.cls, w.dirty, w.home)
                for w in frames
            ]
            + [None] * (cache.n_ways - len(frames))
        )
        order = []
        sent = cache._lru[s]
        way = sent.nxt if sent is not None else None
        while way is not sent:
            order.append(way.line)
            way = way.nxt
        recency.append(order)
    counters = {attr: getattr(cache, attr) for attr in _CACHE_COUNTERS}
    return layout, recency, counters


def _reference_state(ref):
    layout = [
        [None if f[0] is None else tuple(f) for f in frames]
        for frames in ref.frames
    ]
    recency = [
        [ref.frames[s][w][0] for w in order]
        for s, order in enumerate(ref.order)
    ]
    return layout, recency, dict(ref.counters)


def _cache_ops(n_lines):
    """Cache ops over ``n_lines`` lines, fills and drops weighted up so
    sequences reach full sets and holes before an invalidation."""
    lines = st.integers(0, n_lines - 1)
    cls = st.integers(0, 1)
    fill = st.tuples(st.just("fill"), lines, cls, st.booleans())
    fill_fast = st.tuples(st.just("fill_fast"), lines, cls, st.booleans())
    refill = st.tuples(st.just("refill"), lines, cls, st.integers(-1, 3))
    drop = st.tuples(st.just("drop"), lines)
    return st.one_of(
        fill, fill_fast, fill_fast, refill, refill, drop, drop,
        st.tuples(st.just("lookup"), lines, st.booleans()),
        st.tuples(st.just("invalidate_class"), cls),
        st.tuples(st.just("invalidate_all")),
        st.tuples(st.just("set_quotas"), st.integers(0, 4)),
    )


@st.composite
def _cache_scenarios(draw):
    """A small geometry and 20-120 ops over one line more per set than
    the set holds, so drops and refills hit resident lines often."""
    n_sets = draw(st.sampled_from([1, 2, 3, 4, 5]))
    n_ways = draw(st.integers(1, 4))
    local_ways = None
    if n_ways >= 2 and draw(st.booleans()):
        local_ways = draw(st.integers(1, n_ways - 1))
    geometry = (n_sets, n_ways, local_ways, draw(st.booleans()))
    ops = draw(
        st.lists(_cache_ops(n_sets * (n_ways + 1)), min_size=20, max_size=120)
    )
    return geometry, ops


def _run_cache_ops(geometry, ops):
    """Apply ``ops`` to both caches, asserting equal results and state."""
    from repro.errors import CacheError

    n_sets, n_ways, local_ways, write_through = geometry
    config = CacheConfig(capacity_bytes=n_sets * n_ways * 128, ways=n_ways)
    cache = SetAssocCache(
        "fuzz", config, local_ways=local_ways, write_through=write_through
    )
    ref = _ReferenceCache(n_sets, n_ways, local_ways, write_through)
    classes = (NumaClass.LOCAL, NumaClass.REMOTE)
    for op in ops:
        kind = op[0]
        if kind == "fill":
            got = cache.fill(op[1], classes[op[2]], dirty=op[3])
            want = ref.fill(op[1], op[2], op[3])
            if got is not None:
                got = (got.line, got.numa_class.value, got.dirty)
            assert got == want, op
        elif kind == "fill_fast":
            want = ref.fill(op[1], op[2], op[3])
            packed = -1
            if want is not None and want[2]:
                packed = (want[0] << 1) | want[1]
            assert cache.fill_fast(op[1], op[2], op[3]) == packed, op
        elif kind == "refill":
            cache.refill(op[1], classes[op[2]], op[3])
            ref.refill(op[1], op[2], op[3])
        elif kind == "lookup":
            assert cache.lookup(op[1], write=op[2]) == ref.lookup(op[1], op[2])
        elif kind == "drop":
            assert cache.drop(op[1]) == ref.drop(op[1]), op
        elif kind in ("invalidate_class", "invalidate_all"):
            if kind == "invalidate_all":
                got, want = cache.invalidate_all(), ref.invalidate()
            else:
                got = cache.invalidate_class(classes[op[1]])
                want = ref.invalidate(op[1])
            assert [(e.line, e.numa_class.value) for e in got] == want, op
            assert all(e.dirty for e in got)
        else:
            local = op[1]
            if ref.set_quotas(local, n_ways - local):
                cache.set_quotas(local, n_ways - local)
            else:
                with pytest.raises(CacheError):
                    cache.set_quotas(local, n_ways - local)
        assert _cache_state(cache) == _reference_state(ref), op
    return cache


@settings(max_examples=300, deadline=None)
@given(_cache_scenarios())
def test_cache_matches_way_order_reference(scenario):
    """Victims, packed dirty returns, resident lines, per-set way layout
    and recency order, and every counter match the reference after each
    op — on partitioned and unpartitioned caches, power-of-two and odd
    set counts, and caches partitioned mid-run."""
    _run_cache_ops(*scenario)


def test_cache_fill_after_drop_takes_the_hole_in_way_order():
    # A drop leaves an invalid frame before valid ones; the next fill
    # must reuse it (way order), not append a new frame.
    cache = _run_cache_ops(
        (1, 4, None, False),
        [("fill", 0, 0, False), ("fill", 1, 0, False), ("fill", 2, 0, False),
         ("drop", 0), ("fill", 3, 0, False), ("fill", 4, 0, False)],
    )
    assert [w.line for w in cache._sets[0]] == [3, 1, 2, 4]
    assert not cache._holey


def test_cache_class_invalidation_hole_then_partitioned_fill():
    _run_cache_ops(
        (2, 4, 2, False),
        [("fill", 0, 1, True), ("fill", 2, 0, True), ("fill", 4, 1, False),
         ("invalidate_class", 1), ("fill", 6, 1, False),
         ("set_quotas", 1), ("fill", 8, 0, True), ("fill", 10, 0, False),
         ("fill", 12, 0, False), ("invalidate_all",), ("fill", 14, 1, True)],
    )


def test_cache_partitioned_mid_run_after_holes():
    _run_cache_ops(
        (3, 3, None, True),
        [("fill_fast", 0, 0, True), ("fill_fast", 3, 1, False),
         ("refill", 6, 1, 2), ("drop", 3), ("set_quotas", 2),
         ("fill_fast", 9, 1, True), ("fill_fast", 12, 1, False),
         ("lookup", 0, True), ("fill_fast", 15, 0, False)],
    )
