"""Set-associative cache with NUMA-class way partitioning (Section 5).

One cache class serves every configuration in Figure 7:

* an unpartitioned LRU cache (the default: ``local_ways=None``),
* a statically partitioned cache (fixed local/remote way quotas — the
  "Static R$" organization (b)),
* the dynamically partitioned NUMA-aware cache (d), whose quotas are moved
  one way at a time by :class:`repro.core.numa_cache.CachePartitionController`.

Partitioning follows the paper's "lazy eviction" rule: *all* ways are
consulted on lookup, so shrinking a class's quota never flushes lines; the
quota only steers victim selection on the next fill.

Lines are tagged with a :class:`NumaClass` (LOCAL = backed by this socket's
DRAM, REMOTE = backed by another socket's DRAM) and a dirty bit. The cache
is purely functional — latency and bandwidth are charged by the socket
model — but it reports evictions and invalidation casualties so write-back
traffic can be charged by the caller.

Hot-path notes (see DESIGN.md, "Hot-path architecture"): lookups and
fills run millions of times per simulation, so internally the class tag
is a plain int (``NumaClass.value``), quotas live in an int-indexed list
rather than an enum-keyed dict, set indexing uses a precomputed mask when
the set count is a power of two, and statistics are slotted integer
counters flattened into the ``stats`` :class:`~repro.sim.stats.StatGroup`
only when it is read.

Recency is an intrusive per-set linked list rather than timestamp scans:
every set keeps a circular doubly-linked list of its *valid* frames in
LRU -> MRU order (a sentinel ``_Way`` is both head and tail). A touch
moves the frame to the MRU end, so victim selection is O(1) for plain
LRU and a short walk from the LRU end for the partitioned class-LRU
scans — no 16-way timestamp pass per fill. This is exactly equivalent to
the previous global-tick scheme: ticks were strictly increasing and
unique per touch, so ascending-timestamp order *is* list order, and the
first-minimal tie-break cannot trigger. Invalid frames are never linked.

Frames are built on demand: a set's frame list starts empty and grows
one frame per fill into a set that is not full, up to ``n_ways``, so a
short run builds only the frames it fills. Victim choice in a set that
is not full keeps the historical rule "first invalid frame in way
order" in O(1): fills and evictions never invalidate a frame, so the
invalid frames of a set are a suffix of its list, and the first of them
is ``cache_set[valid count]`` — or a new frame when every built frame is
valid (a frame never built is invalid, last in way order). Only
:meth:`SetAssocCache.drop` and :meth:`SetAssocCache.invalidate_class`
can punch a hole (an invalid frame before a valid one); they mark the
set *holey*, and a holey set falls back to the way-order scan until the
scan finds the suffix restored. :meth:`SetAssocCache.invalidate_all`
leaves every frame invalid and clears every mark.
"""

from __future__ import annotations

import enum

from dataclasses import dataclass

from repro.config import CacheConfig
from repro.errors import CacheError
from repro.sim.stats import StatGroup, flatten_slots


class NumaClass(enum.Enum):
    """Whether a cached line is backed by local or remote DRAM."""

    LOCAL = 0
    REMOTE = 1

    @property
    def other(self) -> "NumaClass":
        """The opposite class."""
        return NumaClass.REMOTE if self is NumaClass.LOCAL else NumaClass.LOCAL


#: Enum instances indexed by their int value (hot-path int -> enum).
_CLASS_BY_VALUE = (NumaClass.LOCAL, NumaClass.REMOTE)


@dataclass(slots=True)
class EvictedLine:
    """What fell out of the cache on a fill or invalidation."""

    line: int
    numa_class: NumaClass
    dirty: bool


class _Way:
    """One line frame: tag + metadata (plain attributes for speed).

    ``cls`` holds the int value of the line's :class:`NumaClass` so the
    victim scan compares ints instead of hashing enum members. ``prev``/
    ``nxt`` link the frame into its set's recency list while it is valid
    (stale otherwise — frames are unlinked whenever they invalidate);
    ``sent`` points at the set's sentinel so a touch can reach the MRU
    end without recomputing the set index. ``home`` is the L1 fast-path
    home-socket hint (-1 = unknown): set from the settled line record on
    refill, reset whenever a frame is reassigned to a new line, and
    cleared by the page table when the line's page re-homes — a hint
    >= 0 therefore always equals the line record's settled home, so the
    access path may trust it without a record probe.

    Frames are built bare — ``_Way()`` runs no Python code, which keeps
    frame construction off the per-fill call count — so every slot is
    assigned before it is read: a new frame gets ``line = None`` and its
    ``sent`` where it is built, and the fill that takes it sets the rest.
    """

    __slots__ = ("line", "cls", "dirty", "home", "prev", "nxt", "sent")


class SetAssocCache:
    """A set-associative, class-aware, LRU cache.

    Parameters
    ----------
    name:
        Identifier for stats.
    config:
        Geometry (sets derived from capacity / ways / line size).
    local_ways / remote_ways:
        Initial per-set quotas for a *partitioned* cache; they must sum
        to ``config.ways`` and leave each class at least one way (see
        :meth:`set_quotas`). An unpartitioned cache leaves
        ``local_ways=None`` (the default): victim selection is then plain
        global LRU and :meth:`quota` reports the full associativity for
        both classes.
    """

    __slots__ = (
        "name",
        "config",
        "write_through",
        "n_sets",
        "n_ways",
        "line_size",
        "_sets",
        "_where",
        "_set_mask",
        "_set_valid",
        "_set_local",
        "_set_remote",
        "_holey",
        "_lru",
        "_stats",
        "partitioned",
        "_quota",
        "n_read_hits",
        "n_read_misses",
        "n_write_hits",
        "n_write_misses",
        "n_fills",
        "n_evictions",
        "n_dirty_evictions",
        "n_drops",
        "n_invalidations",
        "n_lines_invalidated",
        "n_repartitions",
    )

    #: slotted counter -> public stats key (see repro.sim.stats).
    _STAT_FIELDS = (
        ("n_read_hits", "read_hits"),
        ("n_read_misses", "read_misses"),
        ("n_write_hits", "write_hits"),
        ("n_write_misses", "write_misses"),
        ("n_fills", "fills"),
        ("n_evictions", "evictions"),
        ("n_dirty_evictions", "dirty_evictions"),
        ("n_drops", "drops"),
        ("n_invalidations", "invalidations"),
        ("n_lines_invalidated", "lines_invalidated"),
        ("n_repartitions", "repartitions"),
    )

    def __init__(
        self,
        name: str,
        config: CacheConfig,
        local_ways: int | None = None,
        remote_ways: int | None = None,
        write_through: bool = False,
    ) -> None:
        self.name = name
        self.config = config
        #: write-through caches never hold dirty lines (writes propagate
        #: immediately), so their invalidations produce no write-backs.
        self.write_through = write_through
        self.n_sets = config.n_sets
        self.n_ways = config.ways
        self.line_size = config.line_size
        # Frames are built on demand: a set's list is allocated on its
        # first fill and grows one frame per fill into a set that is not
        # full (see the module docstring for the suffix invariant).
        self._sets: list[list[_Way] | None] = [None] * self.n_sets
        self._where: dict[int, _Way] = {}
        # line -> set index is `line % n_sets`; a power-of-two set count
        # (every Table 1 geometry) reduces that to a bit mask.
        self._set_mask = (
            self.n_sets - 1 if self.n_sets & (self.n_sets - 1) == 0 else None
        )
        # Valid frames per set: a full set (the steady state) takes the
        # LRU list head in O(1); a set that is not full indexes its first
        # invalid frame with this count (_free_frame). The
        # per-class split (local/remote) gives the partitioned victim
        # scan its occupancy test without a counting pass over the set.
        self._set_valid = [0] * self.n_sets
        self._set_local = [0] * self.n_sets
        self._set_remote = [0] * self.n_sets
        #: indices of sets whose invalid frames may not form a suffix of
        #: their frame list (a drop or class invalidation left a hole).
        self._holey: set[int] = set()
        #: per-set recency-list sentinels (allocated with the set).
        self._lru: list[_Way | None] = [None] * self.n_sets
        self._stats = StatGroup(name)
        self.n_read_hits = 0
        self.n_read_misses = 0
        self.n_write_hits = 0
        self.n_write_misses = 0
        self.n_fills = 0
        self.n_evictions = 0
        self.n_dirty_evictions = 0
        self.n_drops = 0
        self.n_invalidations = 0
        self.n_lines_invalidated = 0
        self.n_repartitions = 0
        self.partitioned = local_ways is not None
        if local_ways is None:
            self._quota = [self.n_ways, self.n_ways]
        else:
            if remote_ways is None:
                remote_ways = self.n_ways - local_ways
            self.set_quotas(local_ways, remote_ways)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    @property
    def stats(self) -> StatGroup:
        """Counter view; slotted ints are flattened on every read."""
        return flatten_slots(self, self._STAT_FIELDS, self._stats)

    # ------------------------------------------------------------------
    # quotas
    # ------------------------------------------------------------------
    def set_quotas(self, local_ways: int, remote_ways: int) -> None:
        """Repartition the per-set way quotas (lazy: no eviction here)."""
        if local_ways + remote_ways != self.n_ways:
            raise CacheError(
                f"{self.name}: quotas {local_ways}+{remote_ways} != {self.n_ways} ways"
            )
        if local_ways < 1 or remote_ways < 1:
            raise CacheError(
                f"{self.name}: each class needs at least one way "
                f"(got local={local_ways}, remote={remote_ways})"
            )
        if not self.partitioned:
            # Class-occupancy counters are not maintained while running
            # unpartitioned; bring them up to date before they matter.
            self._rebuild_class_counts()
        self.partitioned = True
        self._quota = [local_ways, remote_ways]
        self.n_repartitions += 1

    def quota(self, numa_class: NumaClass) -> int:
        """Current per-set way quota for a class."""
        return self._quota[numa_class.value]

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def lookup(self, line: int, write: bool = False) -> bool:
        """Probe for ``line``; updates LRU and dirty state on hit.

        All ways are consulted regardless of partitioning (the paper's
        lazy-eviction rule), so a line filled under an old quota still
        hits after repartitioning.
        """
        way = self._where.get(line)
        if way is None:
            if write:
                self.n_write_misses += 1
            else:
                self.n_read_misses += 1
            return False
        sent = way.sent
        if way.nxt is not sent:
            # Move to the MRU end (no-op when already most recent).
            p = way.prev
            n = way.nxt
            p.nxt = n
            n.prev = p
            p = sent.prev
            p.nxt = way
            way.prev = p
            way.nxt = sent
            sent.prev = way
        if write:
            if not self.write_through:
                way.dirty = True
            self.n_write_hits += 1
        else:
            self.n_read_hits += 1
        return True

    def contains(self, line: int) -> bool:
        """Non-mutating probe (no LRU update, no stats)."""
        return line in self._where

    def fill(
        self, line: int, numa_class: NumaClass, dirty: bool = False
    ) -> EvictedLine | None:
        """Insert ``line``; returns the victim if a valid line was evicted.

        Victim selection under partitioning: if the incoming class already
        occupies at least its quota in the set, evict the LRU line of that
        same class; otherwise prefer an invalid frame, then the LRU line of
        whichever class exceeds its quota, then the global LRU. This
        implements lazy repartitioning.
        """
        where = self._where
        existing = where.get(line)
        if existing is not None:
            self._touch(existing)
            existing.dirty = existing.dirty or dirty
            return None
        # `is` avoids the enum's DynamicClassAttribute descriptor on .value.
        cls = 1 if numa_class is NumaClass.REMOTE else 0
        mask = self._set_mask
        set_idx = line & mask if mask is not None else line % self.n_sets
        cache_set = self._sets[set_idx]
        if cache_set is None:
            cache_set = self._alloc_set(set_idx)
        victim = self._choose_victim(cache_set, set_idx, cls)
        evicted: EvictedLine | None = None
        vline = victim.line
        if vline is not None:
            del where[vline]
            p = victim.prev
            n = victim.nxt
            p.nxt = n
            n.prev = p
            evicted = EvictedLine(
                vline, _CLASS_BY_VALUE[victim.cls], victim.dirty
            )
            self.n_evictions += 1
            if victim.dirty:
                self.n_dirty_evictions += 1
            if self.partitioned and victim.cls != cls:
                self._retag_set_counts(set_idx, victim.cls, cls)
        else:
            self._set_valid[set_idx] += 1
            if self.partitioned:
                self._retag_set_counts(set_idx, None, cls)
        victim.line = line
        victim.cls = cls
        victim.dirty = dirty
        victim.home = -1
        sent = victim.sent
        p = sent.prev
        p.nxt = victim
        victim.prev = p
        victim.nxt = sent
        sent.prev = victim
        where[line] = victim
        self.n_fills += 1
        return evicted

    def fill_fast(self, line: int, cls: int, dirty: bool = False) -> int:
        """:meth:`fill` with an int class tag and a packed-victim return.

        The fused miss pipeline (:mod:`repro.sim.path`) only ever needs a
        victim when it was *dirty* — clean victims charge no write-back
        traffic — so this variant skips the :class:`EvictedLine`
        allocation entirely and returns ``-1`` unless a dirty line was
        evicted, in which case it returns ``(victim_line << 1) |
        victim_class``. State mutations and counters are identical to
        ``fill(line, numa_class, dirty)``.
        """
        where = self._where
        existing = where.get(line)
        if existing is not None:
            self._touch(existing)
            existing.dirty = existing.dirty or dirty
            return -1
        mask = self._set_mask
        set_idx = line & mask if mask is not None else line % self.n_sets
        cache_set = self._sets[set_idx]
        if cache_set is None:
            cache_set = self._alloc_set(set_idx)
        # Hot victim cases inlined from _choose_victim: a full
        # unpartitioned set takes the LRU head; a partitioned set whose
        # incoming class is at/over quota takes that class's LRU frame;
        # a set that is not full takes its first invalid frame (inlined
        # from _free_frame for a set with no hole).
        n_valid = self._set_valid[set_idx]
        victim = None
        if self.partitioned:
            count_own = (
                self._set_remote[set_idx] if cls else self._set_local[set_idx]
            )
            if count_own >= self._quota[cls]:
                victim = self._lru[set_idx].nxt
                while victim.cls != cls:
                    victim = victim.nxt
            elif n_valid == self.n_ways:
                victim = self._choose_victim(cache_set, set_idx, cls)
        elif n_valid == self.n_ways:
            victim = self._lru[set_idx].nxt
        if victim is None:
            if set_idx in self._holey:
                victim = self._free_frame(cache_set, set_idx)
            elif n_valid < len(cache_set):
                victim = cache_set[n_valid]
            else:
                victim = _Way()
                victim.line = None
                victim.sent = self._lru[set_idx]
                cache_set.append(victim)
        packed = -1
        vline = victim.line
        if vline is not None:
            del where[vline]
            p = victim.prev
            n = victim.nxt
            p.nxt = n
            n.prev = p
            self.n_evictions += 1
            if victim.dirty:
                self.n_dirty_evictions += 1
                packed = (vline << 1) | victim.cls
            if self.partitioned and victim.cls != cls:
                self._retag_set_counts(set_idx, victim.cls, cls)
        else:
            self._set_valid[set_idx] += 1
            if self.partitioned:
                self._retag_set_counts(set_idx, None, cls)
        victim.line = line
        victim.cls = cls
        victim.dirty = dirty
        victim.home = -1
        sent = victim.sent
        p = sent.prev
        p.nxt = victim
        victim.prev = p
        victim.nxt = sent
        sent.prev = victim
        where[line] = victim
        self.n_fills += 1
        return packed

    def refill(self, line: int, numa_class: NumaClass, home: int = -1) -> None:
        """:meth:`fill` minus victim reporting, for clean refills.

        The socket's read-return path refills write-through L1s whose
        victims are never dirty and always discarded by the caller, so
        constructing an :class:`EvictedLine` per refill is pure waste.
        State mutations and counters are identical to
        ``fill(line, numa_class)``. ``home`` seeds the frame's fast-path
        home hint (the caller passes the line record's settled home, or
        -1); the hint never alters observable behavior — only which
        probe resolves the home on a later hit.
        """
        where = self._where
        existing = where.get(line)
        if existing is not None:
            self._touch(existing)
            existing.home = home
            return
        cls = 1 if numa_class is NumaClass.REMOTE else 0
        mask = self._set_mask
        set_idx = line & mask if mask is not None else line % self.n_sets
        cache_set = self._sets[set_idx]
        if cache_set is None:
            cache_set = self._alloc_set(set_idx)
        # Hot victim cases inlined (see fill_fast).
        n_valid = self._set_valid[set_idx]
        victim = None
        if self.partitioned:
            count_own = (
                self._set_remote[set_idx] if cls else self._set_local[set_idx]
            )
            if count_own >= self._quota[cls]:
                victim = self._lru[set_idx].nxt
                while victim.cls != cls:
                    victim = victim.nxt
            elif n_valid == self.n_ways:
                victim = self._choose_victim(cache_set, set_idx, cls)
        elif n_valid == self.n_ways:
            victim = self._lru[set_idx].nxt
        if victim is None:
            if set_idx in self._holey:
                victim = self._free_frame(cache_set, set_idx)
            elif n_valid < len(cache_set):
                victim = cache_set[n_valid]
            else:
                victim = _Way()
                victim.line = None
                victim.sent = self._lru[set_idx]
                cache_set.append(victim)
        vline = victim.line
        if vline is not None:
            del where[vline]
            p = victim.prev
            n = victim.nxt
            p.nxt = n
            n.prev = p
            self.n_evictions += 1
            if victim.dirty:
                self.n_dirty_evictions += 1
            if self.partitioned and victim.cls != cls:
                self._retag_set_counts(set_idx, victim.cls, cls)
        else:
            self._set_valid[set_idx] += 1
            if self.partitioned:
                self._retag_set_counts(set_idx, None, cls)
        victim.line = line
        victim.cls = cls
        victim.dirty = False
        victim.home = home
        sent = victim.sent
        p = sent.prev
        p.nxt = victim
        victim.prev = p
        victim.nxt = sent
        sent.prev = victim
        where[line] = victim
        self.n_fills += 1

    # ------------------------------------------------------------------
    # recency-list plumbing
    # ------------------------------------------------------------------
    def _alloc_set(self, set_idx: int) -> list[_Way]:
        """Allocate one set's (empty) frame list and recency sentinel."""
        sent = _Way()
        sent.line = None
        sent.cls = -1  # never matches a class-LRU walk
        sent.prev = sent
        sent.nxt = sent
        self._lru[set_idx] = sent
        cache_set = self._sets[set_idx] = []
        return cache_set

    def _free_frame(self, cache_set: list[_Way], set_idx: int) -> _Way:  # repro-lint: hot
        """The first invalid frame, in way order, of a set that is not full.

        Outside a holey set the invalid frames are a suffix of the list,
        so the answer is the frame just past the valid ones, or a new
        frame when every built frame is valid. A holey set scans in way
        order; a scan that finds no hole before the suffix clears the
        mark.
        """
        n_valid = self._set_valid[set_idx]
        holey = self._holey
        if set_idx in holey:
            first = 0
            for way in cache_set:
                if way.line is None:
                    break
                first += 1
            if first < n_valid:
                return cache_set[first]
            holey.discard(set_idx)
        if n_valid < len(cache_set):
            return cache_set[n_valid]
        way = _Way()
        way.line = None
        way.sent = self._lru[set_idx]
        cache_set.append(way)
        return way

    def release(self) -> None:
        """Unlink every recency list, the cache's only reference cycles.

        Teardown only: the owning system calls this as it dies (DESIGN.md,
        "Heap release"), so reference counting can free the frames. The
        cache must not be used afterwards.
        """
        for sent in self._lru:
            if sent is not None:
                sent.prev = sent.nxt = None
        for cache_set in self._sets:
            if cache_set is not None:
                for way in cache_set:
                    way.prev = way.nxt = None

    def _touch(self, way: _Way) -> None:
        """Move a valid frame to the MRU end of its set's recency list."""
        sent = way.sent
        if way.nxt is sent:
            return
        p = way.prev
        n = way.nxt
        p.nxt = n
        n.prev = p
        p = sent.prev
        p.nxt = way
        way.prev = p
        way.nxt = sent
        sent.prev = way

    def _retag_set_counts(self, set_idx: int, old_cls: int | None, new_cls: int) -> None:
        """Move one frame between the per-set class-occupancy counters."""
        if old_cls is not None:
            if old_cls:
                self._set_remote[set_idx] -= 1
            else:
                self._set_local[set_idx] -= 1
        if new_cls:
            self._set_remote[set_idx] += 1
        else:
            self._set_local[set_idx] += 1

    def _rebuild_class_counts(self) -> None:
        """Recount per-set class occupancy from the frames.

        Needed once when a cache constructed unpartitioned is partitioned
        at runtime via :meth:`set_quotas` — until then the class counters
        are not maintained on the (hotter) unpartitioned fill path.
        """
        local = [0] * self.n_sets
        remote = [0] * self.n_sets
        for set_idx, cache_set in enumerate(self._sets):
            if cache_set is None:
                continue
            for way in cache_set:
                if way.line is None:
                    continue
                if way.cls:
                    remote[set_idx] += 1
                else:
                    local[set_idx] += 1
        self._set_local = local
        self._set_remote = remote

    def _choose_victim(self, cache_set: list[_Way], set_idx: int, incoming: int) -> _Way:
        """Pick the frame to replace for an incoming line of class ``incoming``.

        The recency list makes the steady state O(1): a full
        unpartitioned set evicts the list head (the LRU frame); the
        partitioned scans walk from the LRU end and stop at the first
        frame of the wanted class (only valid frames are linked, so no
        validity test is needed mid-walk). A set that is not full takes
        :meth:`_free_frame`. Equivalent to the historical
        ascending-timestamp scans — see the module docstring.
        """
        if not self.partitioned:
            if self._set_valid[set_idx] == self.n_ways:
                return self._lru[set_idx].nxt
            return self._free_frame(cache_set, set_idx)
        if incoming:
            count_own = self._set_remote[set_idx]
            count_other = self._set_local[set_idx]
        else:
            count_own = self._set_local[set_idx]
            count_other = self._set_remote[set_idx]
        if count_own >= self._quota[incoming]:
            # LRU frame of the incoming class (walk from the LRU end;
            # occupancy >= quota >= 1 guarantees a match).
            way = self._lru[set_idx].nxt
            while way.cls != incoming:
                way = way.nxt
            return way
        if self._set_valid[set_idx] < self.n_ways:
            return self._free_frame(cache_set, set_idx)
        other = 1 - incoming
        if count_other > self._quota[other]:
            # The set is full here, so every way is linked and the class
            # test alone suffices.
            way = self._lru[set_idx].nxt
            while way.cls != other:
                way = way.nxt
            return way
        return self._lru[set_idx].nxt

    # ------------------------------------------------------------------
    # invalidation / write-back
    # ------------------------------------------------------------------
    def invalidate_all(self) -> list[EvictedLine]:
        """Bulk software invalidation: drop everything, return dirty lines.

        Dirty victims must be written back by the caller (they represent
        coherence write-back traffic at kernel boundaries).
        """
        dirty: list[EvictedLine] = []
        count = 0
        set_valid = self._set_valid
        lru = self._lru
        for set_idx, cache_set in enumerate(self._sets):
            # Skipped sets hold no valid line and mutate nothing, so the
            # dirty list keeps its exact set-order traversal.
            if cache_set is None or not set_valid[set_idx]:
                continue
            for way in cache_set:
                if way.line is None:
                    continue
                count += 1
                if way.dirty:
                    dirty.append(
                        EvictedLine(way.line, _CLASS_BY_VALUE[way.cls], True)
                    )
                way.line = None
                way.dirty = False
            sent = lru[set_idx]
            sent.prev = sent
            sent.nxt = sent
        self._where.clear()
        self._holey.clear()
        self._set_valid = [0] * self.n_sets
        self._set_local = [0] * self.n_sets
        self._set_remote = [0] * self.n_sets
        self.n_invalidations += 1
        self.n_lines_invalidated += count
        return dirty

    def drop(self, line: int) -> bool:
        """Invalidate one line without write-back (write-invalidate path).

        Used when a remote write bypasses a locally cached copy: the stale
        copy is dropped rather than updated. Returns True when the line was
        present.
        """
        way = self._where.pop(line, None)
        if way is None:
            return False
        way.line = None
        way.dirty = False
        p = way.prev
        n = way.nxt
        p.nxt = n
        n.prev = p
        mask = self._set_mask
        set_idx = line & mask if mask is not None else line % self.n_sets
        self._set_valid[set_idx] -= 1
        self._holey.add(set_idx)
        if self.partitioned:
            if way.cls:
                self._set_remote[set_idx] -= 1
            else:
                self._set_local[set_idx] -= 1
        self.n_drops += 1
        return True

    def invalidate_class(self, numa_class: NumaClass) -> list[EvictedLine]:
        """Invalidate only lines of one NUMA class (Static R$ flushes)."""
        cls = numa_class.value
        dirty: list[EvictedLine] = []
        count = 0
        set_valid = self._set_valid
        for set_idx, cache_set in enumerate(self._sets):
            if cache_set is None or not set_valid[set_idx]:
                continue
            for way in cache_set:
                if way.line is None or way.cls != cls:
                    continue
                count += 1
                if way.dirty:
                    dirty.append(EvictedLine(way.line, numa_class, True))
                del self._where[way.line]
                way.line = None
                way.dirty = False
                p = way.prev
                n = way.nxt
                p.nxt = n
                n.prev = p
                set_valid[set_idx] -= 1
                self._holey.add(set_idx)
                if self.partitioned:
                    if cls:
                        self._set_remote[set_idx] -= 1
                    else:
                        self._set_local[set_idx] -= 1
        self.n_invalidations += 1
        self.n_lines_invalidated += count
        return dirty

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def occupancy(self) -> dict[NumaClass, int]:
        """Valid line count per class across the whole cache."""
        counts = [0, 0]
        for way in self._where.values():
            counts[way.cls] += 1
        return {NumaClass.LOCAL: counts[0], NumaClass.REMOTE: counts[1]}

    @property
    def valid_lines(self) -> int:
        """Number of valid lines currently resident."""
        return len(self._where)

    def hit_rate(self) -> float:
        """Overall hit rate across reads and writes (0.0 when untouched)."""
        hits = self.n_read_hits + self.n_write_hits
        total = hits + self.n_read_misses + self.n_write_misses
        return hits / total if total else 0.0
