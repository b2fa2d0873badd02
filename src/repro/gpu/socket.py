"""One GPU socket: SMs, L1s, NoC, L2, DRAM, and the link endpoint.

This module implements the full memory access path for every cache
organization in Figure 7:

* ``MEM_SIDE`` (a): the L2 is memory-side at its home socket — it caches
  only lines backed by local DRAM and serves both local SMs and incoming
  remote requests; remote data is cached only in the requester's L1s.
* ``STATIC_RC`` (b): half of the requester's L2 ways are a GPU-side remote
  cache (R$); remote reads probe it before crossing the link.
* ``SHARED_COHERENT`` (c): the whole L2 is GPU-side and coherent; local
  and remote lines contend for capacity under plain LRU.
* ``NUMA_AWARE`` (d): like (c) but with per-class way quotas moved at
  runtime by :class:`repro.core.numa_cache.CachePartitionController`.

Reads coalesce through a socket-level MSHR table (one in-flight fetch per
line; later missers piggyback), writes are write-through at L1 and either
forwarded to the home socket or absorbed dirty into a GPU-side write-back
L2 depending on the organization.

Hot-path notes (DESIGN.md, "Hot-path architecture" and "Fused miss
pipeline"): :meth:`GpuSocket.access_burst` runs once per coalesced issue
run — millions of ops per run — so the three per-op dict probes the
access path used to pay (translation cache, L1 tag store, MSHR table)
are fused into at most one probe of a per-line access record
(:class:`_LineRec`): the L1 frame carries a ``home`` hint for hits, the
record carries the settled translation and the in-flight read walker
(whose fields double as the MSHR waiter list), and the page table
invalidates both on page re-homing. Statistics are counted in slotted
integer attributes flattened into ``stats`` only when that property is
read. Everything downstream of the L1 runs through the fused miss
pipeline of :mod:`repro.sim.path`: one pooled walker per in-flight miss
carries the line through its NoC/L2/link/DRAM hops, each hop at its
exact stepwise cycle (the determinism contract lives in path.py's module
docstring). Single-socket systems get :class:`LocalGpuSocket`, a burst
variant with translation stripped out entirely (see :func:`make_socket`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.config import CacheArch, SystemConfig, WritePolicy
from repro.gpu.cta import CtaExecution, MemOp as _SingleOp, Slice
from repro.gpu.sm import Sm
from repro.interconnect.packets import DATA_BYTES
from repro.memory.cache import SetAssocCache
from repro.memory.coherence import CoherenceDomain, FlushResult
from repro.memory.dram import DramChannel
from repro.memory.page_table import PageTable
from repro.sim.engine import Engine
from repro.sim.path import ReadPath, WritePath, release_walkers
from repro.sim.resource import BandwidthResource
from repro.sim.stats import StatGroup, flatten_slots

OnDone = Callable[[], None]


class _LineRec:
    """Fused per-line access record (one dict probe instead of three).

    ``home`` is the line's settled home socket, or ``-1`` while the
    page's placement charge is unsettled (first_touch pages before their
    claim, and always under dynamic policies, whose touch counters must
    see every access). ``rp`` is the in-flight :class:`ReadPath` for the
    line, or ``None`` — the walker's ``w_sm``/``w_cb``/``w_more`` fields
    *are* the MSHR waiter record, so coalescing a later misser costs two
    list appends and no allocation. Records whose home never settles are
    dropped when their fetch completes, keeping the dict bounded for
    dynamic policies; settled records persist as the translation cache
    and are invalidated by the page table on re-homing.
    """

    __slots__ = ("home", "rp")

    def __init__(self) -> None:
        self.home = -1
        self.rp = None


def _new_waiters() -> list:
    """Fresh coalesced-waiter list (pool-miss path; recycled after use)."""
    return []


class GpuSocket:
    """One GPU socket and its slice of the NUMA memory system."""

    __slots__ = (
        "socket_id",
        "config",
        "engine",
        "page_table",
        "fabric",
        "line_size",
        "arch",
        "write_policy",
        "sms",
        "_l1s",
        "l2",
        "dram",
        "noc",
        "noc_latency",
        "_noc_data_duration",
        "coherence",
        "_l2_hit_latency",
        "_l2_holds_remote",
        "_l2_write_through",
        "_caches_remote_writes",
        "_always_local",
        "_fill_xlate",
        "_l1_refills",
        "_read_pool",
        "_write_pool",
        "_waiter_pool",
        "_stats",
        "_lines",
        "_cta_queue",
        "_active_ctas",
        "_subkernel_done_cb",
        "_subkernel_notified",
        "n_local_accesses",
        "n_remote_accesses",
        "n_l1_hits",
        "n_l1_misses",
        "n_reads_coalesced",
        "n_l2_hits",
        "n_l2_misses",
        "n_remote_read_requests",
        "n_remote_reads_served",
        "n_l2_hits_for_remote",
        "n_writes",
        "n_remote_writes_forwarded",
        "n_remote_writes_absorbed",
        "n_remote_writebacks",
        "n_flush_remote_writebacks",
        "n_ctas_completed",
    )

    #: walker classes built when a pool runs dry (the traced sockets of
    #: repro.obs.traced swap in traced walkers).
    read_path_type = ReadPath
    write_path_type = WritePath

    #: slotted counter -> public stats key (see repro.sim.stats).
    _STAT_FIELDS = (
        ("n_local_accesses", "local_accesses"),
        ("n_remote_accesses", "remote_accesses"),
        ("n_l1_hits", "l1_hits"),
        ("n_l1_misses", "l1_misses"),
        ("n_reads_coalesced", "reads_coalesced"),
        ("n_l2_hits", "l2_hits"),
        ("n_l2_misses", "l2_misses"),
        ("n_remote_read_requests", "remote_read_requests"),
        ("n_remote_reads_served", "remote_reads_served"),
        ("n_l2_hits_for_remote", "l2_hits_for_remote"),
        ("n_writes", "writes"),
        ("n_remote_writes_forwarded", "remote_writes_forwarded"),
        ("n_remote_writes_absorbed", "remote_writes_absorbed"),
        ("n_remote_writebacks", "remote_writebacks"),
        ("n_flush_remote_writebacks", "flush_remote_writebacks"),
        ("n_ctas_completed", "ctas_completed"),
    )

    def __init__(
        self,
        socket_id: int,
        config: SystemConfig,
        engine: Engine,
        page_table: PageTable,
        fabric,
    ) -> None:
        self.socket_id = socket_id
        self.config = config
        self.engine = engine
        self.page_table = page_table
        #: the system fabric (a MultiHopFabric; the crossbar star by
        #: default), or None on a single-socket system.
        self.fabric = fabric
        gpu = config.gpu
        self.line_size = gpu.l2.line_size
        self.arch = config.cache_arch
        self.write_policy = config.l2_write_policy
        self.sms = [Sm(socket_id, i, gpu, self.arch) for i in range(gpu.sms)]
        self._l1s = tuple(sm.l1 for sm in self.sms)
        self.l2 = self._build_l2()
        self.dram = DramChannel(socket_id, gpu.dram_bandwidth, gpu.dram_latency)
        self.noc = BandwidthResource(f"noc{socket_id}", gpu.noc_bandwidth)
        self.noc_latency = gpu.noc_latency
        # NoC service time for one coalesced access, precomputed: the NoC
        # rate never changes at runtime (only link lanes are dynamic), so
        # the division is hoisted out of the per-miss issue loop.
        self._noc_data_duration = DATA_BYTES / self.noc.rate
        self.coherence = CoherenceDomain(
            socket_id,
            self.arch,
            [sm.l1 for sm in self.sms],
            self.l2,
            invalidations_enabled=config.coherence_invalidations,
        )
        # Per-access invariants hoisted out of the hot handlers.
        self._l2_hit_latency = gpu.l2.hit_latency
        self._l2_holds_remote = self.arch is not CacheArch.MEM_SIDE
        self._l2_write_through = self.write_policy is WritePolicy.WRITE_THROUGH
        self._caches_remote_writes = (
            self.arch in (CacheArch.SHARED_COHERENT, CacheArch.NUMA_AWARE)
            and self.write_policy is WritePolicy.WRITE_BACK
        )
        # A single-socket system homes everything locally with zero
        # migration charge, so translation can be skipped wholesale —
        # except under first_touch, where the page table never claims pages
        # on a 1-socket system and therefore bills the first-touch copy on
        # every access; that combination must keep using translate().
        # make_socket() builds a LocalGpuSocket for exactly this case.
        self._always_local = (
            config.n_sockets == 1
            and not page_table.policy.bills_single_socket_touch
        )
        # Dynamic placement policies forbid caching settled homes: their
        # re-home decisions count every touch, and a warm record would
        # hide exactly the accesses the counters need.
        self._fill_xlate = page_table.cacheable
        # Pre-bound methods for the per-event handlers (one attribute
        # chain saved per call, millions of calls per run). All of these
        # targets are fixed for the socket's lifetime.
        self._l1_refills = tuple(l1.refill for l1 in self._l1s)
        # Free lists of recycled miss-path walkers (repro.sim.path) and
        # of coalesced-waiter lists (flat [sm, cb, sm, cb, ...] pairs).
        self._read_pool: list[ReadPath] = []
        self._write_pool: list[WritePath] = []
        self._waiter_pool: list[list] = []
        self._stats = StatGroup(f"socket{socket_id}")
        self.n_local_accesses = 0
        self.n_remote_accesses = 0
        self.n_l1_hits = 0
        self.n_l1_misses = 0
        self.n_reads_coalesced = 0
        self.n_l2_hits = 0
        self.n_l2_misses = 0
        self.n_remote_read_requests = 0
        self.n_remote_reads_served = 0
        self.n_l2_hits_for_remote = 0
        self.n_writes = 0
        self.n_remote_writes_forwarded = 0
        self.n_remote_writes_absorbed = 0
        self.n_remote_writebacks = 0
        self.n_flush_remote_writebacks = 0
        self.n_ctas_completed = 0
        # Fused per-line access records (translation cache + MSHR table
        # in one dict; see _LineRec). The page table drops settled homes
        # when a page is re-homed (PageTable.invalidate_page) and clears
        # the matching per-frame L1 home hints.
        self._lines: dict[int, _LineRec] = {}
        page_table.register_line_cache(self._lines)
        for l1 in self._l1s:
            page_table.register_frame_hints(l1._where)
        # Sub-kernel execution state.
        self._cta_queue: deque[tuple[int, list[Slice]]] = deque()
        self._active_ctas = 0
        self._subkernel_done_cb: Callable[[int], None] | None = None
        self._subkernel_notified = True

    def _build_l2(self) -> SetAssocCache:
        gpu = self.config.gpu
        name = f"l2.{self.socket_id}"
        if self.arch in (CacheArch.STATIC_RC, CacheArch.NUMA_AWARE):
            half = max(1, gpu.l2.ways // 2)
            return SetAssocCache(
                name, gpu.l2, local_ways=gpu.l2.ways - half, remote_ways=half
            )
        return SetAssocCache(name, gpu.l2)

    def release(self) -> None:
        """Break the socket's inherent reference cycles (system teardown).

        Empties the walker pools and unlinks the recency lists of the L1s
        and the L2. The owning system calls this as it dies; the socket
        must not simulate afterwards.
        """
        release_walkers(self._read_pool)
        release_walkers(self._write_pool)
        for cache in self._l1s:
            cache.release()
        self.l2.release()

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    @property
    def stats(self) -> StatGroup:
        """Counter view; slotted ints are flattened on every read."""
        return flatten_slots(self, self._STAT_FIELDS, self._stats)

    # ------------------------------------------------------------------
    # CTA dispatch (sub-kernel execution)
    # ------------------------------------------------------------------
    def start_subkernel(
        self,
        ctas: list[tuple[int, list[Slice]]],
        on_done: Callable[[int], None],
    ) -> None:
        """Run a block of CTAs on this socket; ``on_done(socket_id)`` fires
        when the last one completes."""
        self._cta_queue = deque(ctas)
        self._active_ctas = 0
        self._subkernel_done_cb = on_done
        self._subkernel_notified = False
        for sm in self.sms:
            while sm.has_free_slot and self._cta_queue:
                self._dispatch(sm)
        self._check_subkernel_done()

    def _dispatch(self, sm: Sm) -> None:
        cta_id, slices = self._cta_queue.popleft()
        sm.occupy()
        self._active_ctas += 1
        execution = CtaExecution(
            cta_id=cta_id,
            sm_index=sm.sm_index,
            slices=slices,
            engine=self.engine,
            port=self,
            mlp=self.config.gpu.mlp_per_cta,
            on_complete=self._cta_complete,
        )
        execution.start()

    def _cta_complete(self, execution: CtaExecution) -> None:
        sm = self.sms[execution.sm_index]
        sm.release()
        self._active_ctas -= 1
        self.n_ctas_completed += 1
        if self._cta_queue:
            self._dispatch(sm)
        self._check_subkernel_done()

    def _check_subkernel_done(self) -> None:
        if (
            not self._subkernel_notified
            and self._active_ctas == 0
            and not self._cta_queue
            and self._subkernel_done_cb is not None
        ):
            self._subkernel_notified = True
            # Dropped once fired: the launcher that owns the callback
            # also holds this socket, so keeping it would be a cycle.
            done = self._subkernel_done_cb
            self._subkernel_done_cb = None
            done(self.socket_id)

    # ------------------------------------------------------------------
    # memory access entry point (MemoryPort protocol)
    # ------------------------------------------------------------------
    def access(
        self, sm_index: int, addr: int, is_write: bool, on_done: OnDone
    ) -> bool:
        """Issue one coalesced access; True = completed synchronously.

        Single-op convenience wrapper over :meth:`access_burst` (the CTA
        issue loop uses the burst form directly).
        """
        _i, n_async = self.access_burst(
            sm_index, (_SingleOp(addr, is_write),), 0, 1, on_done
        )
        return n_async == 0

    def access_burst(
        self,
        sm_index: int,
        ops: tuple,
        start: int,
        limit: int,
        on_done: OnDone,
    ) -> tuple[int, int]:
        """Issue ``ops[start:]`` until ``limit`` go asynchronous.

        The fused per-CTA issue path: one call drains a whole run of
        consecutive L1 hits (and starts every miss/write in between) with
        the socket's hot state bound to locals, instead of paying one
        Python call per coalesced op. Returns ``(next_op_index,
        async_ops_started)``. Semantically identical to calling
        :meth:`access` per op: each op performs translation
        (record-assisted), access-class accounting, and the L1
        probe/downstream handoff; the L1 probe is hoisted first because
        translation never reads or writes L1 state, so resolving the home
        afterwards (from the frame hint, then the line record, then
        ``translate``) issues the exact same ``translate`` call sequence
        as the probe-translation-first order did. Hit counters are
        applied once at the end of the burst — no event or callback can
        observe them mid-burst, because the burst runs inside a single
        engine event.

        Each async op hands off to a pooled :mod:`repro.sim.path` walker
        that carries the miss through the rest of the hierarchy; the
        walker itself holds the line's MSHR waiters (see _LineRec).
        """
        l1 = self._l1s[sm_index]
        l1_get = l1._where.get
        fill_xlate = self._fill_xlate
        lines = self._lines
        lines_get = lines.get
        socket_id = self.socket_id
        line_size = self.line_size
        page_table = self.page_table
        translate = page_table.translate
        is_first_touch = page_table.policy.is_first_touch
        noc_latency = self.noc_latency
        engine = self.engine
        now = engine.now
        push = engine.push
        # NoC server state batched in locals for the whole burst: the NoC
        # is only ever admitted from this loop and only read by stats
        # after the run, and the burst runs inside one engine event, so
        # deferring the stores to the end of the burst is exact. The one
        # exception is ``_busy_granted``: it accumulates *floats*, whose
        # addition is not associative, so it keeps its per-admission add
        # order (an int/dyadic batch would still be exact for the stock
        # configs, but the contract must not depend on the rate's bits).
        noc = self.noc
        noc_next_free = noc._next_free
        noc_duration = self._noc_data_duration
        noc_transfers = 0
        n_ops = len(ops)
        i = start
        n_async = 0
        n_local = 0
        n_remote = 0
        n_hits = 0
        n_read_misses = 0
        n_coalesced = 0
        n_writes = 0
        n_write_hits = 0
        n_write_misses = 0
        while i < n_ops and n_async < limit:
            op = ops[i]
            i += 1
            addr = op.addr
            line = addr // line_size
            if op.is_write:
                # Write-through, no-write-allocate L1: update a present
                # copy (kept clean) and always forward the write
                # downstream. Home resolution: frame hint, then line
                # record, then translate (settling the record and hint).
                way = l1_get(line)
                migration_extra = 0
                if way is not None and way.home >= 0:
                    home = way.home
                else:
                    rec = lines_get(line)
                    if rec is not None and rec.home >= 0:
                        home = rec.home
                        if way is not None:
                            way.home = home
                    else:
                        home, migration_extra = translate(addr, socket_id, True)
                        if fill_xlate and (
                            migration_extra == 0 or not is_first_touch(addr)
                        ):
                            # Record only once the page's charge is
                            # settled; see the first_touch single-socket
                            # caveat in __init__. Dynamic policies never
                            # fill (fill_xlate False): every access must
                            # reach the touch counters.
                            if rec is None:
                                rec = _LineRec()
                                lines[line] = rec
                            rec.home = home
                            if way is not None:
                                way.home = home
                is_local = home == socket_id
                if is_local:
                    n_local += 1
                else:
                    n_remote += 1
                if way is not None:
                    # Inlined l1.lookup(line, write=True) recency splice —
                    # the L1 is always write-through, so no dirty bit.
                    sent = way.sent
                    if way.nxt is not sent:
                        p = way.prev
                        n = way.nxt
                        p.nxt = n
                        n.prev = p
                        p = sent.prev
                        p.nxt = way
                        way.prev = p
                        way.nxt = sent
                        sent.prev = way
                    n_write_hits += 1
                else:
                    n_write_misses += 1
                n_writes += 1
                noc_next_free = (
                    now if now > noc_next_free else noc_next_free
                ) + noc_duration
                noc._busy_granted += noc_duration
                noc_transfers += 1
                whole = int(noc_next_free)
                begin = whole if whole == noc_next_free else whole + 1
                wpool = self._write_pool
                wp = wpool.pop() if wpool else self.write_path_type(self, wpool)
                wp.line = line
                wp.home_id = home
                wp.is_local = is_local
                wp.on_done = on_done
                push(begin + noc_latency + migration_extra, wp.st_l2)
                n_async += 1
                continue
            # Inlined l1.lookup(line) — the single hottest statement of
            # the simulator. Must mirror SetAssocCache.lookup's read path
            # exactly (recency-list touch, hit/miss counters).
            way = l1_get(line)
            if way is not None:
                home = way.home
                if home < 0:
                    # No settled hint on the frame: fall back to the line
                    # record, then to translate (exactly the translation
                    # the old probe-first order would have issued).
                    rec = lines_get(line)
                    if rec is not None and rec.home >= 0:
                        home = rec.home
                        way.home = home
                    else:
                        home, migration_extra = translate(addr, socket_id, False)
                        if fill_xlate and (
                            migration_extra == 0 or not is_first_touch(addr)
                        ):
                            if rec is None:
                                rec = _LineRec()
                                lines[line] = rec
                            rec.home = home
                            way.home = home
                sent = way.sent
                if way.nxt is not sent:
                    p = way.prev
                    n = way.nxt
                    p.nxt = n
                    n.prev = p
                    p = sent.prev
                    p.nxt = way
                    way.prev = p
                    way.nxt = sent
                    sent.prev = way
                n_hits += 1
                if home == socket_id:
                    n_local += 1
                else:
                    n_remote += 1
                continue
            # Read miss: one record probe covers translation and MSHR.
            rec = lines_get(line)
            migration_extra = 0
            if rec is None:
                home, migration_extra = translate(addr, socket_id, False)
                rec = _LineRec()
                lines[line] = rec
                if fill_xlate and (
                    migration_extra == 0 or not is_first_touch(addr)
                ):
                    rec.home = home
            else:
                home = rec.home
                if home < 0:
                    home, migration_extra = translate(addr, socket_id, False)
                    if fill_xlate and (
                        migration_extra == 0 or not is_first_touch(addr)
                    ):
                        rec.home = home
            if home == socket_id:
                is_local = True
                n_local += 1
            else:
                is_local = False
                n_remote += 1
            n_read_misses += 1
            n_async += 1
            rp = rec.rp
            if rp is not None:
                # Second and later missers piggyback on the in-flight
                # walker: two flat appends, no per-waiter record.
                more = rp.w_more
                if more is None:
                    wlpool = self._waiter_pool
                    more = wlpool.pop() if wlpool else _new_waiters()
                    rp.w_more = more
                more.append(sm_index)
                more.append(on_done)
                n_coalesced += 1
                continue
            # Inlined BandwidthResource.service for the NoC hop (one call
            # per outstanding read): identical arithmetic, fixed positive
            # transfer size.
            noc_next_free = (
                now if now > noc_next_free else noc_next_free
            ) + noc_duration
            noc._busy_granted += noc_duration
            noc_transfers += 1
            whole = int(noc_next_free)
            begin = whole if whole == noc_next_free else whole + 1
            rpool = self._read_pool
            rp = rpool.pop() if rpool else self.read_path_type(self, rpool)
            rp.line = line
            rp.cls = 0 if is_local else 1
            rp.home_id = home
            rp.rec = rec
            rp.w_sm = sm_index
            rp.w_cb = on_done
            rec.rp = rp
            push(begin + noc_latency + migration_extra, rp.st_l2)
        if noc_transfers:
            noc._next_free = noc_next_free
            noc._bytes_total += DATA_BYTES * noc_transfers
            noc._transfers += noc_transfers
        self.n_local_accesses += n_local
        self.n_remote_accesses += n_remote
        l1.n_read_hits += n_hits
        self.n_l1_hits += n_hits
        if n_read_misses:
            l1.n_read_misses += n_read_misses
            self.n_l1_misses += n_read_misses
            self.n_reads_coalesced += n_coalesced
        if n_writes:
            self.n_writes += n_writes
            l1.n_write_hits += n_write_hits
            l1.n_write_misses += n_write_misses
        return i, n_async

    # ------------------------------------------------------------------
    # evictions and coherence flushes
    # ------------------------------------------------------------------
    def _charge_dirty_eviction(self, packed: int) -> None:
        """Charge write-back traffic for a dirty L2 victim.

        ``packed`` is the ``(line << 1) | numa_class`` form returned by
        :meth:`repro.memory.cache.SetAssocCache.fill_fast` for dirty
        victims (clean victims charge nothing and are never reported).
        """
        if packed & 1 == 0:
            self.dram.access(self.engine.now, self.line_size, write=True)
            return
        # Remote dirty victim: write back across the link to its home.
        line = packed >> 1
        home = self._line_home(line)
        if home == self.socket_id or self.fabric is None:
            self.dram.access(self.engine.now, self.line_size, write=True)
            return
        self.n_remote_writebacks += 1
        arrival = self.fabric.send_bytes(
            self.engine.now, self.socket_id, home, DATA_BYTES
        )
        home_socket = self.fabric.owners[home]
        self.engine.schedule_at(arrival, home_socket._absorb_writeback, line)

    def _line_home(self, line: int) -> int:
        """Home socket of a cache line (line-record assisted)."""
        if self._always_local:
            return self.socket_id
        if not self._fill_xlate:
            # Dynamic placement: eviction/writeback routing must not feed
            # the policy's touch counters — use the uncounted peek.
            return self.page_table.peek_home(
                line * self.line_size, self.socket_id
            )
        rec = self._lines.get(line)
        if rec is not None and rec.home >= 0:
            return rec.home
        addr = line * self.line_size
        home, extra = self.page_table.translate(addr, self.socket_id)
        if extra == 0 or not self.page_table.policy.is_first_touch(addr):
            if rec is None:
                rec = _LineRec()
                self._lines[line] = rec
            rec.home = home
        return home

    def _absorb_writeback(self, line: int) -> None:
        """Sink a remote write-back into home memory (fire-and-forget)."""
        if not self.l2.lookup(line, write=True):
            packed = self.l2.fill_fast(line, 0, True)
            if packed >= 0:
                self._charge_dirty_eviction(packed)

    def flush_caches(self) -> FlushResult:
        """Kernel-boundary software coherence flush (Section 5.2).

        Dirty L2 victims drain to memory: local lines to local DRAM,
        remote lines across the link to their home — both charged as
        bandwidth at flush time so the next kernel queues behind them.
        """
        result = self.coherence.flush()
        now = self.engine.now
        for _ in range(result.local_dirty_lines):
            self.dram.access(now, self.line_size, write=True)
        if result.remote_lines and self.fabric is not None:
            self.n_flush_remote_writebacks += len(result.remote_lines)
            for line in result.remote_lines:
                home = self._line_home(line)
                if home == self.socket_id:
                    self.dram.access(now, self.line_size, write=True)
                    continue
                arrival = self.fabric.send_bytes(
                    now, self.socket_id, home, DATA_BYTES
                )
                home_socket = self.fabric.owners[home]
                self.engine.schedule_at(arrival, home_socket._absorb_writeback_dram)
        return result

    def _absorb_writeback_dram(self) -> None:
        self.dram.access(self.engine.now, self.line_size, write=True)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def l1_hit_rate(self) -> float:
        """Aggregate L1 hit rate across this socket's SMs."""
        hits = sum(sm.l1.n_read_hits for sm in self.sms)
        misses = sum(sm.l1.n_read_misses for sm in self.sms)
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def remote_fraction(self) -> float:
        """Fraction of accesses that targeted remote memory."""
        remote = self.n_remote_accesses
        total = remote + self.n_local_accesses
        return remote / total if total else 0.0


class LocalGpuSocket(GpuSocket):
    """Single-socket fast-path variant: every access is local.

    Built by :func:`make_socket` exactly when the ``_always_local``
    predicate holds (one socket, and a placement that never bills a
    single-socket touch), so translation, home resolution, and locality
    classification vanish from the burst loop: a read hit is one dict
    probe and a recency splice; a line record exists only while its
    fetch is in flight (``home`` stays -1 and the completing walker
    drops it), so the record dict holds only the MSHR table. Everything
    outside ``access_burst`` — eviction charging, flushes, introspection —
    is inherited unchanged (``_line_home`` already short-circuits on
    ``_always_local``).
    """

    __slots__ = ()

    def access_burst(
        self,
        sm_index: int,
        ops: tuple,
        start: int,
        limit: int,
        on_done: OnDone,
    ) -> tuple[int, int]:
        """Single-socket :meth:`GpuSocket.access_burst` (no translation)."""
        l1 = self._l1s[sm_index]
        l1_get = l1._where.get
        socket_id = self.socket_id
        line_size = self.line_size
        lines = self._lines
        lines_get = lines.get
        noc_latency = self.noc_latency
        engine = self.engine
        now = engine.now
        push = engine.push
        # NoC batching contract as in the base burst (single event).
        noc = self.noc
        noc_next_free = noc._next_free
        noc_duration = self._noc_data_duration
        noc_transfers = 0
        n_ops = len(ops)
        i = start
        n_async = 0
        n_hits = 0
        n_read_misses = 0
        n_coalesced = 0
        n_writes = 0
        n_write_hits = 0
        n_write_misses = 0
        while i < n_ops and n_async < limit:
            op = ops[i]
            i += 1
            line = op.addr // line_size
            if op.is_write:
                way = l1_get(line)
                if way is not None:
                    sent = way.sent
                    if way.nxt is not sent:
                        p = way.prev
                        n = way.nxt
                        p.nxt = n
                        n.prev = p
                        p = sent.prev
                        p.nxt = way
                        way.prev = p
                        way.nxt = sent
                        sent.prev = way
                    n_write_hits += 1
                else:
                    n_write_misses += 1
                n_writes += 1
                noc_next_free = (
                    now if now > noc_next_free else noc_next_free
                ) + noc_duration
                noc._busy_granted += noc_duration
                noc_transfers += 1
                whole = int(noc_next_free)
                begin = whole if whole == noc_next_free else whole + 1
                wpool = self._write_pool
                wp = wpool.pop() if wpool else self.write_path_type(self, wpool)
                wp.line = line
                wp.home_id = socket_id
                wp.is_local = True
                wp.on_done = on_done
                push(begin + noc_latency, wp.st_l2)
                n_async += 1
                continue
            way = l1_get(line)
            if way is not None:
                sent = way.sent
                if way.nxt is not sent:
                    p = way.prev
                    n = way.nxt
                    p.nxt = n
                    n.prev = p
                    p = sent.prev
                    p.nxt = way
                    way.prev = p
                    way.nxt = sent
                    sent.prev = way
                n_hits += 1
                continue
            n_read_misses += 1
            n_async += 1
            rec = lines_get(line)
            if rec is not None:
                # On a single-socket system a record exists only while
                # its fetch is in flight — this is a coalesced misser.
                rp = rec.rp
                more = rp.w_more
                if more is None:
                    wlpool = self._waiter_pool
                    more = wlpool.pop() if wlpool else _new_waiters()
                    rp.w_more = more
                more.append(sm_index)
                more.append(on_done)
                n_coalesced += 1
                continue
            rec = _LineRec()
            lines[line] = rec
            noc_next_free = (
                now if now > noc_next_free else noc_next_free
            ) + noc_duration
            noc._busy_granted += noc_duration
            noc_transfers += 1
            whole = int(noc_next_free)
            begin = whole if whole == noc_next_free else whole + 1
            rpool = self._read_pool
            rp = rpool.pop() if rpool else self.read_path_type(self, rpool)
            rp.line = line
            rp.cls = 0
            rp.home_id = socket_id
            rp.rec = rec
            rp.w_sm = sm_index
            rp.w_cb = on_done
            rec.rp = rp
            push(begin + noc_latency, rp.st_l2)
        if noc_transfers:
            noc._next_free = noc_next_free
            noc._bytes_total += DATA_BYTES * noc_transfers
            noc._transfers += noc_transfers
        self.n_local_accesses += i - start
        l1.n_read_hits += n_hits
        self.n_l1_hits += n_hits
        if n_read_misses:
            l1.n_read_misses += n_read_misses
            self.n_l1_misses += n_read_misses
            self.n_reads_coalesced += n_coalesced
        if n_writes:
            self.n_writes += n_writes
            l1.n_write_hits += n_write_hits
            l1.n_write_misses += n_write_misses
        return i, n_async


def make_socket(
    socket_id: int,
    config: SystemConfig,
    engine: Engine,
    page_table: PageTable,
    fabric,
    general: type[GpuSocket] = GpuSocket,
    local: type[GpuSocket] = LocalGpuSocket,
) -> GpuSocket:
    """Build the right burst variant for the system shape.

    Single-socket systems whose placement never bills a local touch get
    ``local`` (:class:`LocalGpuSocket`, the translation-free fast path —
    the same predicate the base class hoists as ``_always_local``);
    everything else gets ``general`` (:class:`GpuSocket`). A traced
    system passes the traced subclasses of :mod:`repro.obs.traced`.
    """
    if (
        config.n_sockets == 1
        and not page_table.policy.bills_single_socket_touch
    ):
        return local(socket_id, config, engine, page_table, fabric)
    return general(socket_id, config, engine, page_table, fabric)
