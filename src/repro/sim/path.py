"""Fused miss-path pipeline: pooled walkers for the memory-path hops.

Before this module, every L1 miss traversed the memory hierarchy as a
chain of independently scheduled callbacks — NoC hop -> L2 lookup -> link
crossing -> remote L2/DRAM -> reply hop — each paying the generic
``(callback, args)`` scheduling cost: an args tuple and a bound method
allocated per hop, argument re-packing and unpacking at dispatch, and a
fresh walk of the socket's attribute chains in every handler.

A :class:`ReadPath` / :class:`WritePath` *walker* replaces that chain.
One pooled object carries the whole miss (line, NUMA class, home socket,
quoted completion time) from issue to completion; each hop is a prebound
zero-argument stage method queued through the engine's one insert path,
:meth:`repro.sim.engine.Engine.push` (the walker caches the bound
method; the ring's layout stays private to the engine) — no tuples, no
per-hop allocation (walkers are recycled through a per-socket free list)
— and the stage bodies inline the cache probes and closed-form bandwidth
arithmetic, with every issuer-side invariant (the L2, its ``_where.get``
/ ``fill_fast`` bound methods, latencies, the eviction-charge helper)
cached on the walker at construction.

Determinism contract (see DESIGN.md, "Fused miss pipeline")
-----------------------------------------------------------
The walker is required to be bit-identical to the stepwise chain it
replaced, which pins three rules:

1. **No state op moves in time.** Every shared-state mutation — cache
   probe/fill, MSHR update, FIFO-resource admission, waiter callback —
   executes at exactly the cycle the stepwise chain performed it, as an
   engine event in the same bucket position. Hop fusion only ever spans
   *pure latency* (NoC propagation, L2 hit latency, link propagation),
   never an admission or probe point.
2. **Quotes never outrun admissions.** A path's future times are quoted
   closed-form only once every resource along the quoted span has been
   admitted: a local miss quotes ``t_complete = dram_done + noc_latency``
   *at the DRAM admission*, whose completion is fixed at admission for a
   work-conserving FIFO server (``BandwidthResource`` completion depends
   only on state at admission). Rate changes by the Section 4 lane
   balancer or the Section 5 cache partitioner therefore cannot
   invalidate a quote — ``set_rate`` only affects *later* admissions, and
   no quote spans an admission the walker has not yet performed. The
   stepwise fallback the quote layer would otherwise need reduces to
   this stronger structural guarantee.
3. **Stats inline.** Slotted counters are updated inside the stage
   bodies at the same points the stepwise handlers updated them (they
   are order-insensitive sums, but keeping the points identical makes
   the equivalence argument purely mechanical).

Multi-hop fabrics (DESIGN.md, "Topology layer")
-----------------------------------------------
``self.fabric`` is the system's
:class:`repro.topology.fabric.MultiHopFabric`: the paper's crossbar (a
star around one router) by default, or the config's topology. A link
crossing is one ``send_bytes`` call from a stage body: the fabric holds a
precompiled per-``(src, dst)`` *hop program* — a tuple of prebound
zero-state ``admit`` stages resolved from the deterministic routing
tables — and admits every hop closed-form at the send event (the
crossbar's own two-hop convention generalized). The program spans only
FIFO bandwidth admissions and pure latency, so rule 1 holds on every
topology: the walker's shared-state stages (probes, fills, MSHR
completion) stay engine events at their exact cycles, and only the
arrival time fed to the next stage changes with the topology. Home
sockets are resolved through ``fabric.owners`` (socket id -> socket),
which every fabric provides.

Stage map (stepwise handler -> walker stage, one engine event each):

====================================  ==========================
``GpuSocket._read_at_l2``             ``ReadPath.st_l2``
``GpuSocket._local_fill``             ``ReadPath.st_fill_local``
``GpuSocket._serve_remote_read``      ``ReadPath.st_serve``
``GpuSocket._home_fill_and_respond``  ``ReadPath.st_fill_respond``
``GpuSocket._respond_remote_read``    ``ReadPath.st_respond``
``GpuSocket._remote_read_response``   ``ReadPath.st_reply``
``GpuSocket._complete_read``          inline tail of the last hop
``GpuSocket._write_at_l2``            ``WritePath.st_l2``
``GpuSocket._absorb_remote_write``    ``WritePath.st_absorb``
====================================  ==========================

Tracing (DESIGN.md, "Observability contract")
---------------------------------------------
The stages carry no hook calls. A system built with a tracer gets the
subclasses of :mod:`repro.obs.traced`, whose stage overrides call the
tracer around the base stage; the prebound ``st_*`` slots bind those
overrides, and ``_stage_reply`` reaches ``_stage_complete`` by method
dispatch, so every span closes. The one trace cost an untraced walker
pays is the ``t_end`` store at the end of a write.
"""

from __future__ import annotations

from repro.interconnect.packets import CONTROL_BYTES, DATA_BYTES
from repro.memory.cache import NumaClass

#: NumaClass instances indexed by the walkers' int class tag.
_CLASSES = (NumaClass.LOCAL, NumaClass.REMOTE)

#: Int class tags (0 = local, 1 = remote) used throughout the pipeline.
CLS_LOCAL = 0
CLS_REMOTE = 1


class ReadPath:
    """One in-flight read miss walking the memory path.

    Acquired from the issuing socket's pool in ``access_burst`` (one per
    outstanding *distinct* line — coalesced readers piggyback on the
    socket MSHR and are completed by this walker's final stage), released
    back to the pool when the fill returns to the L1s.
    """

    __slots__ = (
        "pool",
        "socket",
        "engine",
        "push",
        # Issuer-side invariants cached at construction (the pool is
        # per-socket, so these never change over the walker's lifetime).
        "socket_id",
        "line_size",
        "l2",
        "l2_get",
        "l2_fill",
        "dram",
        "fabric",
        "owners",
        "noc_latency",
        "hit_tail",
        "holds_remote",
        "charge",
        "lines",
        "wpool",
        "refills",
        # Per-miss state. The walker doubles as the line's MSHR waiter
        # record: ``rec`` is the socket's _LineRec for the line, ``w_sm``
        # / ``w_cb`` the first (un-coalesced) waiter, ``w_more`` a
        # recycled flat [sm, cb, sm, cb, ...] list of later missers.
        "line",
        "cls",
        "home_id",
        "home",
        "t_complete",
        "rec",
        "w_sm",
        "w_cb",
        "w_more",
        # Prebound stages.
        "st_l2",
        "st_fill_local",
        "st_serve",
        "st_fill_respond",
        "st_respond",
        "st_reply",
        "st_complete",
    )

    #: the prebound-stage slots (see :func:`release_walkers`).
    STAGES = tuple(n for n in __slots__ if n.startswith("st_"))

    def __init__(self, socket, pool: list) -> None:
        self.pool = pool
        self.socket = socket
        engine = socket.engine
        self.engine = engine
        self.push = engine.push
        self.socket_id = socket.socket_id
        self.line_size = socket.line_size
        self.l2 = socket.l2
        self.l2_get = socket.l2._where.get
        self.l2_fill = socket.l2.fill_fast
        self.dram = socket.dram
        self.fabric = socket.fabric
        self.owners = socket.fabric.owners if socket.fabric is not None else None
        self.noc_latency = socket.noc_latency
        #: quoted pure-latency tail of an L2 hit (hit latency + NoC hop).
        self.hit_tail = socket._l2_hit_latency + socket.noc_latency
        self.holds_remote = socket._l2_holds_remote
        self.charge = socket._charge_dirty_eviction
        self.lines = socket._lines
        self.wpool = socket._waiter_pool
        self.refills = socket._l1_refills
        self.line = 0
        self.cls = CLS_LOCAL
        self.home_id = 0
        self.home = None
        self.t_complete = 0
        self.rec = None
        self.w_sm = 0
        self.w_cb = None
        self.w_more = None
        # Stage methods prebound once; scheduling a hop is then a plain
        # attribute load + bucket append (no per-hop bound-method alloc).
        self.st_l2 = self._stage_l2
        self.st_fill_local = self._stage_fill_local
        self.st_serve = self._stage_serve
        self.st_fill_respond = self._stage_fill_respond
        self.st_respond = self._stage_respond
        self.st_reply = self._stage_reply
        self.st_complete = self._stage_complete

    # ------------------------------------------------------------------
    # stages (each runs as one engine event, at its exact stepwise time)
    # ------------------------------------------------------------------
    def _stage_l2(self) -> None:
        """Requester-side L2 probe (stepwise ``_read_at_l2``)."""
        s = self.socket
        line = self.line
        cls = self.cls
        if cls == 0 or self.holds_remote:
            # Inlined SetAssocCache.lookup (read probe): recency-list
            # touch, hit/miss counters — identical to lookup(line).
            way = self.l2_get(line)
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
                self.l2.n_read_hits += 1
                s.n_l2_hits += 1
                # Quote: pure-latency tail (L2 hit + NoC reply hop).
                self.push(self.engine.now + self.hit_tail, self.st_complete)
                return
            self.l2.n_read_misses += 1
        s.n_l2_misses += 1
        if cls == 0:
            # Quote the rest of the local path at the DRAM admission:
            # completion is closed-form once the FIFO server admits
            # (inlined DramChannel.access — identical arithmetic).
            dram = self.dram
            res = dram.resource
            nbytes = self.line_size
            next_free = res._next_free
            now = self.engine.now
            start = now if now > next_free else next_free
            duration = nbytes / res._rate
            next_free = start + duration
            res._next_free = next_free
            res._busy_granted += duration
            res._bytes_total += nbytes
            res._transfers += 1
            dram.n_reads += 1
            dram.n_bytes += nbytes
            whole = int(next_free)
            done = (whole if whole == next_free else whole + 1) + dram.latency
            self.t_complete = done + self.noc_latency
            self.push(done, self.st_fill_local)
            return
        s.n_remote_read_requests += 1
        arrival = self.fabric.send_bytes(
            self.engine.now, self.socket_id, self.home_id, CONTROL_BYTES
        )
        self.home = self.owners[self.home_id]
        self.push(arrival, self.st_serve)

    def _stage_fill_local(self) -> None:
        """DRAM returned a local line (stepwise ``_local_fill``)."""
        packed = self.l2_fill(self.line, 0)
        if packed >= 0:
            self.charge(packed)
        self.push(self.t_complete, self.st_complete)

    def _stage_serve(self) -> None:
        """Home-side service of the request (stepwise ``_serve_remote_read``)."""
        h = self.home
        h.n_remote_reads_served += 1
        # Inlined h.l2.lookup(line) — read probe, identical counters.
        l2 = h.l2
        way = l2._where.get(self.line)
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
            l2.n_read_hits += 1
            h.n_l2_hits_for_remote += 1
            self.push(self.engine.now + h._l2_hit_latency, self.st_respond)
            return
        l2.n_read_misses += 1
        # Inlined DramChannel.access — identical arithmetic.
        dram = h.dram
        res = dram.resource
        nbytes = h.line_size
        next_free = res._next_free
        now = self.engine.now
        start = now if now > next_free else next_free
        duration = nbytes / res._rate
        next_free = start + duration
        res._next_free = next_free
        res._busy_granted += duration
        res._bytes_total += nbytes
        res._transfers += 1
        dram.n_reads += 1
        dram.n_bytes += nbytes
        whole = int(next_free)
        done = (whole if whole == next_free else whole + 1) + dram.latency
        self.push(done, self.st_fill_respond)

    def _stage_fill_respond(self) -> None:
        """Home DRAM fill + response (stepwise ``_home_fill_and_respond``)."""
        h = self.home
        packed = h.l2.fill_fast(self.line, 0)
        if packed >= 0:
            h._charge_dirty_eviction(packed)
        self._respond()

    def _stage_respond(self) -> None:
        """Home L2 hit response hop (stepwise ``_respond_remote_read``)."""
        self._respond()

    def _respond(self) -> None:
        h = self.home
        arrival = h.fabric.send_bytes(
            self.engine.now, h.socket_id, self.socket_id, DATA_BYTES
        )
        self.push(arrival, self.st_reply)

    def _stage_reply(self) -> None:
        """Response back at the requester (stepwise ``_remote_read_response``)."""
        if self.holds_remote:
            packed = self.l2_fill(self.line, 1)
            if packed >= 0:
                self.charge(packed)
        self._stage_complete()

    def _stage_complete(self) -> None:
        """Fill waiter L1s and fire callbacks (stepwise ``_complete_read``)."""
        line = self.line
        cls = self.cls
        rec = self.rec
        home = rec.home
        w_sm = self.w_sm
        w_cb = self.w_cb
        more = self.w_more
        rec.rp = None
        self.rec = None
        self.w_cb = None
        self.w_more = None
        if home < 0:
            # The line's charge never settled (dynamic policy or an
            # unclaimed first_touch page): drop the record so the next
            # access translates again — the old MSHR-pop semantics.
            del self.lines[line]
        refills = self.refills
        # Release before running callbacks: completions can issue new
        # misses that re-acquire this walker; all fields are in locals.
        self.pool.append(self)
        numa_class = _CLASSES[cls]
        refills[w_sm](line, numa_class, home)
        w_cb()
        if more is None:
            return
        # Coalesced readers: refill each distinct waiter L1 once (the
        # first waiter's SM is pre-seeded), fire callbacks in FIFO order.
        filled_sms = {w_sm}
        idx = 0
        n = len(more)
        while idx < n:
            sm_index = more[idx]
            on_done = more[idx + 1]
            idx += 2
            if sm_index not in filled_sms:
                refills[sm_index](line, numa_class, home)
                filled_sms.add(sm_index)
            on_done()
        # Recycle only after the iteration: a callback can start a new
        # coalesced miss, which must draw a different list from the pool.
        more.clear()
        self.wpool.append(more)


class WritePath:
    """One in-flight write walking the memory path (write-through L1)."""

    __slots__ = (
        "pool",
        "socket",
        "engine",
        "push",
        # Issuer-side invariants cached at construction.
        "socket_id",
        "line_size",
        "l2",
        "l2_get",
        "l2_fill",
        "dram",
        "fabric",
        "owners",
        "l2_lat",
        "l2_write_through",
        "caches_remote_writes",
        "holds_remote",
        "charge",
        # Per-write state.
        "line",
        "home_id",
        "home",
        "is_local",
        "on_done",
        # Completion cycle of the finished write (read by the traced
        # subclass in repro.obs.traced).
        "t_end",
        # Prebound stages.
        "st_l2",
        "st_absorb",
    )

    #: the prebound-stage slots (see :func:`release_walkers`).
    STAGES = tuple(n for n in __slots__ if n.startswith("st_"))

    def __init__(self, socket, pool: list) -> None:
        self.pool = pool
        self.socket = socket
        engine = socket.engine
        self.engine = engine
        self.push = engine.push
        self.socket_id = socket.socket_id
        self.line_size = socket.line_size
        self.l2 = socket.l2
        self.l2_get = socket.l2._where.get
        self.l2_fill = socket.l2.fill_fast
        self.dram = socket.dram
        self.fabric = socket.fabric
        self.owners = socket.fabric.owners if socket.fabric is not None else None
        self.l2_lat = socket._l2_hit_latency
        self.l2_write_through = socket._l2_write_through
        self.caches_remote_writes = socket._caches_remote_writes
        self.holds_remote = socket._l2_holds_remote
        self.charge = socket._charge_dirty_eviction
        self.line = 0
        self.home_id = 0
        self.home = None
        self.is_local = True
        self.on_done = None
        self.t_end = 0
        self.st_l2 = self._stage_l2
        self.st_absorb = self._stage_absorb

    def _stage_l2(self) -> None:
        """Write arrives at the requester L2 (stepwise ``_write_at_l2``)."""
        s = self.socket
        line = self.line
        engine = self.engine
        if self.is_local:
            # Home L2 absorbs the write (write-back, allocate-on-write;
            # stores are assumed full-line coalesced so no fetch happens).
            # Inlined l2.lookup(line, write=True) + fill on miss.
            way = self.l2_get(line)
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
                l2 = self.l2
                if not l2.write_through:
                    way.dirty = True
                l2.n_write_hits += 1
            else:
                self.l2.n_write_misses += 1
                packed = self.l2_fill(line, 0, True)
                if packed >= 0:
                    self.charge(packed)
            if self.l2_write_through:
                self.dram.access(engine.now, self.line_size, write=True)
            on_done = self.on_done
            self.on_done = None
            t = engine.now + self.l2_lat
            self.t_end = t
            self.pool.append(self)
            self.push(t, on_done)
            return
        if self.caches_remote_writes:
            way = self.l2_get(line)
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
                l2 = self.l2
                if not l2.write_through:
                    way.dirty = True
                l2.n_write_hits += 1
            else:
                self.l2.n_write_misses += 1
                packed = self.l2_fill(line, 1, True)
                if packed >= 0:
                    self.charge(packed)
            on_done = self.on_done
            self.on_done = None
            t = engine.now + self.l2_lat
            self.t_end = t
            self.pool.append(self)
            self.push(t, on_done)
            return
        # Forward the write to its home socket; drop any stale local copy
        # (write-invalidate keeps the R$ / write-through L2 coherent).
        if self.holds_remote:
            self.l2.drop(line)
        s.n_remote_writes_forwarded += 1
        arrival = self.fabric.send_bytes(
            engine.now, self.socket_id, self.home_id, DATA_BYTES
        )
        self.home = self.owners[self.home_id]
        self.push(arrival, self.st_absorb)

    def _stage_absorb(self) -> None:
        """Home-side absorption + ack (stepwise ``_absorb_remote_write``)."""
        h = self.home
        line = self.line
        engine = self.engine
        h.n_remote_writes_absorbed += 1
        l2 = h.l2
        way = l2._where.get(line)
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
            if not l2.write_through:
                way.dirty = True
            l2.n_write_hits += 1
        else:
            l2.n_write_misses += 1
            packed = l2.fill_fast(line, 0, True)
            if packed >= 0:
                h._charge_dirty_eviction(packed)
        now = engine.now
        if h._l2_write_through:
            h.dram.access(now, h.line_size, write=True)
        arrival = h.fabric.send_bytes(
            now, h.socket_id, self.socket_id, CONTROL_BYTES
        )
        on_done = self.on_done
        self.on_done = None
        self.t_end = arrival
        self.pool.append(self)
        self.push(arrival, on_done)


def release_walkers(pool: list) -> None:
    """Empty a walker pool, breaking each pooled walker's self-cycle.

    A walker's prebound stages are bound methods of the walker itself,
    so every walker is a reference cycle, and the pool it points back
    to keeps it reachable from its socket. The owning system calls this
    as it dies (:meth:`repro.gpu.system.NumaGpuSystem.__del__`), so that
    reference counting frees the walkers with the rest of the system.
    """
    for walker in pool:
        for name in walker.STAGES:
            setattr(walker, name, None)
    pool.clear()
