"""Discrete-event simulation engine.

The engine is a deterministic scheduler over ``(time, arrival order)``
keys. Times are integer cycles (1 cycle = 1 ns at the paper's 1 GHz
clock). Events at the same timestamp run in the order they were
scheduled, which makes every simulation in this package bit-reproducible
for a given seed.

Components never busy-wait: anything that costs time either schedules a
callback or routes through a :class:`repro.sim.resource.BandwidthResource`.

The dispatch loop is the single hottest frame of every simulation, so the
queue is a *calendar ring* rather than a heap-ordered bucket dict: a
power-of-two array of :data:`RING_SIZE` slots covers the near future, and
an event at time ``t`` with ``t - now < RING_SIZE`` lives in slot
``t & RING_MASK`` — an index into a flat list, no hashing and no heap
sift. Because every live ring timestamp lies in ``[now, now + RING_SIZE)``,
distinct timestamps occupy distinct slots and the slot index needs no
base offset. The drain loop advances ``now`` by scanning forward from the
current slot; total scan work over a run is bounded by the simulated
cycle count (each empty slot is visited at most once per lap), which for
this simulator's event densities (~0.5-4 events/cycle) is cheaper than
the heap traffic it replaces.

Timestamps at or beyond ``now + RING_SIZE`` (congested-server horizons,
migration charges on a backlogged link) go to the *overflow* bucket
queue — the pre-ring structure: ``_buckets`` maps each far timestamp to
its FIFO list and ``_times`` is a heap of those distinct timestamps.
Whenever ``now`` advances, overflow timestamps that entered the ring
window are migrated into their slots *before* any callback runs
(:meth:`Engine._migrate_window`), so ring events and overflow events can
never coexist at the same timestamp and the drain order stays exactly
the classic ``(time, seq)`` heap order: ascending time, FIFO within a
time, including events appended to the *current* timestamp mid-drain.
:meth:`Engine.run` additionally splits into a fast path for the common
unbounded call and a guarded loop for ``until``/``max_events`` runs;
both drain in the same order.

Every bucket entry is a zero-argument callable, and the drain loops call
it with no unpacking. :meth:`Engine.push` is the one insert path: an
unchecked append for an int time ``>= now``, which the path walkers of
:mod:`repro.sim.path` and the socket burst loops call once per hop.
:meth:`schedule` / :meth:`schedule_at` validate their time, bind any
``*args`` once with :func:`functools.partial`, and push. No module but
this one knows the ring's layout.

``pending_events`` counts the queued entries on demand (a walk of the
ring and the overflow buckets); it is read only at quiescence.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable

from repro.errors import SchedulingError

Callback = Callable[..., None]

#: Calendar-ring span in cycles (power of two). Delays on the simulated
#: machine are mostly < 512 cycles; the span comfortably covers the
#: migration charge (600) and kernel-launch latency (2000) so overflow
#: traffic is rare even under queueing backlogs.
RING_SIZE = 8192
#: Slot index mask: ``slot = time & RING_MASK``.
RING_MASK = RING_SIZE - 1


class Engine:
    """A deterministic discrete-event scheduler.

    Example
    -------
    >>> eng = Engine()
    >>> fired = []
    >>> eng.schedule(5, fired.append, "a")
    >>> eng.schedule(3, fired.append, "b")
    >>> eng.run()
    5
    >>> fired
    ['b', 'a']
    >>> eng.now
    5
    """

    __slots__ = (
        "_ring",
        "_ring_items",
        "_buckets",
        "_times",
        "now",
        "_events_processed",
        "_running",
    )

    def __init__(self) -> None:
        #: calendar ring: slot ``t & RING_MASK`` -> FIFO of entries at
        #: ``t``, or None.
        self._ring: list = [None] * RING_SIZE
        #: occupied ring slots (O(1) emptiness check for the drain loop).
        self._ring_items: int = 0
        #: overflow events (time >= now + RING_SIZE): timestamp -> FIFO.
        self._buckets: dict[int, list] = {}
        #: heap of the distinct timestamps present in ``_buckets``.
        self._times: list[int] = []
        #: current simulation time in cycles. Public for cheap reads on
        #: hot paths; only the engine itself should ever write it.
        self.now: int = 0
        self._events_processed: int = 0
        self._running: bool = False

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events waiting in the queue (counted on demand)."""
        queued = sum(len(bucket) for bucket in self._ring if bucket is not None)
        return queued + sum(len(bucket) for bucket in self._buckets.values())

    def push(self, time: int, fn: Callable[[], None]) -> None:
        """Queue the zero-argument ``fn`` at absolute cycle ``time``.

        The engine's one insert path, unchecked: ``time`` must be an int
        no earlier than ``now``. Model code that computes its own times
        (the path walkers, the burst loops) calls it directly; everything
        else goes through :meth:`schedule` / :meth:`schedule_at`.
        """
        if time - self.now < RING_SIZE:
            ring = self._ring
            slot = time & RING_MASK
            bucket = ring[slot]
            if bucket is None:
                # A new time bucket is necessarily a fresh list.
                ring[slot] = [fn]  # repro-lint: disable=hot-path-alloc
                self._ring_items += 1
            else:
                bucket.append(fn)
        else:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = [fn]
                heapq.heappush(self._times, time)
            else:
                bucket.append(fn)

    def schedule(self, delay: int, callback: Callback, *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay} for {callback!r}")
        self.push(
            self.now + int(delay), partial(callback, *args) if args else callback
        )

    def schedule_at(self, time: int, callback: Callback, *args: Any) -> None:
        """Schedule ``callback(*args)`` at an absolute cycle ``time``."""
        time = int(time)
        if time < self.now:
            raise SchedulingError(
                f"event at t={time} is in the past (now={self.now})"
            )
        self.push(time, partial(callback, *args) if args else callback)

    def _migrate_window(self) -> None:
        """Pull overflow buckets whose timestamps entered the ring window.

        Runs whenever ``now`` advances, *before* any callback at the new
        time runs. The drain loops test the heap's head inline and call
        this only when a bucket really entered the window, since most
        clock advances move none. Keeps the invariant that every
        overflow timestamp is ``>= now + RING_SIZE`` — which is what
        guarantees a ring event and an overflow event can never share a
        timestamp, and therefore that ring-first drain order equals
        global ``(time, seq)`` order.
        """
        times = self._times
        limit = self.now + RING_SIZE
        if not times or times[0] >= limit:
            return
        ring = self._ring
        buckets = self._buckets
        pop = heapq.heappop
        while times and times[0] < limit:
            time = pop(times)
            ring[time & RING_MASK] = buckets.pop(time)
            self._ring_items += 1

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Drain the event queue.

        Parameters
        ----------
        until:
            If given, stop once the next event would be later than this
            time (the clock is still advanced to ``until``).
        max_events:
            Safety valve for tests; the budget is exact — at most
            ``max_events`` events execute, and ``SchedulingError`` is
            raised as soon as one more would run, so a livelocked model
            fails loudly instead of hanging. The budget applies to this
            ``run()`` invocation only — a reused engine starts every run
            with a fresh count.

        Returns
        -------
        int
            The simulation time when the run stopped.
        """
        if until is None and max_events is None:
            return self._run_unbounded()
        ring = self._ring
        times = self._times
        buckets = self._buckets
        migrate = self._migrate_window
        events_this_run = 0
        self._running = True
        try:
            while self._ring_items or times:
                if self._ring_items:
                    time = self.now
                    while ring[time & RING_MASK] is None:
                        time += 1
                else:
                    time = times[0]
                if until is not None and time > until:
                    self.now = until
                    migrate()
                    return until
                slot = time & RING_MASK
                bucket = ring[slot]
                if bucket is None:
                    # Next event comes from the overflow heap: land its
                    # bucket in the ring slot so mid-drain appends to the
                    # same timestamp extend the same FIFO.
                    heapq.heappop(times)
                    bucket = buckets.pop(time)
                    ring[slot] = bucket
                    self._ring_items += 1
                self.now = time
                if times and times[0] < time + RING_SIZE:
                    migrate()
                consumed = 0
                try:
                    while consumed < len(bucket):
                        if max_events is not None and events_this_run >= max_events:
                            raise SchedulingError(
                                f"exceeded max_events={max_events}; "
                                "simulation appears livelocked"
                            )
                        entry = bucket[consumed]
                        consumed += 1
                        entry()
                        events_this_run += 1
                        self._events_processed += 1
                finally:
                    if consumed < len(bucket):
                        # Interrupted mid-bucket (budget exhausted or a
                        # callback raised): keep the unexecuted suffix so
                        # the queue stays consistent. The budget check
                        # fires *before* consuming, so the blocked event
                        # is still pending; a callback that raised was
                        # already consumed.
                        ring[slot] = bucket[consumed:]
                    else:
                        ring[slot] = None
                        self._ring_items -= 1
        finally:
            self._running = False
        if until is not None and until > self.now:
            self.now = until
            self._migrate_window()
        return self.now

    def _run_unbounded(self) -> int:
        """Fast drain loop: no time bound, no event budget.

        Everything hot is bound to locals; the next timestamp is found by
        scanning the ring forward from ``now`` (empty slots are visited
        at most once per simulated cycle), then the bucket drains FIFO —
        including events a callback appends to the current timestamp —
        with a single clock store for the whole batch.
        """
        ring = self._ring
        times = self._times
        buckets = self._buckets
        pop = heapq.heappop
        events = 0
        time = self.now
        self._running = True
        try:
            while True:
                if self._ring_items:
                    slot = time & RING_MASK
                    bucket = ring[slot]
                    while bucket is None:
                        time += 1
                        slot = time & RING_MASK
                        bucket = ring[slot]
                    # The bucket is detached up front. An event appended
                    # to the *current* timestamp mid-drain therefore
                    # opens a fresh bucket in the same slot; the scan
                    # resumes at `time`, so that bucket is drained
                    # immediately after this one, preserving exact FIFO
                    # order within the timestamp (pinned by
                    # test_pending_events_counts_mid_drain_appends).
                    ring[slot] = None
                    self._ring_items -= 1
                elif times:
                    time = pop(times)
                    bucket = buckets.pop(time)
                else:
                    break
                self.now = time
                if times and times[0] < time + RING_SIZE:
                    self._migrate_window()
                try:
                    for entry in bucket:
                        entry()
                except BaseException:
                    # Keep the whole bucket queued (the engine's queue is
                    # not resumable after a model exception, but
                    # pending_events and peek_time stay consistent). If a
                    # callback re-opened this timestamp, merge in front.
                    slot = time & RING_MASK
                    reopened = ring[slot]
                    if reopened is None:
                        ring[slot] = bucket
                        self._ring_items += 1
                    else:
                        ring[slot] = bucket + reopened
                    raise
                events += len(bucket)
        finally:
            self._events_processed += events
            self._running = False
        return self.now

    def peek_time(self) -> int | None:
        """Time of the next pending event, or ``None`` when idle."""
        if self._ring_items:
            ring = self._ring
            time = self.now
            while ring[time & RING_MASK] is None:
                time += 1
            return time
        return self._times[0] if self._times else None
