"""Work-conserving FIFO bandwidth servers with windowed utilization.

Every contended byte-moving component in the simulator — each direction of a
GPU-to-switch link, each socket's DRAM, each socket's on-chip NoC — is
modelled as a :class:`BandwidthResource`: a single FIFO server whose service
time for a transfer is ``bytes / rate`` cycles.

Because the server is work-conserving, the busy time observed in a sampling
window is an exact measure of utilization, and a backlogged resource
measures 100% saturated — which is precisely the signal the paper's two
dynamic controllers (Section 4 link balancer, Section 5 cache partitioner)
key on.

The busy-time query uses a closed form instead of interval bookkeeping:
for a FIFO server, if ``next_free > t`` then the whole interval
``[t, next_free)`` is busy, so ``busy_up_to(t) = total_granted - max(0,
next_free - t)``.
"""

from __future__ import annotations

from repro.errors import SimulationError


class BandwidthResource:
    """A FIFO server moving ``rate`` bytes per cycle.

    Parameters
    ----------
    name:
        Human-readable identifier used in stats dumps.
    rate:
        Service rate in bytes/cycle. May be changed at runtime via
        :meth:`set_rate` (used by the dynamic lane balancer).
    """

    __slots__ = ("name", "_rate", "_next_free", "_busy_granted", "_bytes_total", "_transfers")

    def __init__(self, name: str, rate: float) -> None:
        if rate <= 0:
            raise SimulationError(f"resource {name!r} needs positive rate, got {rate}")
        self.name = name
        self._rate = float(rate)
        self._next_free: float = 0.0
        self._busy_granted: float = 0.0
        self._bytes_total: int = 0
        self._transfers: int = 0

    # ------------------------------------------------------------------
    # service
    # ------------------------------------------------------------------
    def service(self, arrival: int, nbytes: int) -> int:
        """Admit a transfer of ``nbytes`` arriving at cycle ``arrival``.

        Returns the (integer) cycle at which the last byte has left the
        server. The caller is responsible for adding any propagation
        latency on top. (Hot path: called once per packet/DRAM/NoC
        transfer, so the arithmetic is branch-based rather than
        ``max``/``is_integer`` calls — same values, fewer frames.)
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes}")
        next_free = self._next_free
        start = arrival if arrival > next_free else next_free
        duration = nbytes / self._rate
        next_free = start + duration
        self._next_free = next_free
        self._busy_granted += duration
        self._bytes_total += nbytes
        self._transfers += 1
        whole = int(next_free)
        return whole if whole == next_free else whole + 1

    def quote(self, arrival: int, nbytes: int) -> int:
        """Completion cycle :meth:`service` *would* return — without
        committing the transfer.

        This is the closed form the fused miss pipeline's path quotes
        rest on (DESIGN.md, "Fused miss pipeline"): a FIFO server's
        completion depends only on its state at the admission instant,
        so a quote taken at admission time is exact and a later
        :meth:`set_rate` can never retime it. A quote taken *without*
        admitting is only a lower bound — another admission may queue
        ahead — which is why the pipeline never quotes across a resource
        it has not yet admitted.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes}")
        next_free = self._next_free
        start = arrival if arrival > next_free else next_free
        done = start + nbytes / self._rate
        whole = int(done)
        return whole if whole == done else whole + 1

    def queue_delay(self, arrival: int) -> float:
        """Cycles a transfer arriving now would wait before service starts."""
        return max(0.0, self._next_free - arrival)

    # ------------------------------------------------------------------
    # rate control (dynamic lane allocation)
    # ------------------------------------------------------------------
    @property
    def rate(self) -> float:
        """Current service rate in bytes/cycle."""
        return self._rate

    def set_rate(self, rate: float) -> None:
        """Change the service rate; only affects transfers admitted later.

        An in-flight reservation keeps the completion time it was quoted
        at admission — the work-conserving FIFO arithmetic folds each
        transfer into ``next_free`` when admitted, so there is nothing
        left to retime (pinned by tests/test_resource.py's lane-turn and
        quiesce-commit cases; the fused miss pipeline's determinism
        contract relies on it).
        """
        if rate <= 0:
            raise SimulationError(
                f"resource {self.name!r} needs positive rate, got {rate}"
            )
        self._rate = float(rate)

    def stall_until(self, time: int) -> None:
        """Block new service starts until ``time`` (lane-turn quiesce).

        The stall is *not* counted as busy time, so a turned lane shows up
        as lost bandwidth rather than phantom utilization.
        """
        if time > self._next_free:
            self._next_free = float(time)

    # ------------------------------------------------------------------
    # utilization accounting
    # ------------------------------------------------------------------
    def busy_up_to(self, time: int) -> float:
        """Total busy cycles in ``[0, time)`` (closed form, see module doc)."""
        overhang = max(0.0, self._next_free - time)
        return self._busy_granted - overhang

    @property
    def bytes_total(self) -> int:
        """Total bytes ever transferred through this resource."""
        return self._bytes_total

    @property
    def transfers(self) -> int:
        """Total number of transfers admitted."""
        return self._transfers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BandwidthResource({self.name!r}, rate={self._rate})"


class UtilizationWindow:
    """Computes per-window utilization of a :class:`BandwidthResource`.

    A controller owns one window per resource it watches and calls
    :meth:`sample` on its own schedule; the window returns the fraction of
    the elapsed interval the resource was busy, clamped to ``[0, 1]``.
    """

    __slots__ = ("resource", "_last_time", "_last_busy")

    def __init__(self, resource: BandwidthResource) -> None:
        self.resource = resource
        self._last_time: int = 0
        self._last_busy: float = 0.0

    def sample(self, now: int) -> float:
        """Utilization of the resource since the previous sample."""
        busy = self.resource.busy_up_to(now)
        elapsed = now - self._last_time
        if elapsed <= 0:
            return 0.0
        util = (busy - self._last_busy) / elapsed
        self._last_time = now
        self._last_busy = busy
        return min(1.0, max(0.0, util))
