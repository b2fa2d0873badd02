"""DRAM channel model: a bandwidth server plus fixed access latency.

Table 1: 768 GB/s per socket, 100 ns latency. The channel is the
second-order contention point the NUMA-aware cache controller watches (a
saturated local DRAM pushes cache capacity back toward local data).
"""

from __future__ import annotations

from repro.sim.resource import BandwidthResource
from repro.sim.stats import StatGroup, flatten_slots


class DramChannel:
    """One socket's local high-bandwidth memory."""

    __slots__ = (
        "socket_id",
        "latency",
        "resource",
        "_stats",
        "n_reads",
        "n_writes",
        "n_bytes",
    )

    #: slotted counter -> public stats key (see repro.sim.stats).
    _STAT_FIELDS = (
        ("n_reads", "reads"),
        ("n_writes", "writes"),
        ("n_bytes", "bytes"),
    )

    def __init__(self, socket_id: int, bandwidth: float, latency: int) -> None:
        self.socket_id = socket_id
        self.latency = latency
        self.resource = BandwidthResource(f"dram{socket_id}", bandwidth)
        self._stats = StatGroup(f"dram{socket_id}")
        self.n_reads = 0
        self.n_writes = 0
        self.n_bytes = 0

    @property
    def stats(self) -> StatGroup:
        """Counter view; slotted ints are flattened on every read."""
        return flatten_slots(self, self._STAT_FIELDS, self._stats)

    def access(self, now: int, nbytes: int, write: bool = False) -> int:
        """Admit an access; returns the completion cycle.

        The transfer serializes on the channel bandwidth and then pays
        the fixed array-access latency. (Hot path: the bandwidth-server
        arithmetic is inlined from ``BandwidthResource.service`` —
        identical results; line sizes are fixed positive constants so the
        negative-size guard is not needed here.)
        """
        res = self.resource
        next_free = res._next_free
        start = now if now > next_free else next_free
        duration = nbytes / res._rate
        next_free = start + duration
        res._next_free = next_free
        res._busy_granted += duration
        res._bytes_total += nbytes
        res._transfers += 1
        if write:
            self.n_writes += 1
        else:
            self.n_reads += 1
        self.n_bytes += nbytes
        whole = int(next_free)
        return (whole if whole == next_free else whole + 1) + self.latency

    @property
    def bytes_total(self) -> int:
        """Total bytes moved through this channel."""
        return self.resource.bytes_total
