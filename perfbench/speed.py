"""Host-speed calibration: host seconds expressed at a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
tens of percent over minutes as neighbours come and go, far more than any
bound a regression check could use. To take that drift out, a fixed
pure-Python probe (about 10 ms), independent of the program under test,
runs between the timed blocks (cells, sweeps, set-up interpreters), so
every block is bracketed by a probe on each side. The mean of the two
says how fast the host ran during the block, and the block's host time
is scaled by ``REFERENCE_SECONDS / probe``, i.e. expressed in seconds of
a host on which the probe takes ``REFERENCE_SECONDS``.

The probe mimics the simulator's instruction mix (slotted-object
attribute updates, integer-keyed dict probes and inserts, list appends
and a binary heap) so that a neighbour who slows the simulator slows the
probe alike. Its working set, about 1 MiB, is rebuilt on every run and
the garbage collector is off while it runs, so the program's own heap
does not change its time. A change to the program cannot move the
probe, so a real slow-down still shows in full.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Probe seconds on the reference host (a quiet 2.1 GHz Xeon vCPU).
REFERENCE_SECONDS = 0.010

_LINES = 1 << 15
_STEPS = 20_000


class _Way:
    __slots__ = ("tag", "stamp", "hits")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.stamp = 0
        self.hits = 0


def _probe_once(table: dict, ways: list) -> float:
    """One fixed unit of work; returns its wall-clock seconds.

    The garbage collector is off meanwhile: a collection would walk the
    program's heap, and the probe's time would depend on the program.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    heap: list[tuple[int, int]] = []
    log: list[int] = []
    key = 12345
    now = 0
    for step in range(_STEPS):
        key = (key * 1103515245 + 12345) & 0x7FFFFFFF
        line = key & (_LINES - 1)
        way = table.get(line)
        if way is None:
            way = ways[line & 255]
            table[line] = way
        else:
            way.hits += 1
        way.stamp = now
        heapq.heappush(heap, (now + (key & 63), step))
        if len(heap) > 64:
            now, done = heapq.heappop(heap)
            log.append(done)
    table.clear()
    seconds = time.perf_counter() - start
    if collecting:
        gc.enable()
    return seconds


class Speed:
    """Samples the host's speed; scales host seconds to the reference host.

    Call :meth:`probe` before the first timed block and :meth:`factor`
    after each one; a block's factor uses the probes on either side.
    """

    def __init__(self) -> None:
        self._table: dict = {}
        self._ways = [_Way(i) for i in range(256)]
        self.samples: list[float] = []

    def probe(self) -> float:
        """Take one speed sample (probe seconds) and keep it."""
        sample = _probe_once(self._table, self._ways)
        self.samples.append(sample)
        return sample

    def factor(self) -> float:
        """Probe again; reference over host speed since the last probe."""
        self.probe()
        return 2 * REFERENCE_SECONDS / (self.samples[-2] + self.samples[-1])


class Unscaled:
    """A :class:`Speed` stand-in that probes nothing and scales by 1.

    For passes whose host times are not reported, such as the profiled
    pass, so the probe stays out of their profile.
    """

    def probe(self) -> float:
        return 0.0

    def factor(self) -> float:
        return 1.0


UNSCALED = Unscaled()
