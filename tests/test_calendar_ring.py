"""Property tests: the calendar-ring engine vs a reference (time, seq) heap.

The PR 10 engine replaced the distinct-timestamp heap with an indexed
calendar ring (near-future bucket array + far-future overflow heap; see
DESIGN.md, "Hot-path architecture"). The observable contract did not
change: events fire in exact ``(time, seq)`` order — ``seq`` being
global schedule order — including events appended to the *current*
timestamp mid-drain, which run after the batch that scheduled them.

These tests pin that contract against an executable specification: a
plain ``(time, seq)`` heap, the exact structure the ring replaced. Each
randomized program is executed on both engines and must produce the
identical fire order, covering

* mid-drain appends (zero-delay children),
* far-future timestamps that land in the overflow heap
  (``delay >= RING_SIZE``) and must migrate back into the ring as the
  window advances,
* periodic self-rescheduling chains with periods straddling the window
  size — the scheduling shape of the Section 4 lane balancer, whose
  ``set_rate`` turns are driven by fixed-period controller events.
"""

from __future__ import annotations

import heapq
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import RING_SIZE, Engine


class ReferenceEngine:
    """Executable specification: a ``(time, seq)`` heap, drained in order."""

    def __init__(self, now: int = 0) -> None:
        self.now = now
        self._seq = 0
        self._heap: list[tuple[int, int, object]] = []

    def schedule(self, delay: int, fn) -> None:
        self.push(self.now + delay, fn)

    def push(self, time: int, fn) -> None:
        assert time >= self.now
        heapq.heappush(self._heap, (time, self._seq, fn))
        self._seq += 1

    def run(self) -> int:
        heap = self._heap
        while heap:
            time, _, fn = heapq.heappop(heap)
            self.now = time
            fn()
        return self.now


#: Delay pool mixing same-cycle appends, in-window times, both window
#: boundaries, and deep-overflow times several windows out.
DELAYS = (
    0, 1, 2, 3, 5, 17, 255, 4096,
    RING_SIZE - 1, RING_SIZE, RING_SIZE + 3,
    2 * RING_SIZE + 11, 5 * RING_SIZE,
)


def _execute(engine, seed: int, roots: list[int],
             chains: list[tuple[int, int]]) -> list[tuple[int, tuple]]:
    """Run one program; return the ``(fire time, tag)`` order.

    The event tree is a pure function of ``seed`` (children are drawn
    from a per-tag ``random.Random``), so the reference and ring
    executions schedule byte-identical programs.
    """
    order: list[tuple[int, tuple]] = []

    def fire(tag: tuple) -> None:
        order.append((engine.now, tag))
        mixed = seed
        for part in tag:
            mixed = mixed * 1000003 + part + 1
        rng = random.Random(mixed)
        if len(tag) < 4:
            for i in range(rng.randrange(3)):
                child = tag + (i,)
                engine.schedule(
                    rng.choice(DELAYS), lambda t=child: fire(t)
                )

    def tick(tag: tuple, period: int, remaining: int) -> None:
        order.append((engine.now, tag))
        if remaining:
            engine.schedule(
                period,
                lambda: tick(tag[:-1] + (tag[-1] + 1,), period, remaining - 1),
            )

    for i, time in enumerate(roots):
        tag = (i,)
        engine.push(time, lambda t=tag: fire(t))
    for j, (period, count) in enumerate(chains):
        engine.schedule(
            period, lambda p=period, c=count, j=j: tick(("lane", j, 0), p, c)
        )
    engine.run()
    return order


root_times = st.lists(
    st.integers(min_value=0, max_value=3 * RING_SIZE), min_size=1, max_size=24
)
lane_chains = st.lists(
    st.tuples(
        st.sampled_from((1, 7, 500, RING_SIZE - 1, RING_SIZE + 1)),
        st.integers(min_value=1, max_value=6),
    ),
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(root_times, lane_chains, st.integers(min_value=0, max_value=2**32 - 1))
def test_ring_drains_in_reference_heap_order(roots, chains, seed):
    """Ring fire order == (time, seq) heap fire order, program for program."""
    reference = _execute(ReferenceEngine(), seed, roots, chains)
    ring = _execute(Engine(), seed, roots, chains)
    assert ring == reference
    assert [t for t, _ in ring] == sorted(t for t, _ in ring)
