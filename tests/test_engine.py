"""Unit tests for the discrete-event engine."""

import ast
from pathlib import Path

import pytest

import repro
from repro.errors import SchedulingError
from repro.sim.engine import RING_SIZE, Engine


def test_starts_at_time_zero():
    assert Engine().now == 0


def test_schedule_and_run_single_event():
    eng = Engine()
    fired = []
    eng.schedule(10, fired.append, "x")
    eng.run()
    assert fired == ["x"]
    assert eng.now == 10


def test_events_run_in_time_order():
    eng = Engine()
    fired = []
    eng.schedule(5, fired.append, "late")
    eng.schedule(1, fired.append, "early")
    eng.schedule(3, fired.append, "middle")
    eng.run()
    assert fired == ["early", "middle", "late"]


def test_same_time_events_run_in_schedule_order():
    eng = Engine()
    fired = []
    for i in range(20):
        eng.schedule(7, fired.append, i)
    eng.run()
    assert fired == list(range(20))


def test_schedule_at_absolute_time():
    eng = Engine()
    fired = []
    eng.schedule_at(42, fired.append, "a")
    eng.run()
    assert eng.now == 42
    assert fired == ["a"]


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SchedulingError):
        eng.schedule(-1, lambda: None)


def test_past_absolute_time_rejected():
    eng = Engine()
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(SchedulingError):
        eng.schedule_at(5, lambda: None)


def test_events_can_schedule_more_events():
    eng = Engine()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            eng.schedule(2, chain, n + 1)

    eng.schedule(0, chain, 0)
    eng.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert eng.now == 10


def test_run_until_stops_clock_at_bound():
    eng = Engine()
    fired = []
    eng.schedule(5, fired.append, "a")
    eng.schedule(50, fired.append, "b")
    eng.run(until=20)
    assert fired == ["a"]
    assert eng.now == 20
    eng.run()
    assert fired == ["a", "b"]
    assert eng.now == 50


def test_run_until_with_empty_queue_advances_clock():
    eng = Engine()
    eng.run(until=100)
    assert eng.now == 100


def test_max_events_guards_against_livelock():
    eng = Engine()

    def forever():
        eng.schedule(1, forever)

    eng.schedule(0, forever)
    with pytest.raises(SchedulingError):
        eng.run(max_events=100)


def test_max_events_budget_is_per_run_invocation():
    # Regression: the budget used to compare against the *cumulative*
    # event count, so a second run() on a reused engine raised spuriously.
    eng = Engine()
    for i in range(50):
        eng.schedule(i, lambda: None)
    eng.run(max_events=60)
    assert eng.events_processed == 50
    for i in range(50):
        eng.schedule(i, lambda: None)
    # 50 cumulative + 50 new: must NOT raise with a 60-event budget.
    eng.run(max_events=60)
    assert eng.events_processed == 100


def test_max_events_still_guards_each_run():
    eng = Engine()

    def forever():
        eng.schedule(1, forever)

    eng.schedule(0, forever)
    with pytest.raises(SchedulingError):
        eng.run(max_events=10)
    # The livelock guard applies to the next run too.
    with pytest.raises(SchedulingError):
        eng.run(max_events=10)


def test_events_processed_counter():
    eng = Engine()
    for i in range(7):
        eng.schedule(i, lambda: None)
    eng.run()
    assert eng.events_processed == 7


def test_pending_events_and_peek():
    eng = Engine()
    assert eng.peek_time() is None
    eng.schedule(9, lambda: None)
    eng.schedule(3, lambda: None)
    assert eng.pending_events == 2
    assert eng.peek_time() == 3


def test_zero_delay_event_runs_at_current_time():
    eng = Engine()
    times = []
    eng.schedule(5, lambda: eng.schedule(0, lambda: times.append(eng.now)))
    eng.run()
    assert times == [5]


def test_callback_args_passed_through():
    eng = Engine()
    got = []
    eng.schedule(1, lambda a, b, c: got.append((a, b, c)), 1, "two", [3])
    eng.run()
    assert got == [(1, "two", [3])]


def test_max_events_budget_is_exact():
    # Regression: the budget check used to run *after* the callback, so
    # max_events=N silently allowed N+1 events. The budget is now exact.
    eng = Engine()
    fired = []
    for i in range(6):
        eng.schedule(i, fired.append, i)
    with pytest.raises(SchedulingError):
        eng.run(max_events=5)
    assert fired == [0, 1, 2, 3, 4]
    assert eng.events_processed == 5
    # The blocked sixth event is still pending and runs on the next call.
    eng.run()
    assert fired == [0, 1, 2, 3, 4, 5]


def test_max_events_equal_to_event_count_does_not_raise():
    eng = Engine()
    for i in range(5):
        eng.schedule(i, lambda: None)
    eng.run(max_events=5)
    assert eng.events_processed == 5


def test_exact_budget_mid_timestamp_batch():
    # A budget boundary inside a same-timestamp batch must stop exactly
    # there and keep the rest of the batch runnable.
    eng = Engine()
    fired = []
    for i in range(4):
        eng.schedule(7, fired.append, i)
    with pytest.raises(SchedulingError):
        eng.run(max_events=2)
    assert fired == [0, 1]
    eng.run()
    assert fired == [0, 1, 2, 3]
    assert eng.now == 7


def test_events_scheduled_at_current_time_run_in_same_drain():
    # The batched same-timestamp drain must pick up events a callback
    # appends to the *current* cycle, in FIFO order.
    eng = Engine()
    fired = []

    def first():
        fired.append("first")
        eng.schedule(0, fired.append, "appended")

    eng.schedule(3, first)
    eng.schedule(3, fired.append, "second")
    eng.run()
    assert fired == ["first", "second", "appended"]
    assert eng.now == 3


# ---------------------------------------------------------------------------
# pending_events is counted on demand from the queue itself, so it stays
# exact through every drain mode, the unchecked insert, and error paths.
# ---------------------------------------------------------------------------

def test_pending_events_tracks_schedule_and_drain():
    eng = Engine()
    fired_later = []
    assert eng.pending_events == 0
    eng.schedule(5, lambda: None)
    eng.schedule_at(5, lambda: None)
    eng.schedule(7, fired_later.append, 7)
    eng.push(9, lambda: None)
    eng.push(3 * RING_SIZE, lambda: None)
    assert eng.pending_events == 5
    eng.run(until=5)
    assert eng.pending_events == 3
    eng.run()
    assert eng.pending_events == 0
    assert fired_later == [7]


def test_pending_events_exact_under_max_events_budget():
    eng = Engine()
    for _ in range(6):
        eng.schedule(1, lambda: None)
    with pytest.raises(SchedulingError):
        eng.run(max_events=4)
    # 4 executed, 2 still queued.
    assert eng.pending_events == 2
    eng.run()
    assert eng.pending_events == 0


def test_pending_events_counts_mid_drain_appends():
    eng = Engine()
    fired = []

    def chain(n):
        fired.append(n)
        if n:
            eng.push(eng.now, lambda: chain(n - 1))

    eng.schedule(3, lambda: chain(4))
    eng.run()
    assert fired == [4, 3, 2, 1, 0]
    assert eng.pending_events == 0


def test_pending_events_consistent_after_callback_raises():
    eng = Engine()

    def boom():
        raise RuntimeError("model error")

    eng.schedule(1, lambda: None)
    eng.schedule(1, boom)
    eng.schedule(1, lambda: None)
    eng.schedule(9, lambda: None)
    with pytest.raises(RuntimeError):
        eng.run()
    # The raising bucket is kept whole (not resumable, but accounting and
    # peek stay consistent) plus the untouched later event.
    assert eng.pending_events == 4
    assert eng.peek_time() == 1


def test_bound_args_and_bare_callables_run_in_fifo_order():
    # schedule() binds its args once; the bucket holds one entry shape,
    # so pushed callables and bound callbacks interleave in FIFO order.
    eng = Engine()
    fired = []
    eng.schedule(3, fired.append, "bound-1")
    eng.push(3, lambda: fired.append("bare-1"))
    eng.schedule_at(3, fired.append, "bound-2")
    eng.schedule(3, lambda: fired.append("bare-2"))
    eng.run()
    assert fired == ["bound-1", "bare-1", "bound-2", "bare-2"]


def test_zero_arg_schedule_validation():
    eng = Engine()
    with pytest.raises(SchedulingError):
        eng.schedule(-1, lambda: None)
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(SchedulingError):
        eng.schedule_at(5, lambda: None)
    assert eng.pending_events == 0


#: The calendar ring's private layout: slots, occupancy count, overflow
#: queue and the ring geometry.
RING_PRIVATE = frozenset({
    "_ring", "_ring_items", "_buckets", "_times", "_overflow_push",
    "RING_SIZE", "RING_MASK",
})


def _ring_references(path: Path) -> list[str]:
    """``line: name`` of every identifier, attribute, import or string
    in ``path`` that names a piece of the ring's layout."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in RING_PRIVATE:
            found.append(f"{node.lineno}: {name}")
    return found


def test_only_the_engine_knows_the_ring_layout():
    # Every insert goes through Engine.push/schedule/schedule_at, so a
    # change to the ring (its size, its overflow rule) is a one-file
    # change. No module but sim/engine.py may reach into its layout.
    package = Path(repro.__file__).resolve().parent
    engine = package / "sim" / "engine.py"
    offenders = {
        str(path.relative_to(package)): refs
        for path in sorted(package.rglob("*.py"))
        if path != engine and (refs := _ring_references(path))
    }
    assert offenders == {}
    assert _ring_references(engine)  # the scan does see the layout
