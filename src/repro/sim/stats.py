"""Counters and time-series recording used across the simulator.

Each simulated component owns a :class:`StatGroup`; the harness flattens
these into a :class:`repro.metrics.report.RunResult` at the end of a run.

Hot components (caches, sockets, DRAM channels, SMs) do **not** call
:meth:`StatGroup.add` on their per-access paths: every ``add`` costs a
method call plus a string-keyed dict hash, and the simulator performs
millions of accesses per run. Instead they keep *slotted integer
counters* — plain ``__slots__`` attributes incremented with ``+= 1`` —
and declare a ``_STAT_FIELDS`` table mapping each attribute to its
public counter name. :func:`flatten_slots` folds those integers into the
component's :class:`StatGroup` whenever the ``stats`` property is read
(end of run, controller samples, tests), so the external dict-like
interface is unchanged while the hot path touches no dicts at all.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

#: Declarative (attribute, counter key) table a slotted component exposes.
StatFields = tuple[tuple[str, str], ...]


def flatten_slots(obj: object, fields: StatFields, group: "StatGroup") -> "StatGroup":
    """Fold an object's slotted integer counters into ``group``.

    Assignment (not ``+=``) makes flattening idempotent, so the ``stats``
    property of a hot component can flatten on every read. Zero counters
    are skipped to preserve the sparse-dict behaviour of components that
    always used :meth:`StatGroup.add` (untouched keys stay absent but
    still read as 0 through the defaultdict interface).
    """
    counters = group._counters
    for attr, key in fields:
        value = getattr(obj, attr)
        if value:
            counters[key] = value
        elif key in counters:
            del counters[key]
    return group


class StatGroup:
    """A named bag of integer counters with a defaultdict interface.

    >>> s = StatGroup("l2")
    >>> s.add("hits")
    >>> s.add("hits", 2)
    >>> s["hits"]
    3
    >>> s["misses"]
    0
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: defaultdict[str, int] = defaultdict(int)

    def add(self, key: str, amount: int = 1) -> None:
        """Increment counter ``key`` by ``amount``."""
        self._counters[key] += amount

    def __getitem__(self, key: str) -> int:
        return self._counters[key]

    def __contains__(self, key: str) -> bool:
        return key in self._counters

    def as_dict(self) -> dict[str, int]:
        """Snapshot of all counters (non-destructive)."""
        return dict(self._counters)

    def ratio(self, numerator: str, *denominators: str) -> float:
        """``numerator / sum(denominators)``, or 0.0 when undefined."""
        denom = sum(self._counters[d] for d in denominators)
        if denom == 0:
            return 0.0
        return self._counters[numerator] / denom

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatGroup({self.name!r}, {dict(self._counters)!r})"


@dataclass
class TimeSeries:
    """An append-only (time, value) series, e.g. link utilization samples."""

    name: str
    times: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, time: int, value: float) -> None:
        """Append one sample; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"time series {self.name!r} got non-monotonic time {time}"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def last(self) -> tuple[int, float] | None:
        """Most recent (time, value) sample, or None when empty."""
        if not self.times:
            return None
        return self.times[-1], self.values[-1]

    def mean(self) -> float:
        """Arithmetic mean of the recorded values (0.0 when empty)."""
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)
