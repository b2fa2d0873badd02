"""Spans, per-package profiles and percentiles for the benchmark.

Spans are recorded in the benchmark's own code, around each call it
makes into the program; nothing inside the program is instrumented. A
:class:`Recorder` always times its spans (the cell and pass timings need
that), but keeps span records only when tracing is on, and writes them
once, at the end, as Chrome-trace JSON.
"""

from __future__ import annotations

import cProfile
import json
import math
import os
import pstats
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import repro

#: The ``src/repro`` packages the per-layer table reports.
LAYERS = ("workloads", "core", "gpu", "sim", "memory", "interconnect",
          "topology", "locality", "runtime", "metrics", "harness", "obs")

_REPRO_PREFIX = str(Path(repro.__file__).resolve().parent) + os.sep


class Recorder:
    """Times named spans; keeps them (with parent and cell id) if tracing."""

    def __init__(self, keep: bool = False) -> None:
        self.keep = keep
        self.spans: list[dict] = []
        #: seconds per span name since the last :meth:`reset`.
        self.totals: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._next_id = 0

    def reset(self) -> None:
        self.totals = defaultdict(float)

    @contextmanager
    def span(self, name: str, cell: str = ""):
        record = {"id": self._next_id, "name": name, "cell": cell,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.monotonic(), "end": None}
        self._next_id += 1
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._open.pop()
            self.totals[name] += record["end"] - record["start"]
            if self.keep:
                self.spans.append(record)

    def add(self, name: str, start: float, end: float, cell: str = "",
            tid: int = 1) -> None:
        """Keep a span measured elsewhere (e.g. a worker's task span)."""
        self.totals[name] += end - start
        if self.keep:
            self.spans.append({"id": self._next_id, "name": name,
                               "cell": cell, "parent": None,
                               "start": start, "end": end, "tid": tid})
            self._next_id += 1

    def write_chrome(self, path: Path) -> None:
        """Write the kept spans as Chrome-trace (Perfetto) JSON."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {"name": s["name"], "ph": "X", "pid": 1, "tid": s.get("tid", 1),
             "ts": (s["start"] - origin) * 1e6,
             "dur": (s["end"] - s["start"]) * 1e6,
             "args": {"id": s["id"], "parent": s["parent"],
                      "cell": s["cell"]}}
            for s in sorted(self.spans, key=lambda s: s["start"])
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}) + "\n")


def layer_of(filename: str) -> str:
    """The ``repro`` package a profiled function lives in, or ``other``."""
    if not filename.startswith(_REPRO_PREFIX):
        return "other"
    rest = filename[len(_REPRO_PREFIX):]
    return rest.split(os.sep, 1)[0] if os.sep in rest else "repro"


def profiled(call):
    """``(profile, call())``: one call under cProfile."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        value = call()
    finally:
        profile.disable()
    return profile, value


def layer_profile(profile: cProfile.Profile) -> dict[str, dict[str, float]]:
    """Self time share and call count per package of one profile."""
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (filename, _, _), (_, ncalls, tottime, _, _) in (
            pstats.Stats(profile).stats.items()):
        layer = layer_of(filename)
        self_time[layer] += tottime
        calls[layer] += ncalls
    total = sum(self_time.values()) or 1.0
    return {layer: {"self_share": self_time[layer] / total,
                    "calls": calls[layer]}
            for layer in set(self_time) | set(LAYERS)}


def tail(values: list[float]) -> tuple[int, float]:
    """``(percentile, value)``: the highest integer percentile above the
    median with at least ten samples beyond it (nearest rank), or the
    maximum when there are too few samples for one."""
    ordered = sorted(values)
    n = len(ordered)
    pct = (100 * (n - 10)) // n
    if pct <= 50:
        return 100, ordered[-1]
    return pct, ordered[math.ceil(pct * n / 100) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was measured (``den == 0``)."""
    return num / den if den else 0.0
