"""MetricRegistry: named counters/gauges with a simulated-time sampler.

Generalizes the Fig-5 machinery: where ``LinkBalancer`` hard-codes two
``TimeSeries`` per link, the registry lets the system wire *any*
zero-argument reader — a slotted counter attribute, a resource's byte
total — as a named gauge, then samples every gauge on a fixed
simulated-time period into one ``TimeSeries`` per gauge.

Rules the wiring must respect (see DESIGN.md, "Observability
contract"):

* Gauge readers must be **pure reads** of component state — slotted
  counters, plain attributes. They must never call consuming probes
  such as ``UtilizationWindow.sample`` (the balancer's control loop
  depends on that window state; a registry read would perturb policy).
* The sampler is a :class:`~repro.sim.engine.PeriodicService`, like
  the link balancers: one already-scheduled stale tick fires (and
  advances ``engine.now``) after ``stop()`` — the accepted cost of
  periodic services. A run that never starts the sampler schedules
  nothing, so untraced runs are byte-identical.
* Counters are sampled once, at :meth:`finish` — end-of-run totals.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Engine, PeriodicService
from repro.sim.stats import TimeSeries


class MetricRegistry(PeriodicService):
    """Named gauges sampled periodically in simulated time, plus counters."""

    def __init__(self, engine: Engine, interval: int) -> None:
        if interval <= 0:
            raise ValueError(f"sample interval must be positive, got {interval}")
        super().__init__(engine, interval)
        self._gauges: dict[str, Callable[[], float]] = {}
        self._counters: dict[str, Callable[[], int]] = {}
        #: one TimeSeries per gauge, filled by the sampler.
        self.series: dict[str, TimeSeries] = {}
        #: end-of-run counter totals, filled by :meth:`finish`.
        self.counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def gauge(self, name: str, reader: Callable[[], float]) -> None:
        """Register a periodically sampled gauge (names are unique)."""
        if name in self._gauges:
            raise ValueError(f"duplicate gauge {name!r}")
        self._gauges[name] = reader
        self.series[name] = TimeSeries(name)

    def counter(self, name: str, reader: Callable[[], int]) -> None:
        """Register an end-of-run counter (sampled once at finish)."""
        if name in self._counters:
            raise ValueError(f"duplicate counter {name!r}")
        self._counters[name] = reader

    def __len__(self) -> int:
        return len(self._gauges) + len(self._counters)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self) -> None:
        """Record every gauge at the current cycle."""
        now = self.engine.now
        for name, reader in self._gauges.items():
            self.series[name].record(now, float(reader()))

    def finish(self) -> None:
        """Stop the sampler and capture every counter's final total."""
        self.stop()
        for name, reader in self._counters.items():
            self.counters[name] = int(reader())

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless JSON-serializable view (times/values per gauge)."""
        return {
            "counters": dict(self.counters),
            "series": {
                name: {"times": list(ts.times), "values": list(ts.values)}
                for name, ts in self.series.items()
            },
        }
