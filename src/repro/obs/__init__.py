"""Unified observability layer: deterministic tracing and metrics.

Three pieces (see DESIGN.md, "Observability contract"):

* :mod:`repro.obs.traced` — the per-op sites: traced subclasses of the
  miss-path walkers, the sockets and the fabric, which a system built
  with a tracer uses. The untraced classes carry no hook call, so
  tracing costs nothing per op when off; the ``obs-hook-discipline``
  lint rule keeps hook calls out of declared hot functions. The cold
  sites (kernel launches, page re-homes, lane turns) read a ``tracer``
  attribute on their owner — the launcher, the placement policy, each
  fabric link — which is None unless the system is traced, so an
  untraced run calls no code of this package at all.
* :mod:`repro.obs.tracer` — :class:`~repro.obs.tracer.Tracer`, the
  handler set: spans and instants recorded purely in *simulated time*
  (kernel spans per socket, miss-path walker spans with hop
  breakdowns, migration instants, fabric transfers, lane events).
* :mod:`repro.obs.metrics` — :class:`~repro.obs.metrics.MetricRegistry`,
  named gauges/counters with a periodic simulated-time sampler
  generalizing the Fig-5 ``TimeSeries`` machinery.

:mod:`repro.obs.chrome` exports both to Chrome/Perfetto ``trace.json``.
Simulated-time traces contain no wall-clock data at all, so two runs of
the same config serialize byte-identically.
"""

from repro.obs.metrics import MetricRegistry
from repro.obs.tracer import Tracer

__all__ = ["MetricRegistry", "Tracer"]
