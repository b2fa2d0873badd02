"""High-level constructors: the one-call public API.

:func:`build_system` turns a :class:`SystemConfig` into a ready
:class:`NumaGpuSystem`; :func:`run_workload_on` runs one workload spec on
it at a chosen scale. The experiment harness composes these the same way
user code does.

Trace reuse: synthetic CTA traces are pure functions of ``(workload,
scale, cta_index)`` — they do not depend on the system configuration —
but every experiment figure runs the *same* workload under many configs,
regenerating identical traces each time. :func:`run_workload_on` therefore
memoizes the most recent workload's materialized CTA slices (a
single-entry cache: one workload+scale resident at a time, so memory
stays bounded at one trace set). Slices and their ops are frozen
dataclasses and every consumer treats the slice lists as read-only, so
sharing them across runs cannot change results. Within one trace, ops
are shared too: equal ``(addr, is_write)`` ops are one object from the
trace's op table (:func:`repro.workloads.spec.op_table`), so no consumer
may mutate an op or compare ops by identity. Per-kernel values are
computed once per kernel, not once per CTA.

A single entry only hits when runs of one workload are consecutive.
Sweep drivers request cells config-major, so the supervised harness
(:mod:`repro.harness.supervisor`) dispatches them workload-major: each
executing process builds a workload's trace once per sweep. A finished
system frees itself by reference counting the moment its last reference
goes (:meth:`repro.gpu.system.NumaGpuSystem.__del__`, DESIGN.md "Heap
release"), so neither the harness nor a trace-driven caller needs a
collection to drop the systems that replayed a trace.
"""

from __future__ import annotations

from repro.config import (
    SystemConfig,
    hypothetical_config,
    paper_config,
    scaled_config,
    single_gpu_config,
)
from repro.gpu.cta import Slice
from repro.gpu.system import NumaGpuSystem
from repro.metrics.report import RunResult
from repro.runtime.kernel import KernelWork
from repro.workloads.spec import SMALL, WorkloadScale, WorkloadSpec


def build_system(
    config: SystemConfig | None = None,
    record_timelines: bool = False,
    tracer=None,
    metrics_interval: int = 0,
) -> NumaGpuSystem:
    """Construct a simulatable system (default: scaled 4-socket).

    ``tracer`` (a :class:`repro.obs.tracer.Tracer`) builds the system
    from the traced classes of :mod:`repro.obs.traced` and binds the
    cold hook sites for its runs; a positive
    ``metrics_interval`` additionally samples the stock metric gauges
    every that many cycles (see DESIGN.md, "Observability contract").
    """
    if config is None:
        config = scaled_config()
    return NumaGpuSystem(
        config,
        record_timelines=record_timelines,
        tracer=tracer,
        metrics_interval=metrics_interval,
    )


# Most-recent (workload, scale) kernel list with memoizing CTA builders.
# The key holds a strong reference to the workload spec, so the id() in
# the comparison tuple can never be recycled while the entry is live.
_last_traces: tuple[tuple, list[KernelWork]] | None = None


def _memoizing_kernels(workload: WorkloadSpec, scale: WorkloadScale) -> list[KernelWork]:
    """Build (or reuse) the kernel list with per-CTA slice memoization."""
    global _last_traces
    key = (workload, id(workload), scale.name, scale.cta_cap,
           scale.footprint_lines, scale.ops_scale)
    if _last_traces is not None and _last_traces[0] == key:
        return _last_traces[1]
    kernels = [_memoized_work(work) for work in workload.build_kernels(scale)]
    _last_traces = (key, kernels)
    return kernels


def _memoized_work(work: KernelWork) -> KernelWork:
    """Wrap one kernel's CTA builder so each CTA's slices build once."""
    built: dict[int, list[Slice]] = {}
    builder = work.build_cta

    def build(cta_index: int) -> list[Slice]:
        slices = built.get(cta_index)
        if slices is None:
            slices = builder(cta_index)
            built[cta_index] = slices
        return slices

    return KernelWork(work.name, work.n_ctas, build)


def run_workload_traced(
    config: SystemConfig,
    workload: WorkloadSpec,
    scale: WorkloadScale = SMALL,
    record_timelines: bool = False,
    tracer=None,
    metrics_interval: int = 0,
) -> "tuple[RunResult, NumaGpuSystem]":
    """:func:`run_workload_on`, additionally returning the system.

    Trace exporters need the system after the run — its metric registry
    (``system.metrics``) feeds the Chrome counter tracks that the
    RunResult deliberately does not carry.
    """
    system = build_system(
        config,
        record_timelines=record_timelines,
        tracer=tracer,
        metrics_interval=metrics_interval,
    )
    kernels = _memoizing_kernels(workload, scale)
    # Materialize every CTA's slices *before* the engine drain: traces
    # are pure functions of (workload, scale, cta_index) — the launcher
    # would build exactly this set lazily mid-run, which charges trace
    # generation to the simulation's measured wall-clock. Pre-building
    # through the memoizing wrappers yields the same objects, so results
    # are unchanged; the engine drain then measures simulation only.
    for work in kernels:
        build = work.build_cta
        for cta_index in range(work.n_ctas):
            build(cta_index)
    return system.run(kernels, workload_name=workload.name), system


def run_workload_on(
    config: SystemConfig,
    workload: WorkloadSpec,
    scale: WorkloadScale = SMALL,
    record_timelines: bool = False,
    tracer=None,
    metrics_interval: int = 0,
) -> RunResult:
    """Build a fresh system, run one workload, return its RunResult.

    Every run uses a fresh system: caches, page tables, and link state
    never leak between experiments. CTA traces are config-independent and
    read-only, so they are shared across consecutive runs of the same
    workload+scale (see module docstring). ``tracer`` /
    ``metrics_interval`` thread through to :func:`build_system`.
    """
    result, _ = run_workload_traced(
        config, workload, scale,
        record_timelines=record_timelines,
        tracer=tracer,
        metrics_interval=metrics_interval,
    )
    return result


__all__ = [
    "build_system",
    "run_workload_on",
    "run_workload_traced",
    "paper_config",
    "scaled_config",
    "single_gpu_config",
    "hypothetical_config",
]
