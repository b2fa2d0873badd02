"""Trace recording and replay: the trace-driven simulation mode.

The paper's evaluation uses a *trace-driven* simulator: workloads are
captured once and replayed deterministically. This module provides the
same capability for our synthetic (or user-supplied) workloads:

* :func:`record_trace` materializes a workload at a scale into a
  :class:`WorkloadTrace` — the full per-kernel, per-CTA slice streams.
* :func:`save_trace` / :func:`load_trace` persist traces as a compact
  JSON-lines file (one kernel per line) so traces can be shipped,
  diffed, and replayed without the generator that produced them.
* :meth:`WorkloadTrace.build_kernels` turns a trace back into runnable
  :class:`KernelWork` objects.

Replaying a recorded trace is bit-identical to running the generator,
which the test suite asserts.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from pathlib import Path

from repro.errors import WorkloadError
from repro.gpu.cta import Slice
from repro.runtime.kernel import KernelWork
from repro.workloads.spec import WorkloadScale, WorkloadSpec, op_table

#: Trace format version written to every file.
TRACE_VERSION = 1


@dataclass(frozen=True)
class KernelTrace:
    """One kernel's fully materialized CTA streams."""

    name: str
    #: ``ctas[i]`` is CTA i's slice list: [(compute, [(addr, is_write)...])]
    ctas: tuple[tuple[Slice, ...], ...]

    @property
    def n_ctas(self) -> int:
        """Number of CTAs recorded for this kernel."""
        return len(self.ctas)

    def total_ops(self) -> int:
        """Total memory operations across all CTAs."""
        return sum(len(s.ops) for cta in self.ctas for s in cta)


@dataclass(frozen=True)
class WorkloadTrace:
    """A complete recorded workload: ordered kernel traces plus metadata."""

    workload: str
    scale: str
    kernels: tuple[KernelTrace, ...]

    def build_kernels(self) -> list[KernelWork]:
        """Rebuild runnable kernels that replay the recorded streams."""
        works = []
        for kernel in self.kernels:
            works.append(
                KernelWork(
                    name=kernel.name,
                    n_ctas=kernel.n_ctas,
                    build_cta=_replayer(kernel),
                )
            )
        return works

    def total_ops(self) -> int:
        """Total memory operations across the whole trace."""
        return sum(k.total_ops() for k in self.kernels)


def _replayer(kernel: KernelTrace):
    def build(cta_index: int) -> list[Slice]:
        return list(kernel.ctas[cta_index])

    return build


def record_trace(workload: WorkloadSpec, scale: WorkloadScale) -> WorkloadTrace:
    """Materialize every CTA of every kernel of ``workload`` at ``scale``.

    The trace is built with the collector paused (DESIGN.md, "Heap
    release"). A system that replayed an earlier trace frees itself by
    reference counting as it dies, so recording needs no collection.
    """
    # Materialization allocates ~10^5 long-lived objects and no cycles, so
    # generational collections during it are pure overhead, as in the
    # engine drain (NumaGpuSystem._drain), which pauses the same way.
    kernels = []
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        for work in workload.build_kernels(scale):
            ctas = tuple(
                tuple(work.build_cta(i)) for i in range(work.n_ctas)
            )
            kernels.append(KernelTrace(name=work.name, ctas=ctas))
    finally:
        if gc_was_enabled:
            gc.enable()
    return WorkloadTrace(
        workload=workload.name, scale=scale.name, kernels=tuple(kernels)
    )


# ---------------------------------------------------------------------------
# persistence (JSON lines: header line, then one line per kernel)
# ---------------------------------------------------------------------------

def save_trace(trace: WorkloadTrace, path: str | Path) -> None:
    """Write a trace file (JSON lines, one kernel per line)."""
    path = Path(path)
    with path.open("w") as handle:
        header = {
            "version": TRACE_VERSION,
            "workload": trace.workload,
            "scale": trace.scale,
            "kernels": len(trace.kernels),
        }
        handle.write(json.dumps(header) + "\n")
        for kernel in trace.kernels:
            record = {
                "name": kernel.name,
                "ctas": [
                    [
                        [s.compute_cycles,
                         [[op.addr, int(op.is_write)] for op in s.ops]]
                        for s in cta
                    ]
                    for cta in kernel.ctas
                ],
            }
            handle.write(json.dumps(record) + "\n")


def load_trace(path: str | Path) -> WorkloadTrace:
    """Read a trace file written by :func:`save_trace`."""
    path = Path(path)
    with path.open() as handle:
        header_line = handle.readline()
        if not header_line:
            raise WorkloadError(f"trace file {path} is empty")
        header = json.loads(header_line)
        version = header.get("version")
        if version != TRACE_VERSION:
            raise WorkloadError(
                f"trace file {path} has version {version}, "
                f"expected {TRACE_VERSION}"
            )
        # One op table for the whole file, as record_trace shares ops: a
        # loaded trace holds one MemOp per distinct (addr, is_write).
        reads, writes = op_table()
        kernels = []
        for line in handle:
            record = json.loads(line)
            ctas = tuple(
                tuple(
                    Slice(
                        compute_cycles=compute,
                        ops=tuple([
                            writes[addr] if w else reads[addr]
                            for addr, w in ops
                        ]),
                    )
                    for compute, ops in cta
                )
                for cta in record["ctas"]
            )
            kernels.append(KernelTrace(name=record["name"], ctas=ctas))
        if len(kernels) != header.get("kernels"):
            raise WorkloadError(
                f"trace file {path} truncated: header promises "
                f"{header.get('kernels')} kernels, found {len(kernels)}"
            )
    return WorkloadTrace(
        workload=header["workload"], scale=header["scale"],
        kernels=tuple(kernels),
    )
