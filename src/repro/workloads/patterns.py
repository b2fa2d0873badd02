"""Address-stream generators: the six pattern families.

Each generator produces the byte addresses one CTA touches in one slice.
The families map onto the behaviour classes visible in the paper's
figures:

* ``PRIVATE_STREAM`` — CTA i sweeps its own contiguous chunk once
  (Stream-Triad-like; perfectly local under contiguous scheduling +
  first touch, cache-hostile but bandwidth friendly).
* ``PRIVATE_REUSE`` — CTA i loops over its chunk repeatedly
  (Backprop/Srad/Kmeans-like; cache friendly and local).
* ``STENCIL_HALO`` — mostly private, a configurable fraction touches the
  neighbouring CTA's chunk edge (Hotspot/Pathfinder-like; small remote
  fraction at socket boundaries).
* ``SHARED_READ`` — a fraction of reads hit a global read-shared region
  (lookup tables, NN weights; remote-heavy no matter the placement).
* ``RANDOM_GLOBAL`` — uniform random over the whole footprint
  (graph workloads; ~ (N-1)/N remote in an N-socket system).
* ``REDUCTION`` — writes funnel into a small shared output region
  (typically homed on one socket), producing the asymmetric egress
  saturation of Figure 5.
* ``GATHER_READ`` — the mirror phase: every CTA reads the master-homed
  output region (prolongation, broadcast of gathered results), saturating
  the master's egress instead.

All generators are deterministic in ``(seed, kernel, cta)``.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from functools import cached_property

from repro.config import LINE_SIZE
from repro.errors import WorkloadError


class PatternKind(enum.Enum):
    """The six address-stream families."""

    PRIVATE_STREAM = "private_stream"
    PRIVATE_REUSE = "private_reuse"
    STENCIL_HALO = "stencil_halo"
    SHARED_READ = "shared_read"
    RANDOM_GLOBAL = "random_global"
    REDUCTION = "reduction"
    GATHER_READ = "gather_read"


@dataclass(frozen=True)
class Region:
    """A contiguous byte range of the workload's address space."""

    start: int
    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise WorkloadError(f"region at {self.start} has size {self.nbytes}")

    @property
    def end(self) -> int:
        """One past the last byte."""
        return self.start + self.nbytes

    @property
    def n_lines(self) -> int:
        """Whole cache lines covered."""
        return max(1, self.nbytes // LINE_SIZE)

    def line_addr(self, index: int) -> int:
        """Byte address of line ``index`` (mod the region size)."""
        return self.start + (index % self.n_lines) * LINE_SIZE


@dataclass(frozen=True)
class PatternGeometry:
    """Everything a generator needs to lay out one kernel's accesses."""

    n_ctas: int
    private_region: Region
    shared_region: Region
    output_region: Region
    halo_fraction: float = 0.15
    shared_fraction: float = 0.5

    def chunk_span(self, cta: int) -> tuple[int, int]:
        """Start address and line count of CTA ``cta``'s private chunk.

        The one place the contiguous CTA-major layout is computed:
        :meth:`cta_chunk` wraps it in a :class:`Region`, and the
        generators use it directly so no ``Region`` is built per slice.
        """
        start, n_ctas, lines_per_cta = self._chunk_layout
        return start + (cta % n_ctas) * lines_per_cta * LINE_SIZE, lines_per_cta

    @cached_property
    def _chunk_layout(self) -> tuple[int, int, int]:
        """Private region start, CTA count and lines per CTA chunk."""
        n_ctas = max(1, self.n_ctas)
        lines_per_cta = max(1, self.private_region.n_lines // n_ctas)
        return self.private_region.start, n_ctas, lines_per_cta

    def cta_chunk(self, cta: int) -> Region:
        """CTA ``cta``'s private chunk (contiguous CTA-major layout)."""
        start, n_lines = self.chunk_span(cta)
        return Region(start, n_lines * LINE_SIZE)


def generate_addresses(
    kind: PatternKind,
    geometry: PatternGeometry,
    cta: int,
    n_ops: int,
    rng: random.Random,
    slice_index: int = 0,
    phase_offset: int = 0,
) -> list[int]:
    """Addresses one CTA touches in one slice under ``kind``.

    ``phase_offset`` shifts chunk-relative accesses per kernel invocation,
    modelling the double-buffering of iterative kernels: iteration k+1
    reads different lines than iteration k wrote, so caches cannot carry
    private data across kernel boundaries (only the hot shared regions
    legitimately persist).
    """
    if n_ops <= 0:
        return []
    # The generators run once per (CTA, slice): region starts and line
    # counts are read into locals, and the chunk is computed, not built
    # as a Region.
    chunk_start, chunk_lines = geometry.chunk_span(cta)
    stream_first = phase_offset + slice_index * n_ops
    if kind is PatternKind.PRIVATE_STREAM:
        return _line_run(chunk_start, chunk_lines, stream_first, n_ops)
    if kind is PatternKind.PRIVATE_REUSE:
        # Loop over a working set sized to the slice burst: high reuse.
        working_lines = max(2, min(chunk_lines, n_ops))
        working = _line_run(chunk_start, chunk_lines, phase_offset, working_lines)
        rounds, rest = divmod(n_ops, working_lines)
        return working * rounds + working[:rest]
    # The two mixed families draw per op, in op order: random() picks the
    # branch, then randrange() runs only for an op that leaves its chunk.
    # The conditional expression keeps exactly that call sequence.
    if kind is PatternKind.STENCIL_HALO:
        n_start, n_lines = geometry.chunk_span(cta + 1)
        halo = geometry.halo_fraction
        random_ = rng.random
        randrange = rng.randrange
        return [
            n_start + randrange(n_lines) * LINE_SIZE if random_() < halo else addr
            for addr in _line_run(chunk_start, chunk_lines, stream_first, n_ops)
        ]
    if kind is PatternKind.SHARED_READ:
        shared = geometry.shared_region
        s_start = shared.start
        s_lines = shared.n_lines
        fraction = geometry.shared_fraction
        random_ = rng.random
        randrange = rng.randrange
        return [
            s_start + randrange(s_lines) * LINE_SIZE if random_() < fraction else addr
            for addr in _line_run(chunk_start, chunk_lines, stream_first, n_ops)
        ]
    if kind is PatternKind.RANDOM_GLOBAL:
        region = geometry.private_region
        r_start = region.start
        r_lines = region.n_lines
        randrange = rng.randrange
        return [
            r_start + randrange(r_lines) * LINE_SIZE
            for _ in range(n_ops)
        ]
    if kind in (PatternKind.REDUCTION, PatternKind.GATHER_READ):
        out = geometry.output_region
        o_start = out.start
        o_lines = out.n_lines
        randrange = rng.randrange
        return [
            o_start + randrange(o_lines) * LINE_SIZE
            for _ in range(n_ops)
        ]
    raise WorkloadError(f"unknown pattern kind {kind!r}")  # pragma: no cover


def _line_run(start: int, n_lines: int, first: int, count: int) -> list[int]:
    """Addresses of ``count`` consecutive lines, wrapping within a region.

    Element ``i`` is line ``(first + i) % n_lines`` of the ``n_lines``-line
    region whose first line is at byte ``start``.
    """
    lines = range(start, start + n_lines * LINE_SIZE, LINE_SIZE)
    first %= n_lines
    addrs = list(lines[first:first + count])
    while len(addrs) < count:
        addrs += lines[:count - len(addrs)]
    return addrs
