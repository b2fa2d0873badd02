"""Workload and kernel specifications.

A :class:`WorkloadSpec` is the declarative description of one benchmark:
its paper-reported metadata (Table 2's CTA count and memory footprint)
plus the behavioural profile that drives the synthetic trace generator —
pattern mix, compute intensity, write fraction, kernel structure.

A :class:`WorkloadScale` chooses how large the generated traces are.
Scaling down CTA counts and footprints together keeps every behavioural
ratio intact (see DESIGN.md) while letting the full 41-workload sweeps
run in seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.config import LINE_SIZE
from repro.errors import WorkloadError
from repro.gpu.cta import MemOp, Slice
from repro.runtime.kernel import KernelWork
from repro.workloads.patterns import (
    PatternGeometry,
    PatternKind,
    Region,
    generate_addresses,
)


#: MemOp's frozen ``__init__`` sets each field through
#: ``object.__setattr__``, which is most of the cost of building an op.
#: Setting the slots through their descriptors skips that and gives an
#: equal ``MemOp``, so the op table builds its ops this way.
_new_op = MemOp.__new__
_set_addr = MemOp.addr.__set__
_set_write = MemOp.is_write.__set__


class OpDict(dict):
    """``addr -> MemOp(addr, is_write)``, building each op on first use."""

    __slots__ = ("is_write",)

    def __init__(self, is_write: bool) -> None:
        super().__init__()
        self.is_write = is_write

    def __missing__(self, addr: int) -> MemOp:
        op = self[addr] = _new_op(MemOp)
        _set_addr(op, addr)
        _set_write(op, self.is_write)
        return op


def op_table() -> tuple[OpDict, OpDict]:
    """A fresh ``(reads, writes)`` op table for one trace.

    Every op a trace emits comes from its table, so ops with equal
    ``(addr, is_write)`` are one shared immutable object: a trace holds
    one ``MemOp`` per distinct line access, not one per op.
    """
    return OpDict(False), OpDict(True)


@dataclass(frozen=True)
class KernelSpec:
    """One kernel in a workload's repeating sequence.

    ``pattern_mix`` maps each pattern family to the fraction of the
    kernel's slices that use it; fractions must sum to ~1.
    """

    name: str
    cta_fraction: float  # of the workload's scaled CTA budget
    slices_per_cta: int
    ops_per_slice: int
    compute_per_slice: int
    write_fraction: float
    pattern_mix: dict[PatternKind, float]
    #: reduction kernels write into the shared output region
    reduction_write_fraction: float = 0.9

    def __post_init__(self) -> None:
        total = sum(self.pattern_mix.values())
        if not 0.99 <= total <= 1.01:
            raise WorkloadError(
                f"kernel {self.name!r}: pattern mix sums to {total}, expected 1"
            )
        if not 0.0 <= self.write_fraction <= 1.0:
            raise WorkloadError(f"kernel {self.name!r}: bad write fraction")


@dataclass(frozen=True)
class WorkloadScale:
    """How large the generated traces are.

    ``cta_cap`` bounds per-kernel CTAs, ``footprint_lines`` the synthetic
    address space, ``ops_scale`` multiplies per-slice burst sizes.
    """

    name: str
    cta_cap: int
    footprint_lines: int
    ops_scale: float = 1.0

    def scaled_ctas(self, paper_ctas: int, fraction: float) -> int:
        """Scaled CTA count for one kernel (never below 2)."""
        scaled = min(paper_ctas, self.cta_cap)
        return max(2, int(scaled * fraction))


#: Scale presets: TINY for unit tests and benchmark defaults, SMALL for
#: the EXPERIMENTS.md numbers, MEDIUM for high-fidelity runs. CTA caps
#: are sized to several *waves* of a scaled 4-socket system (64 resident
#: CTAs at 4 SMs/socket x 4 CTAs/SM) so kernels exhibit the sustained
#: phases the paper's dynamic controllers track.
TINY = WorkloadScale(name="tiny", cta_cap=160, footprint_lines=12288, ops_scale=0.5)
SMALL = WorkloadScale(name="small", cta_cap=384, footprint_lines=24576, ops_scale=0.625)
MEDIUM = WorkloadScale(name="medium", cta_cap=768, footprint_lines=49152, ops_scale=0.75)

SCALES = {scale.name: scale for scale in (TINY, SMALL, MEDIUM)}


@dataclass(frozen=True)
class WorkloadSpec:
    """One of the 41 benchmarks (Table 2 row + behaviour profile)."""

    name: str
    suite: str
    paper_avg_ctas: int
    paper_footprint_mb: int
    kernels: tuple[KernelSpec, ...]
    #: how many times the kernel sequence repeats (phase structure)
    iterations: int = 1
    #: footprint fraction that is the read-shared region
    shared_fraction_of_footprint: float = 0.125
    #: footprint fraction that is the reduction output region
    output_fraction_of_footprint: float = 0.015625
    #: probability a SHARED_READ slice op hits the shared region
    shared_access_fraction: float = 0.5
    #: probability a STENCIL_HALO op strays into the neighbour chunk
    halo_fraction: float = 0.15
    #: prepend a one-CTA init kernel that first-touches the reduction
    #: output region, homing it on socket 0 (the way real applications'
    #: init phases bias page placement). Read-shared tables are left to
    #: first-touch striping — that is the natural UVM outcome — so only
    #: reduction/gather regions become master-homed. This is what creates
    #: the per-GPU asymmetric link phases of Figures 5 and 6.
    init_shared: bool = False
    seed: int = 1234
    description: str = ""

    def __post_init__(self) -> None:
        if not self.kernels:
            raise WorkloadError(f"workload {self.name!r} has no kernels")

    # ------------------------------------------------------------------
    # trace generation
    # ------------------------------------------------------------------
    def build_kernels(self, scale: WorkloadScale) -> list[KernelWork]:
        """Materialize the kernel sequence at ``scale``.

        Returns one :class:`KernelWork` per (iteration, kernel spec) pair;
        every CTA's slices are generated lazily and deterministically.
        All kernels of one call emit their ops from one :func:`op_table`,
        so equal ops are one shared object (see DESIGN.md,
        "Config-independent trace reuse").
        """
        geometry = self._geometry(scale)
        table = op_table()
        works: list[KernelWork] = []
        if self.init_shared:
            works.append(self._init_kernel(geometry, writes=table[1]))
        for iteration in range(self.iterations):
            for k_idx, kernel in enumerate(self.kernels):
                n_ctas = scale.scaled_ctas(self.paper_avg_ctas, kernel.cta_fraction)
                geo = PatternGeometry(
                    n_ctas=n_ctas,
                    private_region=geometry["private"],
                    shared_region=geometry["shared"],
                    output_region=geometry["output"],
                    halo_fraction=self.halo_fraction,
                    shared_fraction=self.shared_access_fraction,
                )
                works.append(
                    KernelWork(
                        name=f"{self.name}.{kernel.name}.{iteration}",
                        n_ctas=n_ctas,
                        build_cta=self._cta_builder(
                            kernel, geo, scale, iteration * 1000 + k_idx, table
                        ),
                    )
                )
        return works

    def _init_kernel(self, geometry: dict[str, Region], writes: OpDict) -> KernelWork:
        """A one-CTA kernel touching every output-region page once.

        Under contiguous scheduling a single CTA lands on socket 0, so
        first-touch placement homes the reduction output there — exactly
        how real init phases bias page placement for gathered results.
        """
        from repro.config import PAGE_SIZE

        addrs: list[int] = []
        region = geometry["output"]
        page = region.start - (region.start % PAGE_SIZE)
        while page < region.end:
            addrs.append(max(page, region.start))
            page += PAGE_SIZE
        ops = tuple([writes[addr] for addr in addrs])
        slices = [Slice(compute_cycles=50, ops=ops)]
        return KernelWork(
            name=f"{self.name}.init",
            n_ctas=1,
            build_cta=lambda cta_index: list(slices),
        )

    def _geometry(self, scale: WorkloadScale) -> dict[str, Region]:
        total_lines = max(64, scale.footprint_lines)
        shared_lines = max(8, int(total_lines * self.shared_fraction_of_footprint))
        output_lines = max(4, int(total_lines * self.output_fraction_of_footprint))
        private_lines = max(32, total_lines - shared_lines - output_lines)
        private = Region(0, private_lines * LINE_SIZE)
        shared = Region(private.end, shared_lines * LINE_SIZE)
        output = Region(shared.end, output_lines * LINE_SIZE)
        return {"private": private, "shared": shared, "output": output}

    def _cta_builder(self, kernel: KernelSpec, geo: PatternGeometry,
                     scale: WorkloadScale, kernel_tag: int,
                     table: tuple[OpDict, OpDict]):
        # Everything but the per-CTA RNG stream is fixed per kernel, so it
        # is computed here once rather than in every build() call.
        seed_base = self.seed * 2_654_435_761 + kernel_tag * 40_503
        n_ops = max(1, int(kernel.ops_per_slice * scale.ops_scale))
        # Iterative kernels double-buffer: shift private accesses per
        # invocation so only hot shared regions persist across flushes.
        phase_offset = kernel_tag * 61
        compute = kernel.compute_per_slice
        patterns = _pattern_schedule(kernel)
        slots = []
        for s_idx in range(kernel.slices_per_cta):
            kind = patterns[s_idx % len(patterns)]
            write_frac = (
                kernel.reduction_write_fraction
                if kind is PatternKind.REDUCTION
                else kernel.write_fraction
            )
            slots.append((s_idx, kind, write_frac))
        reads, writes = table

        def build(cta_index: int) -> list[Slice]:
            rng = random.Random(seed_base + cta_index)
            random_ = rng.random
            slices: list[Slice] = []
            for s_idx, kind, write_frac in slots:
                # The addresses draw from rng first, then one draw per op
                # for its write bit: the order the trace goldens pin.
                addrs = generate_addresses(
                    kind, geo, cta_index, n_ops, rng, s_idx, phase_offset
                )
                ops = tuple([
                    writes[addr] if random_() < write_frac else reads[addr]
                    for addr in addrs
                ])
                slices.append(Slice(compute, ops))
            return slices

        return build

    @property
    def total_scaled_ctas(self) -> dict[str, int]:
        """Scaled CTA counts per preset (documentation helper)."""
        return {
            name: sum(
                scale.scaled_ctas(self.paper_avg_ctas, k.cta_fraction)
                for k in self.kernels
            )
            * self.iterations
            for name, scale in SCALES.items()
        }


def _pattern_schedule(kernel: KernelSpec) -> list[PatternKind]:
    """Expand the pattern mix into a slice-by-slice schedule.

    Patterns are laid out proportionally and deterministically, with
    REDUCTION patterns placed last (reductions end kernels, Section 4's
    motivating scenario).
    """
    schedule: list[PatternKind] = []
    n = max(1, kernel.slices_per_cta)
    items = sorted(
        kernel.pattern_mix.items(),
        key=lambda item: (item[0] is PatternKind.REDUCTION, item[0].value),
    )
    for kind, fraction in items:
        count = max(1, round(fraction * n)) if fraction > 0 else 0
        schedule.extend([kind] * count)
    if not schedule:
        raise WorkloadError(f"kernel {kernel.name!r}: empty pattern schedule")
    return schedule[:n] if len(schedule) >= n else schedule
