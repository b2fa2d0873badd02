"""System configuration: Table 1 parameters, presets, and the scale model.

The paper's simulation parameters (Table 1) are encoded verbatim in
:func:`paper_config`. Because a pure-Python cycle simulator cannot run
256-SM systems over full traces in reasonable time, every configuration
carries a single ``scale`` factor applied uniformly to SM counts,
bandwidths, cache capacities, and (via the workload layer) footprints and
CTA counts. Scaling everything together preserves the ratios that govern
NUMA behaviour — DRAM:link bandwidth (12:1 in Table 1), cache:footprint,
and CTAs:SMs — so the *shape* of every experiment is preserved at any
scale.

Units
-----
* time: cycles (1 cycle = 1 ns at the paper's 1 GHz clock)
* bandwidth: bytes/cycle (8 GB/s per lane = 8 B/cycle)
* capacity: bytes
"""

from __future__ import annotations

import enum
import functools
import hashlib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.locality.spec import CtaSpec, PlacementSpec
    from repro.topology.spec import TopologySpec

#: Cache line size used throughout the paper (bytes).
LINE_SIZE = 128

#: Page size used by the UVM first-touch migration machinery (bytes).
PAGE_SIZE = 4096

#: SM count of the largest contemporary GPU, used by Figure 2 ("biggest
#: GPU in the market today amasses ~50 SMs, NVIDIA's Pascal contains 56").
PASCAL_SM_COUNT = 56


def _locality_spec(name: str) -> type:
    """One :mod:`repro.locality.spec` class, imported on first use.

    :mod:`repro.locality` imports this module (through the fabric's
    packet sizes), so the spec classes cannot be imported at the top.
    """
    from repro.locality import spec

    return getattr(spec, name)


class CacheArch(enum.Enum):
    """The four L2 organizations of Figure 7."""

    #: (a) memory-side, local-data-only L2 (the traditional baseline).
    MEM_SIDE = "mem_side"
    #: (b) static 50/50 split: memory-side half + remote-cache half.
    STATIC_RC = "static_rc"
    #: (c) GPU-side coherent L1+L2, local and remote contend via LRU.
    SHARED_COHERENT = "shared_coherent"
    #: (d) = (c) plus dynamic NUMA-aware way partitioning.
    NUMA_AWARE = "numa_aware"


class LinkPolicy(enum.Enum):
    """Inter-GPU link provisioning policies (Section 4)."""

    #: Fixed symmetric lane assignment (baseline).
    STATIC = "static"
    #: Dynamic per-link lane reversal driven by the load balancer.
    DYNAMIC = "dynamic"
    #: Statically doubled bandwidth (Figure 6's red upper bound).
    DOUBLED = "doubled"


class WritePolicy(enum.Enum):
    """L2 write policy (Section 5.2 sensitivity study)."""

    WRITE_BACK = "write_back"
    WRITE_THROUGH = "write_through"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    capacity_bytes: int
    ways: int
    line_size: int = LINE_SIZE
    hit_latency: int = 4

    def __post_init__(self) -> None:
        if self.ways < 1:
            raise ConfigError("cache needs at least 1 way")
        if self.line_size < 1:
            raise ConfigError(f"cache line_size must be >= 1, got {self.line_size}")
        if self.capacity_bytes < 1 or self.capacity_bytes % (
            self.ways * self.line_size
        ):
            raise ConfigError(
                f"capacity {self.capacity_bytes} not a positive multiple of "
                f"ways*line ({self.ways}*{self.line_size})"
            )
        # A negative hit latency would queue a hit's completion before
        # the probe that found it.
        if self.hit_latency < 0:
            raise ConfigError(
                f"cache hit_latency must be >= 0, got {self.hit_latency}"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets implied by capacity / (ways * line)."""
        return self.capacity_bytes // (self.ways * self.line_size)

    @property
    def n_lines(self) -> int:
        """Total number of line frames."""
        return self.capacity_bytes // self.line_size


@dataclass(frozen=True)
class LinkConfig:
    """One GPU-to-switch link (Table 1: 8 lanes x 8 GB/s per direction)."""

    lanes_per_direction: int = 8
    lane_bandwidth: float = 8.0  # bytes/cycle
    latency: int = 128  # one-way cycles through the switch
    min_lanes: int = 1  # balancer never empties a direction

    def __post_init__(self) -> None:
        # A negative floor would let the balancer turn a direction's
        # last lane away and leave it with negative bandwidth.
        if self.min_lanes < 0:
            raise ConfigError(f"min_lanes must be >= 0, got {self.min_lanes}")
        if self.lanes_per_direction < self.min_lanes:
            raise ConfigError("lanes_per_direction below min_lanes")
        if self.lane_bandwidth <= 0:
            raise ConfigError("lane_bandwidth must be positive")
        if self.latency < 0:
            raise ConfigError(f"link latency must be >= 0, got {self.latency}")

    @property
    def direction_bandwidth(self) -> float:
        """Aggregate bytes/cycle of one direction at symmetric assignment."""
        return self.lanes_per_direction * self.lane_bandwidth

    @property
    def total_lanes(self) -> int:
        """Physical (reversible) lanes on the link, both directions."""
        return 2 * self.lanes_per_direction


@dataclass(frozen=True)
class GpuConfig:
    """One GPU socket (Table 1)."""

    sms: int = 64
    ctas_per_sm: int = 8
    max_outstanding_per_sm: int = 64
    mlp_per_cta: int = 16
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(capacity_bytes=128 * 1024, ways=4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            capacity_bytes=4 * 1024 * 1024, ways=16, hit_latency=24
        )
    )
    dram_bandwidth: float = 768.0  # bytes/cycle (768 GB/s)
    dram_latency: int = 100  # cycles (100 ns at 1 GHz)
    noc_bandwidth: float = 2048.0  # bytes/cycle, intentionally generous
    noc_latency: int = 10

    def __post_init__(self) -> None:
        # A socket with no SM, CTA slot or issue slot never finishes a
        # kernel; a bandwidth of 0 never finishes a transfer.
        for name in ("sms", "ctas_per_sm", "max_outstanding_per_sm",
                     "mlp_per_cta"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"gpu.{name} must be >= 1, got {getattr(self, name)}"
                )
        for name in ("dram_bandwidth", "noc_bandwidth"):
            if not getattr(self, name) > 0:
                raise ConfigError(
                    f"gpu.{name} must be > 0 bytes/cycle, "
                    f"got {getattr(self, name)}"
                )
        for name in ("dram_latency", "noc_latency"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"gpu.{name} must be >= 0 cycles, got {getattr(self, name)}"
                )


@dataclass(frozen=True)
class ControllerConfig:
    """Sampling parameters shared by the two dynamic controllers."""

    link_sample_time: int = 5000
    link_switch_time: int = 100
    cache_sample_time: int = 5000
    saturation_threshold: float = 0.99

    def __post_init__(self) -> None:
        # A controller re-arms itself every sample period, so a period
        # below one cycle would never let the clock advance.
        for name in ("link_sample_time", "cache_sample_time"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1 cycle, got {getattr(self, name)}"
                )
        if self.link_switch_time < 0:
            raise ConfigError(
                f"link_switch_time must be >= 0, got {self.link_switch_time}"
            )
        if not 0 < self.saturation_threshold <= 1:
            raise ConfigError(
                "saturation_threshold is a utilization in (0, 1], got "
                f"{self.saturation_threshold}"
            )


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated system."""

    n_sockets: int = 4
    gpu: GpuConfig = field(default_factory=GpuConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    controllers: ControllerConfig = field(default_factory=ControllerConfig)
    cache_arch: CacheArch = CacheArch.MEM_SIDE
    link_policy: LinkPolicy = LinkPolicy.STATIC
    l2_write_policy: WritePolicy = WritePolicy.WRITE_BACK
    coherence_invalidations: bool = True
    #: fine-interleave granularity in bytes (sub-page, Section 3).
    interleave_granularity: int = 512
    #: one-time first-touch migration cost in cycles (page copy).
    migration_latency: int = 600
    page_size: int = PAGE_SIZE
    #: software + hardware cost of dispatching sub-kernels to all sockets
    #: (the launch overhead that forces coarse-grained CTA blocks, §3).
    kernel_launch_latency: int = 2000
    #: optional interconnect graph (:class:`repro.topology.spec.TopologySpec`).
    #: ``None`` means the paper's default fabric: the non-blocking crossbar
    #: star built from ``link``. A ``crossbar`` spec builds the identical
    #: star; any other kind routes over its own graph with the spec's
    #: per-edge LinkConfigs (``link`` is then unused).
    #: The annotation is a string to keep :mod:`repro.config` importable
    #: before :mod:`repro.topology` (which imports LinkConfig from here).
    topology: "TopologySpec | None" = None  # noqa: F821
    #: the page-placement and CTA-assignment policies
    #: (:class:`repro.locality.spec.PlacementSpec` / ``CtaSpec``): a
    #: registered :mod:`repro.locality` policy kind plus its tuning knobs,
    #: one field per policy. The defaults are the paper's
    #: locality-optimized runtime (first touch, contiguous CTA blocks).
    #: String annotations and lazy defaults for the same import-order
    #: reason as ``topology``.
    placement_spec: "PlacementSpec" = field(  # noqa: F821
        default_factory=lambda: _locality_spec("PlacementSpec")()
    )
    cta_spec: "CtaSpec" = field(  # noqa: F821
        default_factory=lambda: _locality_spec("CtaSpec")()
    )

    def __post_init__(self) -> None:
        if self.n_sockets < 1:
            raise ConfigError("need at least one socket")
        if self.interleave_granularity < LINE_SIZE:
            raise ConfigError("interleave granularity below line size")
        for name in ("migration_latency", "kernel_launch_latency"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"{name} must be >= 0 cycles, got {getattr(self, name)}"
                )
        line = self.gpu.l2.line_size
        if self.page_size < 1 or self.page_size % line:
            raise ConfigError(
                f"page_size must be a positive multiple of the {line}-byte "
                f"line, got {self.page_size}"
            )
        for name, spec_type in (("placement_spec", "PlacementSpec"),
                                ("cta_spec", "CtaSpec")):
            value = getattr(self, name)
            if not isinstance(value, _locality_spec(spec_type)):
                raise ConfigError(
                    f"{name} must be a repro.locality.{spec_type}, "
                    f"got {type(value).__name__} {value!r}"
                )
        topo = self.topology
        if topo is not None:
            topo_sockets = getattr(topo, "n_sockets", None)
            if topo_sockets != self.n_sockets:
                raise ConfigError(
                    f"topology {getattr(topo, 'name', topo)!r} describes "
                    f"{topo_sockets} sockets, config has {self.n_sockets}"
                )

    @property
    def total_sms(self) -> int:
        """SMs across all sockets."""
        return self.n_sockets * self.gpu.sms

    def describe(self) -> dict[str, str]:
        """Table 1-style parameter dump (used by the table1 experiment)."""
        gpu, link = self.gpu, self.link
        return {
            "Num of GPU sockets": str(self.n_sockets),
            "Total number of SMs": f"{gpu.sms} per GPU socket",
            "GPU Frequency": "1GHz",
            "Max number of Warps": f"{gpu.ctas_per_sm * 8} per SM",
            "L1 Cache": (
                f"Private, {gpu.l1.capacity_bytes // 1024}KB per SM, "
                f"{gpu.l1.line_size}B lines, {gpu.l1.ways}-way, "
                "Write-Through, GPU-side SW-based coherent"
            ),
            "L2 Cache": (
                f"Shared, Banked, {gpu.l2.capacity_bytes // (1024 * 1024)}MB "
                f"per socket, {gpu.l2.line_size}B lines, {gpu.l2.ways}-way, "
                f"{self.l2_write_policy.value}, {self.cache_arch.value}"
            ),
            "GPU-GPU Interconnect": (
                f"{int(2 * link.direction_bandwidth)}GB/s per socket "
                f"({int(link.direction_bandwidth)}GB/s each direction), "
                f"{link.lanes_per_direction} lanes "
                f"{int(link.lane_bandwidth)}B wide each per direction, "
                f"{link.latency}-cycle latency"
            ),
            "DRAM Bandwidth": f"{int(gpu.dram_bandwidth)}GB/s per GPU socket",
            "DRAM Latency": f"{gpu.dram_latency} ns",
        }


#: Results each :func:`memoized_builder` keeps; a full memo drops its
#: least recently used entry. A whole ``run_all`` suite builds 59
#: distinct configs, no more than 20 of them through any one builder.
BUILDER_MEMO_SIZE = 128


def _argument_identity(value: object) -> object:
    """Exact, hashable identity of one builder argument.

    A dataclass is named by its :func:`config_digest` (memoized on a
    frozen instance), a float by its ``repr`` as in that digest, anything
    else by its type and value, so values that compare equal but build
    different configs (``1`` and ``1.0``, ``True`` and ``1``, ``0.0`` and
    ``-0.0``, links that differ only so) never share a key.
    """
    if is_dataclass(value):
        return config_digest(value)  # type: ignore[arg-type]
    if type(value) is float:
        return float, repr(value)
    return type(value), value


def memoized_builder(builder):
    """Memoize a pure config builder on the identity of its arguments.

    Every call with the same arguments returns the *same* frozen result,
    so fresh :class:`~repro.harness.runner.ExperimentContext` objects
    share their config sub-trees, and the identity memo of
    :func:`_canonical` answers each walk of a shared sub-tree with one
    dict lookup. Sharing is safe because a builder's result is deeply
    immutable: frozen dataclasses over tuples and scalars, which
    ``dataclasses.replace`` copies rather than changes. A call with an
    argument that has no such identity (unhashable, or a dataclass that
    cannot be canonicalized) builds afresh. The memo keeps the
    :data:`BUILDER_MEMO_SIZE` most recently used results, so a pass that
    needs no more than that builds nothing when it is repeated.
    """
    memo: dict[tuple, object] = {}

    @functools.wraps(builder)
    def build(*args, **kwargs):
        try:
            key = (
                tuple(map(_argument_identity, args)),
                tuple((name, _argument_identity(value))
                      for name, value in sorted(kwargs.items())),
            )
            result = memo.pop(key, None)
        except (TypeError, AttributeError, ConfigError):
            return builder(*args, **kwargs)
        if result is None:
            result = builder(*args, **kwargs)
            if len(memo) >= BUILDER_MEMO_SIZE:
                del memo[next(iter(memo))]
        # Re-inserted last: the dict's order is least recently used first.
        memo[key] = result
        return result

    return build


@memoized_builder
def paper_config(n_sockets: int = 4) -> SystemConfig:
    """The exact Table 1 configuration (64 SMs/socket, full bandwidths).

    Repeat calls return the same object (see :func:`memoized_builder`).
    """
    return SystemConfig(n_sockets=n_sockets)


@memoized_builder
def scaled_config(
    n_sockets: int = 4,
    sms_per_socket: int = 8,
    ctas_per_sm: int = 4,
) -> SystemConfig:
    """A uniformly scaled-down system preserving all Table 1 ratios.

    ``sms_per_socket`` scales DRAM, NoC, and link bandwidth proportionally
    (per-SM bandwidth demand is scale-invariant) and shrinks the L2 so the
    cache:footprint ratio is preserved when paired with the workload
    layer's matching footprint scale. L1 geometry is per-SM and unchanged.
    Repeat calls return the same object (see :func:`memoized_builder`).
    """
    if sms_per_socket < 1:
        raise ConfigError("sms_per_socket must be >= 1")
    base = GpuConfig()
    frac = sms_per_socket / base.sms
    lane_bw = LinkConfig().lane_bandwidth * frac
    l2_capacity = max(
        int(base.l2.capacity_bytes * frac),
        base.l2.ways * LINE_SIZE * 16,  # keep at least 16 sets
    )
    # Round capacity so sets stay a whole number.
    unit = base.l2.ways * LINE_SIZE
    l2_capacity = (l2_capacity // unit) * unit
    # The L1 scales with the workload layer's footprint scale (it is the
    # same uniform scale); the floor keeps at least 32 sets x 4 ways.
    l1_unit = base.l1.ways * LINE_SIZE
    l1_capacity = max(
        int(base.l1.capacity_bytes * frac * 2) // l1_unit * l1_unit,
        32 * l1_unit,
    )
    gpu = replace(
        base,
        sms=sms_per_socket,
        ctas_per_sm=ctas_per_sm,
        max_outstanding_per_sm=max(8, int(base.max_outstanding_per_sm * frac * 4)),
        l1=CacheConfig(
            capacity_bytes=l1_capacity,
            ways=base.l1.ways,
            hit_latency=base.l1.hit_latency,
        ),
        l2=CacheConfig(
            capacity_bytes=l2_capacity,
            ways=base.l2.ways,
            hit_latency=base.l2.hit_latency,
        ),
        dram_bandwidth=base.dram_bandwidth * frac,
        noc_bandwidth=base.noc_bandwidth * frac,
    )
    link = replace(LinkConfig(), lane_bandwidth=lane_bw)
    # Launch latency and the cache controller's sample time shrink with
    # the scale so kernels keep the same execution:launch and phase:sample
    # ratios the paper's full-length traces have (scaled kernels are
    # ~5-20x shorter, so the paper's 5K-cycle sampling maps to ~1K here).
    # The link balancer keeps the paper's 5K: lane turns are costlier than
    # quota moves, and coherence-flush bursts make faster sampling thrash
    # (Figure 6 sweeps this parameter explicitly).
    controllers = ControllerConfig(link_sample_time=5000, cache_sample_time=1000)
    return SystemConfig(
        n_sockets=n_sockets,
        gpu=gpu,
        link=link,
        controllers=controllers,
        kernel_launch_latency=300,
        # First-touch faults amortize over billions of cycles at full
        # scale; the compressed-scale charge keeps the same ratio.
        migration_latency=50,
    )


def single_gpu_config(config: SystemConfig) -> SystemConfig:
    """A single-socket system with the same per-socket resources."""
    return replace(
        config,
        n_sockets=1,
        # The single-GPU baseline is local_only + contiguous by definition.
        placement_spec=_locality_spec("PlacementSpec")(kind="local_only"),
        cta_spec=_locality_spec("CtaSpec")(),
        cache_arch=CacheArch.MEM_SIDE,
        link_policy=LinkPolicy.STATIC,
        # One socket has no interconnect; a multi-socket topology would
        # otherwise fail the socket-count validation.
        topology=None,
    )


def hypothetical_config(config: SystemConfig, factor: int) -> SystemConfig:
    """The unbuildable ``factor``-x larger single GPU (red dashes).

    All per-socket resources are multiplied by ``factor`` and the system
    collapses to one socket with no interconnect.
    """
    if factor < 1:
        raise ConfigError("factor must be >= 1")
    gpu = config.gpu
    big = replace(
        gpu,
        sms=gpu.sms * factor,
        dram_bandwidth=gpu.dram_bandwidth * factor,
        noc_bandwidth=gpu.noc_bandwidth * factor,
        l2=CacheConfig(
            capacity_bytes=gpu.l2.capacity_bytes * factor,
            ways=gpu.l2.ways,
            hit_latency=gpu.l2.hit_latency,
        ),
    )
    return replace(single_gpu_config(config), gpu=big)


# ---------------------------------------------------------------------------
# content-addressed config identity
# ---------------------------------------------------------------------------

#: Private ``__dict__`` keys of the identity memo (see :func:`_canonical`).
#: Dataclass ``==``, ``hash``, ``repr``, ``fields`` and ``asdict`` read
#: declared fields only, so they never see these entries.
_CANONICAL_MEMO = "_canonical_memo"
_DIGEST_MEMO = "_digest_memo"


@functools.cache
def _dataclass_layout(cls: type) -> tuple[tuple[str, ...], bool]:
    """Field names of one dataclass type, and whether its instances may
    carry an identity memo: frozen, and with a ``__dict__`` to hold it."""
    memoizable = (
        cls.__dataclass_params__.frozen  # type: ignore[attr-defined]
        and not hasattr(cls, "__slots__")
    )
    return tuple(f.name for f in fields(cls)), memoizable


def _canonical(value: object) -> tuple[object, bool]:
    """Canonical, hashable form of one config value, and whether it is
    immutable.

    Dataclasses become ``(class name, (field, value), ...)`` tuples by
    *introspecting their fields*, so a newly added field can never be
    silently dropped from a config's identity. Enums reduce to their
    class and value, floats keep their exact shortest ``repr``.

    A frozen dataclass whose whole subtree is immutable (no ``list`` or
    ``dict`` anywhere below it) keeps its canonical form in its own
    ``__dict__``, so every later walk of it is one dict lookup. The memo
    cannot go stale: nothing below it can change, ``dataclasses.replace``
    builds a fresh instance without one, and a copy or pickle carries it
    along with the equal field values it was computed from.
    """
    if is_dataclass(value) and not isinstance(value, type):
        names, immutable = _dataclass_layout(type(value))
        if immutable:
            memo = value.__dict__.get(_CANONICAL_MEMO)
            if memo is not None:
                return memo, True
        items = []
        for name in names:
            canon, fixed = _canonical(getattr(value, name))
            items.append((name, canon))
            immutable = immutable and fixed
        canon = (type(value).__name__, tuple(items))
        if immutable:
            value.__dict__[_CANONICAL_MEMO] = canon
        return canon, immutable
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.value), True
    if isinstance(value, (list, tuple)):
        items, immutable = [], isinstance(value, tuple)
        for v in value:
            canon, fixed = _canonical(v)
            items.append(canon)
            immutable = immutable and fixed
        return tuple(items), immutable
    if isinstance(value, dict):
        return tuple(
            (k, _canonical(v)[0]) for k, v in sorted(value.items())
        ), False
    if isinstance(value, (int, float, str, bool, bytes, type(None))):
        return value, True
    raise ConfigError(
        f"cannot canonicalize config value of type {type(value).__name__}"
    )


def config_fingerprint(config: SystemConfig) -> tuple:
    """Complete, hashable identity of a configuration.

    Derived recursively from every field of the frozen dataclass tree, so
    two configs compare equal under this key if and only if every
    parameter — including ones added after this function was written —
    is identical. This is the memoization key of the experiment harness.
    """
    return _canonical(config)[0]  # type: ignore[return-value]


def config_digest(config: SystemConfig) -> str:
    """Stable hex digest of :func:`config_fingerprint` (disk-cache key).

    Floats are rendered with ``repr`` (shortest round-trip form), so the
    digest is reproducible across processes and Python sessions. An
    immutable config keeps its digest beside its canonical-form memo.
    """
    digest = config.__dict__.get(_DIGEST_MEMO)
    if digest is None:
        canon, immutable = _canonical(config)
        digest = hashlib.sha256(repr(canon).encode()).hexdigest()
        if immutable:
            config.__dict__[_DIGEST_MEMO] = digest
    return digest
