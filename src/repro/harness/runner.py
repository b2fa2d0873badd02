"""Experiment runner: builds configs, runs workloads, caches results.

Every figure reuses baselines (the single-GPU run, the locality-optimized
4-socket run, the hypothetical big GPUs), so the runner memoizes
RunResults by ``(workload, scale, config fingerprint)`` within one
:class:`ExperimentContext`. A context also pins the scale and the scaled
system size so every figure of one report is internally consistent.

The memo key is *content-addressed*: :func:`repro.config.config_fingerprint`
walks every field of the frozen config dataclass tree, so a config
parameter can never be silently omitted from a run's identity (see
DESIGN.md, "Result caching"). Every ``config_*`` method returns a
shared frozen object, the same one for equal arguments on any context
of the same system size, so a config's identity is walked once per
process however many contexts key it. A context may also carry an
optional on-disk cache (:class:`repro.harness.diskcache.ResultDiskCache`)
so results survive across processes and repeated script invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

from repro.config import (
    CacheArch,
    LinkPolicy,
    SystemConfig,
    WritePolicy,
    config_fingerprint,
    hypothetical_config,
    memoized_builder,
    scaled_config,
    single_gpu_config,
)
from repro.core.builder import run_workload_on
from repro.errors import ConfigError
from repro.locality.spec import CtaSpec, PlacementSpec
from repro.metrics.report import RunResult
from repro.topology.spec import build_topology
from repro.workloads.spec import SMALL, WorkloadScale
from repro.workloads.suite import get_workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.diskcache import ResultDiskCache


#: The :class:`PlacementSpec` tuning knobs ``config_locality_policy``
#: forwards (every field but the policy ``kind``).
PLACEMENT_KNOBS = frozenset(f.name for f in fields(PlacementSpec)) - {"kind"}


# ----------------------------------------------------------------------
# shared derivations
# ----------------------------------------------------------------------
# Every ExperimentContext config is derived from the memoized
# ``scaled_config`` base by one of these memoized builders, keyed on the
# base and plain arguments (enums, strings, numbers), so equal requests
# from any context return the same frozen object and its identity is
# walked and digested once per process (DESIGN.md, "Result caching").

@memoized_builder
def _with_controllers(base: SystemConfig, **changes) -> SystemConfig:
    """``base`` with ``changes`` to its controller sampling parameters."""
    return replace(base, controllers=replace(base.controllers, **changes))


@memoized_builder
def _with_policies(base: SystemConfig, placement: str, cta: str,
                   **placement_params) -> SystemConfig:
    """``base`` with the named placement (and knobs) and CTA policies."""
    return replace(
        base,
        placement_spec=PlacementSpec(kind=placement, **placement_params),
        cta_spec=CtaSpec(kind=cta),
    )


#: ``replace`` with plain or shared (memoized) field values.
_derived = memoized_builder(replace)
_single_gpu = memoized_builder(single_gpu_config)
_hypothetical = memoized_builder(hypothetical_config)


@dataclass
class ExperimentContext:
    """Shared state for one report: base config, scale, result cache."""

    n_sockets: int = 4
    sms_per_socket: int = 4
    scale: WorkloadScale = SMALL
    record_timelines: bool = False
    #: optional cross-process result cache (None = in-memory only).
    disk_cache: "ResultDiskCache | None" = None
    _cache: dict[tuple, RunResult] = field(default_factory=dict)

    def base_config(self, n_sockets: int | None = None) -> SystemConfig:
        """The locality-optimized NUMA baseline (Section 3, mem-side L2)."""
        return scaled_config(
            n_sockets=n_sockets if n_sockets is not None else self.n_sockets,
            sms_per_socket=self.sms_per_socket,
        )

    # ------------------------------------------------------------------
    # canonical configurations
    # ------------------------------------------------------------------
    def config_single_gpu(self) -> SystemConfig:
        """One socket with the same per-socket resources."""
        return _single_gpu(self.base_config())

    def config_hypothetical(self, factor: int) -> SystemConfig:
        """The unbuildable ``factor``-x larger single GPU."""
        return _hypothetical(self.base_config(), factor)

    def config_traditional(self) -> SystemConfig:
        """Traditional single-GPU policies on the NUMA system (Fig 3 green)."""
        return _with_policies(self.base_config(), "fine_interleave",
                              "interleaved")

    def config_locality(self, n_sockets: int | None = None) -> SystemConfig:
        """Locality-optimized runtime, mem-side L2, static links (Fig 3 blue)."""
        return self.base_config(n_sockets)

    def config_cache(self, arch: CacheArch) -> SystemConfig:
        """Locality runtime with one of the four Figure 7 organizations."""
        return _derived(self.base_config(), cache_arch=arch)

    def config_dynamic_link(self, sample_time: int | None = None,
                            switch_time: int | None = None) -> SystemConfig:
        """Locality runtime with the Section 4 dynamic links."""
        config = _derived(self.base_config(), link_policy=LinkPolicy.DYNAMIC)
        changes = {}
        if sample_time is not None:
            changes["link_sample_time"] = sample_time
        if switch_time is not None:
            changes["link_switch_time"] = switch_time
        return _with_controllers(config, **changes) if changes else config

    def config_doubled_link(self) -> SystemConfig:
        """Figure 6's red upper bound: statically doubled link bandwidth."""
        return _derived(self.base_config(), link_policy=LinkPolicy.DOUBLED)

    def config_combined(self, n_sockets: int | None = None) -> SystemConfig:
        """The full NUMA-aware GPU: dynamic links + NUMA-aware caches."""
        return _derived(
            self.base_config(n_sockets),
            cache_arch=CacheArch.NUMA_AWARE,
            link_policy=LinkPolicy.DYNAMIC,
        )

    def config_topology(
        self,
        kind: str,
        n_sockets: int | None = None,
        combined: bool = False,
    ) -> SystemConfig:
        """Locality runtime on a named multi-hop topology.

        ``kind`` is a :data:`repro.topology.spec.BUILDERS` name; the
        spec's per-edge links reuse the context's scaled ``link`` so
        bandwidth ratios match every other configuration at this scale.
        ``combined=True`` additionally applies the full NUMA-aware
        design (dynamic per-edge lanes + NUMA-aware caches) on top of
        the topology.
        """
        base = (
            self.config_combined(n_sockets) if combined
            else self.base_config(n_sockets)
        )
        return _derived(
            base, topology=build_topology(kind, base.n_sockets, base.link)
        )

    def config_locality_policy(
        self,
        placement: str = "first_touch",
        cta: str = "contiguous",
        kind: str | None = None,
        n_sockets: int | None = None,
        combined: bool = False,
        **placement_params,
    ) -> SystemConfig:
        """Locality runtime with explicit placement + CTA policy specs.

        ``placement`` / ``cta`` are :mod:`repro.locality` registry kinds;
        ``kind`` optionally puts the system on a named multi-hop
        topology (as :meth:`config_topology`); ``placement_params``
        forwards tuning knobs (:data:`PLACEMENT_KNOBS`) to the
        :class:`~repro.locality.spec.PlacementSpec`, and any other name
        raises :class:`~repro.errors.ConfigError`. The distance-blind
        ``first_touch`` / ``contiguous`` baseline of a locality experiment
        is the same config as plain :meth:`config_topology` /
        :meth:`base_config`, so baseline runs share the result cache with
        the topology sweep.
        """
        unknown = sorted(set(placement_params) - PLACEMENT_KNOBS)
        if unknown:
            raise ConfigError(
                f"unknown placement parameter(s) {unknown}; "
                f"known: {sorted(PLACEMENT_KNOBS)}"
            )
        if kind is not None:
            base = self.config_topology(kind, n_sockets, combined=combined)
        elif combined:
            base = self.config_combined(n_sockets)
        else:
            base = self.base_config(n_sockets)
        return _with_policies(base, placement, cta, **placement_params)

    def config_no_invalidations(self) -> SystemConfig:
        """Figure 9's hypothetical: coherence invalidations ignored."""
        return _derived(
            self.config_cache(CacheArch.NUMA_AWARE),
            coherence_invalidations=False,
        )

    def config_write_through(self) -> SystemConfig:
        """Section 5.2 sensitivity: write-through L2."""
        return _derived(
            self.config_cache(CacheArch.NUMA_AWARE),
            l2_write_policy=WritePolicy.WRITE_THROUGH,
        )

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def cache_key(self, workload_name: str, config: SystemConfig,
                  record_timelines: bool | None = None) -> tuple:
        """The memoization key one run is stored under."""
        record = (
            self.record_timelines if record_timelines is None else record_timelines
        )
        return (workload_name, self.scale.name, record,
                config_fingerprint(config))

    def is_cached(self, key: tuple) -> bool:
        """Whether a :meth:`cache_key` is already memoized in this context."""
        return key in self._cache

    def seed_cache(self, workload_name: str, config: SystemConfig,
                   record_timelines: bool, result: RunResult) -> None:
        """Insert an externally computed result (parallel-runner merge)."""
        self._cache[
            self.cache_key(workload_name, config, record_timelines)
        ] = result

    def run(self, workload_name: str, config: SystemConfig,
            record_timelines: bool | None = None) -> RunResult:
        """Run (or fetch from cache) one workload under one config."""
        record = (
            self.record_timelines if record_timelines is None else record_timelines
        )
        key = self.cache_key(workload_name, config, record)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self.disk_cache is not None:
            stored = self.disk_cache.get(
                workload_name, self.scale.name, record, config
            )
            if stored is not None:
                self._cache[key] = stored
                return stored
        workload = get_workload(workload_name)
        result = run_workload_on(
            config, workload, self.scale, record_timelines=record
        )
        self._cache[key] = result
        if self.disk_cache is not None:
            self.disk_cache.put(
                workload_name, self.scale.name, record, config, result
            )
        return result

    def speedup(self, workload_name: str, config: SystemConfig,
                baseline: SystemConfig) -> float:
        """Speedup of ``config`` over ``baseline`` for one workload."""
        return self.run(workload_name, config).speedup_over(
            self.run(workload_name, baseline)
        )

    @property
    def cached_runs(self) -> int:
        """Number of distinct simulations run so far."""
        return len(self._cache)

    def cache_stats(self) -> dict | None:
        """Disk-cache health counters for failure reports (None = no cache).

        Exposes hits/misses plus the storage-hardening counters
        (``corrupt`` quarantines and degraded ``put_errors``) so an
        end-of-run :class:`~repro.harness.supervisor.FailureReport` can
        account for injected or real storage faults.
        """
        if self.disk_cache is None:
            return None
        return self.disk_cache.stats()
