"""Run results: per-socket stats, speedups, and aggregate math.

A :class:`RunResult` is the harness's unit of currency: every experiment
runs some configurations, collects RunResults, and reduces them with the
same arithmetic/geometric means the paper reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.system import NumaGpuSystem

from repro.sim.stats import TimeSeries


@dataclass
class SocketStats:
    """Flattened statistics of one GPU socket after a run."""

    socket_id: int
    l1_hits: int
    l1_misses: int
    l2_hits: int
    l2_misses: int
    local_accesses: int
    remote_accesses: int
    dram_bytes: int
    egress_bytes: int
    ingress_bytes: int
    lane_turns: int
    ctas_completed: int
    flushes: int
    remote_read_requests: int

    @property
    def l1_hit_rate(self) -> float:
        """L1 read hit rate."""
        total = self.l1_hits + self.l1_misses
        return self.l1_hits / total if total else 0.0

    @property
    def l2_hit_rate(self) -> float:
        """L2 hit rate over lookups that reached it."""
        total = self.l2_hits + self.l2_misses
        return self.l2_hits / total if total else 0.0

    @property
    def remote_fraction(self) -> float:
        """Fraction of accesses to remote NUMA zones."""
        total = self.local_accesses + self.remote_accesses
        return self.remote_accesses / total if total else 0.0


@dataclass
class EdgeStats:
    """Flattened statistics of one fabric edge after a multi-hop run.

    The forward (``ab``) direction is the spec edge's ``a -> b``
    orientation. Lane counts are the end-of-run assignment (per-edge
    balancers may have turned lanes). The default crossbar reports its
    per-socket links through :class:`SocketStats` instead and leaves
    ``RunResult.edges`` empty — the exported JSON of the default fabric
    is pinned byte-for-byte by ``tests/golden/hotpath``.
    """

    name: str
    a: str
    b: str
    lanes_ab: int
    lanes_ba: int
    bytes_ab: int
    bytes_ba: int
    packets_ab: int
    packets_ba: int
    lane_turns: int

    @property
    def total_bytes(self) -> int:
        """Bytes moved over the edge, both directions."""
        return self.bytes_ab + self.bytes_ba


@dataclass
class RunResult:
    """Everything an experiment needs to know about one simulation."""

    workload: str
    config_label: str
    cycles: int
    n_sockets: int
    sockets: list[SocketStats]
    switch_bytes: int
    migrations: int
    kernels: int
    link_timelines: dict[str, TimeSeries] = field(default_factory=dict)
    partition_timelines: dict[str, TimeSeries] = field(default_factory=dict)
    kernel_launch_times: list[int] = field(default_factory=list)
    #: per-edge fabric stats; populated only on multi-hop topologies.
    edges: list[EdgeStats] = field(default_factory=list)
    #: packets by route hop count; empty on the default crossbar.
    hop_histogram: dict[int, int] = field(default_factory=dict)
    #: pages re-homed mid-run by a dynamic placement policy (0 for the
    #: static policies; first-touch claims count as ``migrations``).
    re_homed_pages: int = 0

    def speedup_over(self, baseline: "RunResult") -> float:
        """How much faster this run is than ``baseline`` (>1 = faster)."""
        if self.cycles <= 0:
            return 0.0
        return baseline.cycles / self.cycles

    @property
    def total_remote_fraction(self) -> float:
        """System-wide fraction of accesses that were remote."""
        local = sum(s.local_accesses for s in self.sockets)
        remote = sum(s.remote_accesses for s in self.sockets)
        total = local + remote
        return remote / total if total else 0.0

    @property
    def total_lane_turns(self) -> int:
        """Lane reversals performed across the fabric.

        On multi-hop topologies the per-socket view double-counts (every
        edge touches two nodes), so the per-edge stats are authoritative
        when present.
        """
        if self.edges:
            return sum(e.lane_turns for e in self.edges)
        return sum(s.lane_turns for s in self.sockets)

    @property
    def mean_hops(self) -> float:
        """Mean route length of fabric packets (0.0 on the crossbar)."""
        total = sum(self.hop_histogram.values())
        if not total:
            return 0.0
        return sum(h * c for h, c in self.hop_histogram.items()) / total

    @property
    def total_dram_bytes(self) -> int:
        """Bytes moved through all DRAM channels."""
        return sum(s.dram_bytes for s in self.sockets)


def arithmetic_mean(values: list[float]) -> float:
    """Plain average; 0.0 for an empty list."""
    return sum(values) / len(values) if values else 0.0


def geometric_mean(values: list[float]) -> float:
    """Geometric mean; requires positive values, 0.0 for an empty list."""
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def collect_results(system: "NumaGpuSystem", workload_name: str) -> RunResult:
    """Flatten a finished system's component stats into a RunResult."""
    sockets = []
    for socket in system.sockets:
        if system.fabric is not None:
            egress, ingress, turns = system.fabric.socket_traffic(
                socket.socket_id
            )
        else:
            egress = ingress = turns = 0
        sockets.append(
            SocketStats(
                socket_id=socket.socket_id,
                l1_hits=socket.stats["l1_hits"],
                l1_misses=socket.stats["l1_misses"],
                l2_hits=socket.stats["l2_hits"],
                l2_misses=socket.stats["l2_misses"],
                local_accesses=socket.stats["local_accesses"],
                remote_accesses=socket.stats["remote_accesses"],
                dram_bytes=socket.dram.bytes_total,
                egress_bytes=egress,
                ingress_bytes=ingress,
                lane_turns=turns,
                ctas_completed=socket.stats["ctas_completed"],
                flushes=socket.coherence.stats["flushes"],
                remote_read_requests=socket.stats["remote_read_requests"],
            )
        )
    link_timelines: dict[str, TimeSeries] = {}
    for balancer in system.balancers:
        if balancer.timeline_egress is not None:
            link_timelines[balancer.timeline_egress.name] = balancer.timeline_egress
        if balancer.timeline_ingress is not None:
            link_timelines[balancer.timeline_ingress.name] = balancer.timeline_ingress
    partition_timelines: dict[str, TimeSeries] = {}
    for controller in system.cache_controllers:
        if controller.timeline is not None:
            partition_timelines[controller.timeline.name] = controller.timeline
    launcher = system.launcher
    fabric = system.fabric
    # The crossbar (topology.spec.is_crossbar) is the paper default: an
    # explicit crossbar spec is byte-identical to no topology at all
    # (goldens), so only routed fabrics annotate the config label and
    # report per-edge stats and the hop histogram; the crossbar's links
    # are already its sockets' egress/ingress fields.
    routed = fabric is not None and not fabric.crossbar
    return RunResult(
        workload=workload_name,
        config_label=_config_label(system, routed),
        cycles=system.engine.now,
        n_sockets=system.config.n_sockets,
        sockets=sockets,
        switch_bytes=fabric.total_bytes if fabric else 0,
        migrations=system.page_table.migrations,
        kernels=launcher.stats["kernels_completed"] if launcher else 0,
        link_timelines=link_timelines,
        partition_timelines=partition_timelines,
        kernel_launch_times=list(launcher.kernel_launch_times) if launcher else [],
        edges=fabric.edge_stats() if routed else [],
        hop_histogram=fabric.hop_histogram() if routed else {},
        re_homed_pages=system.page_table.re_homed_pages,
    )


def _config_label(system: "NumaGpuSystem", routed: bool) -> str:
    cfg = system.config
    # The policy kind strings (goldens pin the default labels).
    label = (
        f"{cfg.n_sockets}s/{cfg.cta_spec.kind}/{cfg.placement_spec.kind}/"
        f"{cfg.cache_arch.value}/{cfg.link_policy.value}"
    )
    if routed:
        label += f"/{cfg.topology.name}"
    return label
