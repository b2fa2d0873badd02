"""Experiment drivers: one function per table/figure of the paper.

Each function takes an :class:`ExperimentContext`, runs the simulations it
needs (results are memoized on the context), and returns a small result
dataclass with a ``render()`` method that prints the same rows the paper's
figure shows. The benchmarks in ``benchmarks/`` are thin wrappers over
these functions; EXPERIMENTS.md records paper-vs-measured for each.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import PASCAL_SM_COUNT, CacheArch
from repro.harness.formatting import format_table
from repro.harness.runner import ExperimentContext
from repro.metrics.report import arithmetic_mean, geometric_mean
from repro.metrics.timeline import bin_series
from repro.power.interconnect_power import estimate_power
from repro.topology.routing import bisection_bandwidth, bisection_cut
from repro.workloads.suite import GREY_BOX, STUDY_SET, SUITE, TOPOLOGY_SET


# ---------------------------------------------------------------------------
# Table 1 / Table 2
# ---------------------------------------------------------------------------

@dataclass
class TableResult:
    """A rendered paper table."""

    title: str
    headers: list[str]
    rows: list[list[object]]

    def render(self) -> str:
        """ASCII rendering of the table."""
        return format_table(self.headers, self.rows, title=self.title)


def table1(ctx: ExperimentContext) -> TableResult:
    """Table 1: simulation parameters (the paper's full-size values)."""
    from repro.config import paper_config

    params = paper_config(n_sockets=ctx.n_sockets).describe()
    return TableResult(
        title="Table 1: Simulation parameters",
        headers=["Parameter", "Value(s)"],
        rows=[[k, v] for k, v in params.items()],
    )


def table2(ctx: ExperimentContext) -> TableResult:
    """Table 2: per-workload time-weighted CTAs and memory footprint."""
    rows = [
        [spec.name, spec.paper_avg_ctas, spec.paper_footprint_mb]
        for spec in SUITE.values()
    ]
    return TableResult(
        title="Table 2: Time-weighted average CTAs and footprint (MB)",
        headers=["Benchmark", "Avg CTAs", "Footprint (MB)"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Figure 2: workload parallelism vs larger GPUs
# ---------------------------------------------------------------------------

@dataclass
class Figure2Result:
    """% of workloads whose average CTA count fills a k-x larger GPU."""

    sm_counts: dict[int, int]
    fill_percent: dict[int, float]

    def render(self) -> str:
        rows = [
            [f"{k}x", self.sm_counts[k], f"{self.fill_percent[k]:.1f}%"]
            for k in sorted(self.fill_percent)
        ]
        return format_table(
            ["GPU size", "SMs", "% workloads filled"],
            rows,
            title="Figure 2: workloads able to fill future larger GPUs",
        )


def figure2(ctx: ExperimentContext, factors: tuple[int, ...] = (1, 2, 4, 8)) -> Figure2Result:
    """Figure 2, computed directly from the Table 2 CTA counts.

    A workload "fills" a GPU when its time-weighted average concurrent CTA
    count meets or exceeds the SM count (56 SMs per Pascal-class GPU).
    """
    sm_counts = {k: PASCAL_SM_COUNT * k for k in factors}
    fill = {}
    for k, sms in sm_counts.items():
        filled = sum(1 for spec in SUITE.values() if spec.paper_avg_ctas >= sms)
        fill[k] = 100.0 * filled / len(SUITE)
    return Figure2Result(sm_counts=sm_counts, fill_percent=fill)


# ---------------------------------------------------------------------------
# Figure 3: SW-only locality optimization
# ---------------------------------------------------------------------------

@dataclass
class Figure3Row:
    """One workload's bars in Figure 3 (all relative to one single GPU)."""

    workload: str
    traditional: float
    locality: float
    hypothetical: float
    grey_box: bool

    @property
    def sw_efficiency(self) -> float:
        """Locality-optimized performance relative to the hypothetical GPU."""
        return self.locality / self.hypothetical if self.hypothetical else 0.0


@dataclass
class Figure3Result:
    """Figure 3: 4-socket NUMA GPU vs single GPU and 4x hypothetical."""

    rows: list[Figure3Row]

    def render(self) -> str:
        ordered = sorted(self.rows, key=lambda r: r.hypothetical - r.locality,
                         reverse=True)
        table_rows = [
            [
                r.workload,
                r.traditional,
                r.locality,
                r.hypothetical,
                f"{100 * r.sw_efficiency:.0f}%",
                "grey" if r.grey_box else "",
            ]
            for r in ordered
        ]
        summary = (
            f"means: traditional={arithmetic_mean([r.traditional for r in self.rows]):.2f}x "
            f"locality={arithmetic_mean([r.locality for r in self.rows]):.2f}x "
            f"hypothetical={arithmetic_mean([r.hypothetical for r in self.rows]):.2f}x"
        )
        return (
            format_table(
                ["Workload", "Traditional", "Locality-Opt", "Hypo 4x", "SW eff", ""],
                table_rows,
                title="Figure 3: 4-socket NUMA GPU relative to a single GPU",
            )
            + "\n"
            + summary
        )

    @property
    def measured_grey_box(self) -> list[str]:
        """Workloads achieving >=99% of theoretical with SW only."""
        return [r.workload for r in self.rows if r.sw_efficiency >= 0.99]


def figure3(ctx: ExperimentContext, workloads: tuple[str, ...] | None = None) -> Figure3Result:
    """Figure 3: traditional vs locality-optimized vs hypothetical 4x."""
    names = workloads if workloads is not None else tuple(SUITE)
    single = ctx.config_single_gpu()
    traditional = ctx.config_traditional()
    locality = ctx.config_locality()
    hypothetical = ctx.config_hypothetical(ctx.n_sockets)
    rows = []
    for name in names:
        base = ctx.run(name, single)
        rows.append(
            Figure3Row(
                workload=name,
                traditional=ctx.run(name, traditional).speedup_over(base),
                locality=ctx.run(name, locality).speedup_over(base),
                hypothetical=ctx.run(name, hypothetical).speedup_over(base),
                grey_box=name in GREY_BOX,
            )
        )
    return Figure3Result(rows=rows)


# ---------------------------------------------------------------------------
# Figure 5: link utilization timeline (HPC-HPGMG-UVM)
# ---------------------------------------------------------------------------

@dataclass
class Figure5Result:
    """Per-GPU ingress/egress utilization over time with kernel markers."""

    workload: str
    window: int
    profiles: dict[str, list[float]]  # e.g. "link0.egress" -> utilization
    times: list[int]
    kernel_launch_times: list[int]
    asymmetry: dict[int, float]  # per-socket |egress-ingress| mean gap

    def render(self) -> str:
        rows = []
        for i, t in enumerate(self.times):
            row: list[object] = [t]
            for name in sorted(self.profiles):
                row.append(f"{self.profiles[name][i]:.2f}")
            rows.append(row)
        headers = ["cycle"] + sorted(self.profiles)
        mean_gap = arithmetic_mean(list(self.asymmetry.values()))
        return (
            format_table(
                headers,
                rows,
                title=f"Figure 5: link utilization profile, {self.workload}",
            )
            + f"\nkernel launches at: {self.kernel_launch_times}"
            + f"\nmean per-GPU direction asymmetry: {mean_gap:.3f}"
        )


def figure5(
    ctx: ExperimentContext,
    workload: str = "HPC-HPGMG-UVM",
    n_windows: int = 24,
) -> Figure5Result:
    """Figure 5: asymmetric link utilization on the locality baseline."""
    result = ctx.run(workload, ctx.config_locality(), record_timelines=True)
    window = max(1, result.cycles // n_windows)
    profiles: dict[str, list[float]] = {}
    binned = {}
    for name, series in result.link_timelines.items():
        profile = bin_series(series, window, result.cycles)
        binned[name] = profile
        profiles[name] = profile.utilization
    times = next(iter(binned.values())).times if binned else []
    asymmetry = {}
    for socket in range(result.n_sockets):
        egress = binned.get(f"link{socket}.egress")
        ingress = binned.get(f"link{socket}.ingress")
        if egress is None or ingress is None:
            continue
        n = min(len(egress.utilization), len(ingress.utilization))
        gap = sum(
            abs(egress.utilization[i] - ingress.utilization[i]) for i in range(n)
        )
        asymmetry[socket] = gap / n if n else 0.0
    return Figure5Result(
        workload=workload,
        window=window,
        profiles=profiles,
        times=times,
        kernel_launch_times=result.kernel_launch_times,
        asymmetry=asymmetry,
    )


# ---------------------------------------------------------------------------
# Figure 6: dynamic link adaptivity
# ---------------------------------------------------------------------------

@dataclass
class Figure6Result:
    """Speedups of dynamic links (per sample time) and doubled bandwidth."""

    sample_times: tuple[int, ...]
    per_workload: dict[str, dict[str, float]]  # name -> {"s5000": x, "2x": y}

    def mean_speedup(self, key: str) -> float:
        """Arithmetic-mean speedup of one policy column."""
        return arithmetic_mean([row[key] for row in self.per_workload.values()])

    def render(self) -> str:
        headers = (
            ["Workload"]
            + [f"dyn@{s}" for s in self.sample_times]
            + ["2x BW"]
        )
        ordered = sorted(
            self.per_workload.items(), key=lambda kv: kv[1]["2x"], reverse=True
        )
        rows = []
        for name, cols in ordered:
            rows.append(
                [name]
                + [cols[f"s{s}"] for s in self.sample_times]
                + [cols["2x"]]
            )
        means = (
            "means: "
            + " ".join(
                f"dyn@{s}={self.mean_speedup(f's{s}'):.3f}x"
                for s in self.sample_times
            )
            + f" 2x={self.mean_speedup('2x'):.3f}x"
        )
        return (
            format_table(
                headers,
                rows,
                title="Figure 6: dynamic link adaptivity vs doubled bandwidth",
            )
            + "\n"
            + means
        )


def figure6(
    ctx: ExperimentContext,
    workloads: tuple[str, ...] | None = None,
    sample_times: tuple[int, ...] = (1000, 5000, 10000, 50000),
    switch_time: int = 100,
) -> Figure6Result:
    """Figure 6: speedup of dynamic lane reversal over static links."""
    names = workloads if workloads is not None else STUDY_SET
    baseline = ctx.config_locality()
    doubled = ctx.config_doubled_link()
    per_workload: dict[str, dict[str, float]] = {}
    for name in names:
        base = ctx.run(name, baseline)
        cols: dict[str, float] = {}
        for sample in sample_times:
            dyn = ctx.config_dynamic_link(sample_time=sample, switch_time=switch_time)
            cols[f"s{sample}"] = ctx.run(name, dyn).speedup_over(base)
        cols["2x"] = ctx.run(name, doubled).speedup_over(base)
        per_workload[name] = cols
    return Figure6Result(sample_times=sample_times, per_workload=per_workload)


@dataclass
class SwitchTimeSensitivity:
    """Section 4.1: sensitivity of the dynamic policy to lane-turn cost."""

    switch_times: tuple[int, ...]
    mean_speedup: dict[int, float]

    def render(self) -> str:
        rows = [[t, self.mean_speedup[t]] for t in self.switch_times]
        return format_table(
            ["SwitchTime (cycles)", "mean speedup vs static"],
            rows,
            title="Section 4.1: lane turn time sensitivity",
        )


def switch_time_sensitivity(
    ctx: ExperimentContext,
    workloads: tuple[str, ...] | None = None,
    switch_times: tuple[int, ...] = (10, 100, 500),
    sample_time: int = 5000,
) -> SwitchTimeSensitivity:
    """Section 4.1: 10/100/500-cycle lane turn costs."""
    names = workloads if workloads is not None else STUDY_SET
    baseline = ctx.config_locality()
    means = {}
    for turn in switch_times:
        dyn = ctx.config_dynamic_link(sample_time=sample_time, switch_time=turn)
        speedups = [
            ctx.run(name, dyn).speedup_over(ctx.run(name, baseline))
            for name in names
        ]
        means[turn] = arithmetic_mean(speedups)
    return SwitchTimeSensitivity(switch_times=switch_times, mean_speedup=means)


# ---------------------------------------------------------------------------
# Figure 8: cache organizations
# ---------------------------------------------------------------------------

@dataclass
class Figure8Result:
    """Speedup of each cache organization over memory-side local L2."""

    per_workload: dict[str, dict[str, float]]

    COLUMNS = ("static_rc", "shared_coherent", "numa_aware")

    def mean_speedup(self, key: str) -> float:
        """Arithmetic-mean speedup of one organization."""
        return arithmetic_mean([row[key] for row in self.per_workload.values()])

    def render(self) -> str:
        ordered = sorted(
            self.per_workload.items(),
            key=lambda kv: kv[1]["numa_aware"],
            reverse=True,
        )
        rows = [
            [name] + [cols[c] for c in self.COLUMNS] for name, cols in ordered
        ]
        means = " ".join(
            f"{c}={self.mean_speedup(c):.3f}x" for c in self.COLUMNS
        )
        return (
            format_table(
                ["Workload", "Static R$", "Shared coherent", "NUMA-aware"],
                rows,
                title="Figure 8: cache organizations vs mem-side local-only L2",
            )
            + f"\nmeans: {means}"
        )


def figure8(
    ctx: ExperimentContext, workloads: tuple[str, ...] | None = None
) -> Figure8Result:
    """Figure 8: the four Figure 7 organizations on the study set."""
    names = workloads if workloads is not None else STUDY_SET
    baseline = ctx.config_cache(CacheArch.MEM_SIDE)
    configs = {
        "static_rc": ctx.config_cache(CacheArch.STATIC_RC),
        "shared_coherent": ctx.config_cache(CacheArch.SHARED_COHERENT),
        "numa_aware": ctx.config_cache(CacheArch.NUMA_AWARE),
    }
    per_workload = {}
    for name in names:
        base = ctx.run(name, baseline)
        per_workload[name] = {
            key: ctx.run(name, config).speedup_over(base)
            for key, config in configs.items()
        }
    return Figure8Result(per_workload=per_workload)


# ---------------------------------------------------------------------------
# Figure 9: coherence invalidation overhead
# ---------------------------------------------------------------------------

@dataclass
class Figure9Result:
    """Overhead of SW bulk invalidations vs the ignore-invalidations bound."""

    per_workload: dict[str, float]  # overhead fraction (0.10 = 10% slower)

    @property
    def mean_overhead(self) -> float:
        """Arithmetic-mean overhead across the study set."""
        return arithmetic_mean(list(self.per_workload.values()))

    def render(self) -> str:
        ordered = sorted(self.per_workload.items(), key=lambda kv: -kv[1])
        rows = [[name, f"{100 * v:.1f}%"] for name, v in ordered]
        return (
            format_table(
                ["Workload", "Invalidation overhead"],
                rows,
                title="Figure 9: SW coherence overhead in GPU L2 caches",
            )
            + f"\nmean overhead: {100 * self.mean_overhead:.1f}%"
        )


def figure9(
    ctx: ExperimentContext, workloads: tuple[str, ...] | None = None
) -> Figure9Result:
    """Figure 9: cost of extending bulk invalidation into the L2s."""
    names = workloads if workloads is not None else STUDY_SET
    with_inval = ctx.config_cache(CacheArch.NUMA_AWARE)
    without = ctx.config_no_invalidations()
    per_workload = {}
    for name in names:
        t_with = ctx.run(name, with_inval).cycles
        t_without = ctx.run(name, without).cycles
        per_workload[name] = (t_with / t_without) - 1.0 if t_without else 0.0
    return Figure9Result(per_workload=per_workload)


@dataclass
class WritePolicyResult:
    """Section 5.2: write-back vs write-through L2."""

    per_workload: dict[str, float]  # write-back speedup over write-through

    @property
    def mean_speedup(self) -> float:
        """Mean advantage of write-back (paper: ~1.09x)."""
        return arithmetic_mean(list(self.per_workload.values()))

    def render(self) -> str:
        ordered = sorted(self.per_workload.items(), key=lambda kv: -kv[1])
        rows = [[name, v] for name, v in ordered]
        return (
            format_table(
                ["Workload", "WB speedup over WT"],
                rows,
                title="Section 5.2: write-back vs write-through L2",
            )
            + f"\nmean: {self.mean_speedup:.3f}x"
        )


def writeback_sensitivity(
    ctx: ExperimentContext, workloads: tuple[str, ...] | None = None
) -> WritePolicyResult:
    """Section 5.2: write-back L2 vs write-through L2 (paper: +9%)."""
    names = workloads if workloads is not None else STUDY_SET
    wb = ctx.config_cache(CacheArch.NUMA_AWARE)
    wt = ctx.config_write_through()
    per_workload = {}
    for name in names:
        per_workload[name] = ctx.run(name, wb).speedup_over(ctx.run(name, wt))
    return WritePolicyResult(per_workload=per_workload)


# ---------------------------------------------------------------------------
# Figure 10: combined improvement
# ---------------------------------------------------------------------------

@dataclass
class Figure10Result:
    """Combined dynamic links + NUMA-aware caches, 4 sockets."""

    per_workload: dict[str, dict[str, float]]

    def mean(self, key: str) -> float:
        """Arithmetic mean of one column."""
        return arithmetic_mean([r[key] for r in self.per_workload.values()])

    def render(self) -> str:
        ordered = sorted(
            self.per_workload.items(),
            key=lambda kv: kv[1]["combined"],
            reverse=True,
        )
        rows = [
            [name, c["baseline"], c["combined"], c["hypothetical"]]
            for name, c in ordered
        ]
        return (
            format_table(
                ["Workload", "SW baseline", "NUMA-aware", "Hypo 4x"],
                rows,
                title="Figure 10: combined improvement vs single GPU",
            )
            + f"\nmeans: baseline={self.mean('baseline'):.2f}x "
            f"combined={self.mean('combined'):.2f}x "
            f"hypothetical={self.mean('hypothetical'):.2f}x"
            + f"\ncombined over baseline: "
            f"{self.mean('combined') / max(self.mean('baseline'), 1e-9):.2f}x"
        )


def figure10(
    ctx: ExperimentContext, workloads: tuple[str, ...] | None = None
) -> Figure10Result:
    """Figure 10: both mechanisms together vs single GPU and 4x GPU."""
    names = workloads if workloads is not None else STUDY_SET
    single = ctx.config_single_gpu()
    baseline = ctx.config_locality()
    combined = ctx.config_combined()
    hypothetical = ctx.config_hypothetical(ctx.n_sockets)
    per_workload = {}
    for name in names:
        base = ctx.run(name, single)
        per_workload[name] = {
            "baseline": ctx.run(name, baseline).speedup_over(base),
            "combined": ctx.run(name, combined).speedup_over(base),
            "hypothetical": ctx.run(name, hypothetical).speedup_over(base),
        }
    return Figure10Result(per_workload=per_workload)


# ---------------------------------------------------------------------------
# Figure 11: scalability
# ---------------------------------------------------------------------------

@dataclass
class Figure11Result:
    """2/4/8-socket NUMA-aware GPUs vs hypothetical 2x/4x/8x GPUs."""

    socket_counts: tuple[int, ...]
    per_workload: dict[str, dict[str, float]]

    def mean_speedup(self, sockets: int) -> float:
        """Mean NUMA-aware speedup at one socket count."""
        return arithmetic_mean(
            [r[f"numa{sockets}"] for r in self.per_workload.values()]
        )

    def mean_hypothetical(self, sockets: int) -> float:
        """Mean hypothetical same-size speedup."""
        return arithmetic_mean(
            [r[f"hypo{sockets}"] for r in self.per_workload.values()]
        )

    def efficiency(self, sockets: int) -> float:
        """NUMA-aware speedup as a fraction of the hypothetical GPU's."""
        hypo = self.mean_hypothetical(sockets)
        return self.mean_speedup(sockets) / hypo if hypo else 0.0

    def render(self) -> str:
        headers = ["Workload"]
        for k in self.socket_counts:
            headers += [f"NUMA {k}s", f"Hypo {k}x"]
        rows = []
        for name, cols in sorted(self.per_workload.items()):
            row: list[object] = [name]
            for k in self.socket_counts:
                row += [cols[f"numa{k}"], cols[f"hypo{k}"]]
            rows.append(row)
        summary_lines = [
            f"{k}-socket: speedup {self.mean_speedup(k):.2f}x, "
            f"hypothetical {self.mean_hypothetical(k):.2f}x, "
            f"efficiency {100 * self.efficiency(k):.0f}%"
            for k in self.socket_counts
        ]
        return (
            format_table(
                headers, rows, title="Figure 11: NUMA-aware GPU scalability"
            )
            + "\n"
            + "\n".join(summary_lines)
        )


def figure11(
    ctx: ExperimentContext,
    workloads: tuple[str, ...] | None = None,
    socket_counts: tuple[int, ...] = (2, 4, 8),
) -> Figure11Result:
    """Figure 11: full-design scalability over all 41 workloads."""
    names = workloads if workloads is not None else tuple(SUITE)
    single = ctx.config_single_gpu()
    per_workload: dict[str, dict[str, float]] = {}
    for name in names:
        base = ctx.run(name, single)
        cols: dict[str, float] = {}
        for k in socket_counts:
            numa = ctx.config_combined(n_sockets=k)
            hypo = ctx.config_hypothetical(k)
            cols[f"numa{k}"] = ctx.run(name, numa).speedup_over(base)
            cols[f"hypo{k}"] = ctx.run(name, hypo).speedup_over(base)
        per_workload[name] = cols
    return Figure11Result(socket_counts=socket_counts, per_workload=per_workload)


# ---------------------------------------------------------------------------
# Topology sweep: policy x fabric x socket count
# ---------------------------------------------------------------------------

@dataclass
class TopologyCell:
    """One (policy, topology, socket count) aggregate of the sweep."""

    policy: str
    kind: str
    n_sockets: int
    speedup: float  # vs the crossbar under the same policy + sockets
    mean_hops: float
    bisection_utilization: float
    n_edges: int
    bisection_bandwidth: float  # canonical-cut bytes/cycle of the spec


@dataclass
class TopologySweepResult:
    """Policy x fabric x socket-count study over the topology set.

    Every multi-hop fabric is normalized to the crossbar at the same
    policy and socket count, so the columns read "what does this fabric
    cost (or buy) relative to the paper's non-blocking switch".
    """

    policies: tuple[str, ...]
    kinds: tuple[str, ...]
    socket_counts: tuple[int, ...]
    cells: list[TopologyCell]
    per_workload: dict[tuple[str, str, int], dict[str, float]]

    def cell(self, policy: str, kind: str, n_sockets: int) -> TopologyCell:
        """Lookup one aggregate cell."""
        for cell in self.cells:
            if (cell.policy, cell.kind, cell.n_sockets) == (
                policy, kind, n_sockets
            ):
                return cell
        raise KeyError((policy, kind, n_sockets))

    def render(self) -> str:
        rows = [
            [
                c.policy,
                c.kind,
                c.n_sockets,
                f"{c.speedup:.3f}x",
                f"{c.mean_hops:.2f}",
                f"{100 * c.bisection_utilization:.1f}%",
                c.n_edges,
                f"{c.bisection_bandwidth:.0f}",
            ]
            for c in self.cells
        ]
        return format_table(
            [
                "Policy",
                "Topology",
                "Sockets",
                "vs crossbar",
                "Mean hops",
                "Bisection util",
                "Edges",
                "Bisection B/cyc",
            ],
            rows,
            title="Topology sweep: policy x fabric x socket count",
        )


def topology_sweep(
    ctx: ExperimentContext,
    workloads: tuple[str, ...] | None = None,
    kinds: tuple[str, ...] = ("ring", "mesh2d", "switch_tree"),
    socket_counts: tuple[int, ...] = (2, 4, 8),
    policies: tuple[str, ...] = ("locality", "combined"),
) -> TopologySweepResult:
    """Policy x topology x socket-count sweep (hop + bisection metrics).

    ``policies``: ``locality`` is the Section 3 software baseline
    (mem-side L2, static lanes); ``combined`` is the full NUMA-aware
    design (NUMA-aware caches + dynamic per-edge lanes). Speedups are
    against the *crossbar* under the same policy and socket count, so a
    value below 1.0 is the price of the cheaper fabric.

    Bisection utilization is measured on the canonical half-split cut of
    :func:`repro.topology.routing.bisection_cut`: bytes crossing the cut
    over the run, divided by the cut's aggregate capacity x cycles.
    """
    names = workloads if workloads is not None else TOPOLOGY_SET
    cells: list[TopologyCell] = []
    per_workload: dict[tuple[str, str, int], dict[str, float]] = {}
    for policy in policies:
        combined = policy == "combined"
        for k in socket_counts:
            if combined:
                baseline = ctx.config_combined(n_sockets=k)
            else:
                baseline = ctx.config_locality(n_sockets=k)
            for kind in kinds:
                config = ctx.config_topology(kind, n_sockets=k,
                                             combined=combined)
                spec = config.topology
                assert spec is not None
                cut = bisection_cut(spec)
                cut_names = {spec.edges[e].name for e in cut}
                cut_bandwidth = bisection_bandwidth(spec)
                speedups: list[float] = []
                utils: list[float] = []
                histogram: dict[int, int] = {}
                for name in names:
                    base = ctx.run(name, baseline)
                    result = ctx.run(name, config)
                    speedup = result.speedup_over(base)
                    cut_bytes = sum(
                        e.total_bytes
                        for e in result.edges
                        if e.name in cut_names
                    )
                    util = (
                        cut_bytes / (cut_bandwidth * result.cycles)
                        if cut_bandwidth and result.cycles
                        else 0.0
                    )
                    speedups.append(speedup)
                    utils.append(util)
                    for hop, count in result.hop_histogram.items():
                        histogram[hop] = histogram.get(hop, 0) + count
                    per_workload.setdefault((policy, kind, k), {})[name] = (
                        speedup
                    )
                total_packets = sum(histogram.values())
                mean_hops = (
                    sum(h * c for h, c in histogram.items()) / total_packets
                    if total_packets
                    else 0.0
                )
                cells.append(
                    TopologyCell(
                        policy=policy,
                        kind=kind,
                        n_sockets=k,
                        speedup=geometric_mean([max(s, 1e-9) for s in speedups]),
                        mean_hops=mean_hops,
                        bisection_utilization=arithmetic_mean(utils),
                        n_edges=len(spec.edges),
                        bisection_bandwidth=cut_bandwidth,
                    )
                )
    return TopologySweepResult(
        policies=policies,
        kinds=kinds,
        socket_counts=socket_counts,
        cells=cells,
        per_workload=per_workload,
    )


# ---------------------------------------------------------------------------
# Locality sweep: placement x CTA policy x fabric x socket count
# ---------------------------------------------------------------------------

#: The default policy grid of the locality driver: the two distance-aware
#: placements, the affinity-aware scheduler, and their headline pairing.
LOCALITY_POLICIES: tuple[tuple[str, str], ...] = (
    ("distance_weighted_first_touch", "contiguous"),
    ("access_counter_migration", "contiguous"),
    ("first_touch", "distance_affine"),
    ("distance_weighted_first_touch", "distance_affine"),
)


@dataclass
class LocalityCell:
    """One (placement, cta, topology, socket count) aggregate."""

    placement: str
    cta: str
    kind: str
    n_sockets: int
    speedup: float  # geomean vs the distance-blind baseline, same fabric
    mean_hops: float  # packet-weighted, aggregated over the workloads
    baseline_mean_hops: float
    remote_fraction: float  # arithmetic mean over the workloads
    baseline_remote_fraction: float
    migrations: int
    re_homed_pages: int

    @property
    def hops_delta(self) -> float:
        """Packet-weighted mean-hop change vs the baseline (negative = better)."""
        return self.mean_hops - self.baseline_mean_hops


@dataclass
class LocalitySweepResult:
    """Placement x CTA policy x fabric x socket-count study.

    Every cell is normalized to the *distance-blind* baseline
    (the default ``first_touch`` + ``contiguous`` specs) on the same
    fabric and socket count, so the columns read "what does
    distance-awareness buy on this interconnect".
    """

    policies: tuple[tuple[str, str], ...]
    kinds: tuple[str, ...]
    socket_counts: tuple[int, ...]
    cells: list[LocalityCell]
    per_workload: dict[tuple[str, str, str, int], dict[str, float]]

    def cell(self, placement: str, cta: str, kind: str,
             n_sockets: int) -> LocalityCell:
        """Lookup one aggregate cell."""
        for cell in self.cells:
            if (cell.placement, cell.cta, cell.kind, cell.n_sockets) == (
                placement, cta, kind, n_sockets
            ):
                return cell
        raise KeyError((placement, cta, kind, n_sockets))

    def render(self) -> str:
        rows = [
            [
                c.placement,
                c.cta,
                c.kind,
                c.n_sockets,
                f"{c.speedup:.3f}x",
                f"{c.mean_hops:.3f}",
                f"{c.baseline_mean_hops:.3f}",
                f"{100 * c.remote_fraction:.1f}%",
                f"{100 * c.baseline_remote_fraction:.1f}%",
                c.re_homed_pages,
            ]
            for c in self.cells
        ]
        return format_table(
            [
                "Placement",
                "CTA policy",
                "Topology",
                "Sockets",
                "Speedup",
                "Mean hops",
                "(blind)",
                "Remote",
                "(blind)",
                "Re-homes",
            ],
            rows,
            title="Locality sweep: policy x fabric x socket count "
            "(vs distance-blind first_touch/contiguous)",
        )


def _weighted_mean_hops(histogram: dict[int, int]) -> float:
    total = sum(histogram.values())
    if not total:
        return 0.0
    return sum(h * c for h, c in histogram.items()) / total


def locality_sweep(
    ctx: ExperimentContext,
    workloads: tuple[str, ...] | None = None,
    kinds: tuple[str, ...] = ("ring", "mesh2d"),
    socket_counts: tuple[int, ...] = (8, 16),
    policies: tuple[tuple[str, str], ...] = LOCALITY_POLICIES,
) -> LocalitySweepResult:
    """Placement x CTA policy x fabric x socket-count sweep.

    The distance-blind baseline of every fabric/socket cell is the plain
    topology config (the default ``first_touch`` + ``contiguous``
    specs) — the identical configuration the topology sweep runs, so
    baselines come from (and warm) the shared result cache. Reported per
    cell: geomean speedup, packet-weighted mean hops (aggregated route
    histograms), mean remote-access fraction, and first-touch migration
    / dynamic re-home totals.
    """
    names = workloads if workloads is not None else TOPOLOGY_SET
    cells: list[LocalityCell] = []
    per_workload: dict[tuple[str, str, str, int], dict[str, float]] = {}
    for kind in kinds:
        for k in socket_counts:
            baseline = ctx.config_topology(kind, n_sockets=k)
            base_hist: dict[int, int] = {}
            base_remote: list[float] = []
            base_results = {}
            for name in names:
                result = ctx.run(name, baseline)
                base_results[name] = result
                base_remote.append(result.total_remote_fraction)
                for hops, count in result.hop_histogram.items():
                    base_hist[hops] = base_hist.get(hops, 0) + count
            for placement, cta in policies:
                config = ctx.config_locality_policy(
                    placement, cta, kind=kind, n_sockets=k
                )
                speedups: list[float] = []
                remotes: list[float] = []
                histogram: dict[int, int] = {}
                migrations = 0
                re_homed = 0
                for name in names:
                    result = ctx.run(name, config)
                    speedup = result.speedup_over(base_results[name])
                    speedups.append(speedup)
                    remotes.append(result.total_remote_fraction)
                    migrations += result.migrations
                    re_homed += result.re_homed_pages
                    for hops, count in result.hop_histogram.items():
                        histogram[hops] = histogram.get(hops, 0) + count
                    per_workload.setdefault(
                        (placement, cta, kind, k), {}
                    )[name] = speedup
                cells.append(
                    LocalityCell(
                        placement=placement,
                        cta=cta,
                        kind=kind,
                        n_sockets=k,
                        speedup=geometric_mean(
                            [max(s, 1e-9) for s in speedups]
                        ),
                        mean_hops=_weighted_mean_hops(histogram),
                        baseline_mean_hops=_weighted_mean_hops(base_hist),
                        remote_fraction=arithmetic_mean(remotes),
                        baseline_remote_fraction=arithmetic_mean(base_remote),
                        migrations=migrations,
                        re_homed_pages=re_homed,
                    )
                )
    return LocalitySweepResult(
        policies=policies,
        kinds=kinds,
        socket_counts=socket_counts,
        cells=cells,
        per_workload=per_workload,
    )


# ---------------------------------------------------------------------------
# Section 6: power
# ---------------------------------------------------------------------------

@dataclass
class PowerResult:
    """Interconnect power of the baseline vs the NUMA-aware design."""

    per_workload: dict[str, dict[str, float]]  # watts (geomean'd below)
    bandwidth_scale: float

    def geomean(self, key: str) -> float:
        """Geometric-mean projected full-size watts for one design."""
        values = [
            max(r[key], 1e-9) for r in self.per_workload.values()
        ]
        return geometric_mean(values)

    def render(self) -> str:
        rows = [
            [name, c["baseline_w"], c["numa_aware_w"]]
            for name, c in sorted(self.per_workload.items())
        ]
        return (
            format_table(
                ["Workload", "Baseline W (proj.)", "NUMA-aware W (proj.)"],
                rows,
                title="Section 6: interconnect power at 10 pJ/b (projected full-size)",
            )
            + f"\ngeomeans: baseline={self.geomean('baseline_w'):.1f}W "
            f"numa-aware={self.geomean('numa_aware_w'):.1f}W"
        )


def power_analysis(
    ctx: ExperimentContext, workloads: tuple[str, ...] | None = None
) -> PowerResult:
    """Section 6: communication power, baseline vs NUMA-aware (4 sockets).

    Scaled-run watts are projected to the paper's full-size bandwidths by
    dividing by the bandwidth scale factor (power tracks bytes/second).
    """
    names = workloads if workloads is not None else tuple(SUITE)
    baseline = ctx.config_locality()
    combined = ctx.config_combined()
    bandwidth_scale = ctx.sms_per_socket / 64.0
    per_workload = {}
    for name in names:
        base_power = estimate_power(ctx.run(name, baseline))
        numa_power = estimate_power(ctx.run(name, combined))
        per_workload[name] = {
            "baseline_w": base_power.average_watts / bandwidth_scale,
            "numa_aware_w": numa_power.average_watts / bandwidth_scale,
        }
    return PowerResult(per_workload=per_workload, bandwidth_scale=bandwidth_scale)


# ---------------------------------------------------------------------------
# everything at once
# ---------------------------------------------------------------------------

def run_all(ctx: ExperimentContext) -> dict[str, object]:
    """Run every experiment; returns {experiment id: result object}."""
    return {
        "table1": table1(ctx),
        "table2": table2(ctx),
        "figure2": figure2(ctx),
        "figure3": figure3(ctx),
        "figure5": figure5(ctx),
        "figure6": figure6(ctx),
        "figure8": figure8(ctx),
        "figure9": figure9(ctx),
        "figure10": figure10(ctx),
        "figure11": figure11(ctx),
        "switch_time_sensitivity": switch_time_sensitivity(ctx),
        "writeback_sensitivity": writeback_sensitivity(ctx),
        "power": power_analysis(ctx),
        "topology": topology_sweep(ctx),
        "locality": locality_sweep(ctx),
    }
