"""Unit tests for the experiment harness: context, caching, drivers."""

import pytest

from repro.config import CacheArch, LinkPolicy, PASCAL_SM_COUNT
from repro.harness import experiments as exp
from repro.harness.formatting import format_speedup_bars, format_table
from repro.harness.runner import ExperimentContext
from repro.workloads.spec import TINY, WorkloadScale
from repro.workloads.suite import SUITE

#: A minuscule scale so harness tests run in milliseconds per simulation.
MICRO = WorkloadScale(name="micro", cta_cap=24, footprint_lines=2048,
                      ops_scale=0.25)


@pytest.fixture()
def ctx():
    return ExperimentContext(sms_per_socket=2, scale=MICRO)


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def test_format_table_alignment():
    text = format_table(["a", "long"], [[1, 2.5], ["xx", 3.0]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "long" in lines[1]
    assert all(len(line) == len(lines[1]) for line in lines[2:])


def test_format_bars():
    text = format_speedup_bars([("a", 2.0), ("b", 1.0)], width=4)
    assert text.splitlines()[0].endswith("####")
    assert text.splitlines()[1].endswith("##")


def test_format_bars_empty():
    assert format_speedup_bars([]) == ""


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------

def test_context_caches_identical_runs(ctx):
    a = ctx.run("Lonestar-SP", ctx.config_single_gpu())
    b = ctx.run("Lonestar-SP", ctx.config_single_gpu())
    assert a is b
    assert ctx.cached_runs == 1


def test_context_distinguishes_configs(ctx):
    ctx.run("Lonestar-SP", ctx.config_single_gpu())
    ctx.run("Lonestar-SP", ctx.config_locality())
    assert ctx.cached_runs == 2


@pytest.mark.parametrize("kind", ["ring", "mesh2d"])
def test_default_locality_policy_shares_the_topology_identity(ctx, kind):
    """Regression: spelling out the default first_touch/contiguous
    policies gave the same system a second config digest, so the memo
    and the disk cache simulated and stored it twice."""
    from repro.config import config_digest

    plain = ctx.config_topology(kind, n_sockets=8)
    spelled = ctx.config_locality_policy(
        "first_touch", "contiguous", kind=kind, n_sockets=8
    )
    assert config_digest(plain) == config_digest(spelled)
    a = ctx.run("Rodinia-BFS", plain)
    b = ctx.run("Rodinia-BFS", spelled)
    assert a is b
    assert ctx.cached_runs == 1


def test_memo_key_distinguishes_noc_bandwidth(ctx):
    """Regression: noc_bandwidth was omitted from the hand-picked key,
    so a config differing only in NoC bandwidth aliased to the cached
    result of another config (e.g. hypothetical_config scales it)."""
    from dataclasses import replace

    base = ctx.config_single_gpu()
    choked = replace(
        base, gpu=replace(base.gpu, noc_bandwidth=base.gpu.noc_bandwidth / 64)
    )
    a = ctx.run("Rodinia-Hotspot", base)
    b = ctx.run("Rodinia-Hotspot", choked)
    assert ctx.cached_runs == 2
    assert a is not b
    assert a.cycles != b.cycles  # a 64x slower NoC must change timing


def test_memo_key_distinguishes_dram_latency(ctx):
    from dataclasses import replace

    base = ctx.config_single_gpu()
    slow = replace(
        base, gpu=replace(base.gpu, dram_latency=base.gpu.dram_latency * 20)
    )
    a = ctx.run("Lonestar-SP", base)
    b = ctx.run("Lonestar-SP", slow)
    assert ctx.cached_runs == 2
    assert a is not b
    assert a.cycles != b.cycles


def test_canonical_configs(ctx):
    assert ctx.config_single_gpu().n_sockets == 1
    assert ctx.config_hypothetical(4).gpu.sms == 4 * ctx.sms_per_socket
    assert ctx.config_combined().cache_arch is CacheArch.NUMA_AWARE
    assert ctx.config_combined().link_policy is LinkPolicy.DYNAMIC
    assert ctx.config_doubled_link().link_policy is LinkPolicy.DOUBLED
    assert not ctx.config_no_invalidations().coherence_invalidations


def test_dynamic_link_config_overrides_sampling(ctx):
    cfg = ctx.config_dynamic_link(sample_time=123, switch_time=9)
    assert cfg.controllers.link_sample_time == 123
    assert cfg.controllers.link_switch_time == 9


def test_speedup_helper(ctx):
    s = ctx.speedup(
        "Lonestar-SP", ctx.config_locality(), ctx.config_single_gpu()
    )
    assert s > 0


# ---------------------------------------------------------------------------
# analytic experiments (no simulation)
# ---------------------------------------------------------------------------

def test_table1_contains_parameters(ctx):
    table = exp.table1(ctx)
    text = table.render()
    assert "768GB/s" in text
    assert "Num of GPU sockets" in text


def test_table2_lists_all_workloads(ctx):
    table = exp.table2(ctx)
    assert len(table.rows) == 41
    text = table.render()
    assert "HPC-AMG" in text and "241549" in text


def test_figure2_percentages(ctx):
    result = exp.figure2(ctx)
    assert result.fill_percent[1] == pytest.approx(100.0)
    # Percentages never increase with GPU size.
    values = [result.fill_percent[k] for k in sorted(result.fill_percent)]
    assert values == sorted(values, reverse=True)
    assert result.sm_counts[8] == 8 * PASCAL_SM_COUNT
    # Exact counts from Table 2: CTAs >= 112 for 2x (38 workloads).
    expected_2x = 100.0 * sum(
        1 for s in SUITE.values() if s.paper_avg_ctas >= 112
    ) / 41
    assert result.fill_percent[2] == pytest.approx(expected_2x)


def test_figure2_render(ctx):
    assert "%" in exp.figure2(ctx).render()


# ---------------------------------------------------------------------------
# simulated experiment drivers (micro scale, tiny subsets)
# ---------------------------------------------------------------------------

SUBSET = ("Lonestar-SP", "Rodinia-Hotspot")


def test_figure3_driver(ctx):
    result = exp.figure3(ctx, workloads=SUBSET)
    assert {r.workload for r in result.rows} == set(SUBSET)
    for row in result.rows:
        assert row.traditional > 0
        assert row.locality > 0
        assert row.hypothetical > 0
    assert "Figure 3" in result.render()


def test_figure5_driver(ctx):
    result = exp.figure5(ctx, workload="Lonestar-SP", n_windows=6)
    assert result.profiles
    assert all(len(v) == len(result.times) for v in result.profiles.values())
    assert result.kernel_launch_times
    assert "Figure 5" in result.render()


def test_figure6_driver(ctx):
    result = exp.figure6(ctx, workloads=SUBSET, sample_times=(1000,))
    assert set(result.per_workload) == set(SUBSET)
    for cols in result.per_workload.values():
        assert "s1000" in cols and "2x" in cols
    assert result.mean_speedup("2x") > 0
    assert "Figure 6" in result.render()


def test_figure8_driver(ctx):
    result = exp.figure8(ctx, workloads=SUBSET)
    for cols in result.per_workload.values():
        assert set(cols) == {"static_rc", "shared_coherent", "numa_aware"}
    assert "Figure 8" in result.render()


def test_figure9_driver(ctx):
    result = exp.figure9(ctx, workloads=SUBSET)
    assert all(v >= -0.05 for v in result.per_workload.values())
    assert "Figure 9" in result.render()


def test_figure10_driver(ctx):
    result = exp.figure10(ctx, workloads=SUBSET)
    for cols in result.per_workload.values():
        assert {"baseline", "combined", "hypothetical"} == set(cols)
    assert "Figure 10" in result.render()


def test_figure11_driver(ctx):
    result = exp.figure11(ctx, workloads=SUBSET, socket_counts=(2, 4))
    assert result.mean_speedup(2) > 0
    assert result.efficiency(4) > 0
    assert "Figure 11" in result.render()


def test_switch_time_sensitivity_driver(ctx):
    result = exp.switch_time_sensitivity(
        ctx, workloads=("Lonestar-SP",), switch_times=(10, 500)
    )
    assert set(result.mean_speedup) == {10, 500}
    assert "turn time" in result.render()


def test_writeback_sensitivity_driver(ctx):
    result = exp.writeback_sensitivity(ctx, workloads=("Lonestar-SP",))
    assert result.mean_speedup > 0
    assert "write-back" in result.render()


def test_power_driver(ctx):
    result = exp.power_analysis(ctx, workloads=SUBSET)
    for cols in result.per_workload.values():
        assert cols["baseline_w"] >= 0
        assert cols["numa_aware_w"] >= 0
    assert "pJ/b" in result.render()
