"""Integration tests: the paper's qualitative results on micro workloads.

These use small synthetic workloads (not the full suite) so the whole file
runs in seconds while still exercising every subsystem together.
"""

import pytest

from dataclasses import replace

from repro.config import (
    CacheArch,
    LinkPolicy,
    hypothetical_config,
    scaled_config,
    single_gpu_config,
)
from repro.core.builder import build_system, run_workload_on
from repro.locality import CtaSpec, PlacementSpec
from repro.workloads.spec import TINY
from repro.workloads.synthetic import make_workload


def base_config(**overrides):
    cfg = scaled_config(n_sockets=4, sms_per_socket=2)
    return replace(cfg, **overrides) if overrides else cfg


def micro(pattern, **kwargs):
    defaults = dict(
        n_ctas=64,
        slices_per_cta=4,
        ops_per_slice=8,
        compute_per_slice=20,
        iterations=1,
    )
    defaults.update(kwargs)
    return make_workload(f"micro-{pattern}", pattern=pattern, **defaults)


def cycles(config, workload):
    return run_workload_on(config, workload, TINY).cycles


# ---------------------------------------------------------------------------
# Section 3: locality-optimized runtime
# ---------------------------------------------------------------------------

def test_locality_runtime_beats_traditional_on_private_workload():
    wl = micro("stream")
    locality = cycles(base_config(), wl)
    traditional = cycles(
        base_config(
            cta_spec=CtaSpec(kind="interleaved"),
            placement_spec=PlacementSpec(kind="fine_interleave"),
        ),
        wl,
    )
    assert locality < traditional * 0.7


def test_first_touch_keeps_private_data_local():
    wl = micro("stream")
    result = run_workload_on(base_config(), wl, TINY)
    assert result.total_remote_fraction < 0.1


def test_fine_interleave_makes_three_quarters_remote():
    wl = micro("stream")
    cfg = base_config(placement_spec=PlacementSpec(kind="fine_interleave"))
    result = run_workload_on(cfg, wl, TINY)
    assert result.total_remote_fraction == pytest.approx(0.75, abs=0.05)


def test_random_workload_is_mostly_remote_even_with_first_touch():
    wl = micro("random")
    result = run_workload_on(base_config(), wl, TINY)
    assert result.total_remote_fraction > 0.5


def test_migrations_only_under_first_touch():
    wl = micro("stream")
    with_ft = run_workload_on(base_config(), wl, TINY)
    assert with_ft.migrations > 0
    interleaved = run_workload_on(
        base_config(placement_spec=PlacementSpec(kind="page_interleave")),
        wl,
        TINY,
    )
    assert interleaved.migrations == 0


# ---------------------------------------------------------------------------
# scaling (Figures 3, 10, 11 shape)
# ---------------------------------------------------------------------------

def test_numa_gpu_beats_single_gpu_on_local_friendly_workload():
    wl = micro("stream", n_ctas=96)
    single = cycles(single_gpu_config(base_config()), wl)
    numa = cycles(base_config(), wl)
    assert numa < single


def test_hypothetical_gpu_is_upper_bound():
    wl = micro("stream", n_ctas=96)
    numa = cycles(base_config(), wl)
    hypo = cycles(hypothetical_config(base_config(), 4), wl)
    assert hypo <= numa


def test_more_sockets_never_slower_for_scalable_workload():
    wl = micro("reuse", n_ctas=128, compute_per_slice=60)
    times = {
        k: cycles(scaled_config(n_sockets=k, sms_per_socket=2), wl)
        for k in (1, 2, 4)
    }
    assert times[2] < times[1]
    assert times[4] < times[2]


# ---------------------------------------------------------------------------
# Section 4: dynamic link balancing
# ---------------------------------------------------------------------------

def test_dynamic_links_help_asymmetric_reduction_traffic():
    wl = micro("reduction", n_ctas=96, slices_per_cta=6, init_shared=True,
               compute_per_slice=5)
    static = cycles(base_config(), wl)
    dynamic = cycles(base_config(link_policy=LinkPolicy.DYNAMIC), wl)
    assert dynamic < static * 0.95


def test_dynamic_links_turn_lanes():
    wl = micro("reduction", n_ctas=96, init_shared=True, compute_per_slice=5)
    result = run_workload_on(
        base_config(link_policy=LinkPolicy.DYNAMIC), wl, TINY
    )
    assert result.total_lane_turns > 0


def test_static_links_never_turn_lanes():
    wl = micro("reduction", n_ctas=96, init_shared=True)
    result = run_workload_on(base_config(), wl, TINY)
    assert result.total_lane_turns == 0


def test_doubled_bandwidth_is_at_least_as_good_as_dynamic():
    wl = micro("reduction", n_ctas=96, init_shared=True, compute_per_slice=5)
    dynamic = cycles(base_config(link_policy=LinkPolicy.DYNAMIC), wl)
    doubled = cycles(base_config(link_policy=LinkPolicy.DOUBLED), wl)
    assert doubled <= dynamic


# ---------------------------------------------------------------------------
# Section 5: NUMA-aware caching
# ---------------------------------------------------------------------------

def test_gpu_side_caching_helps_broadcast_workload():
    wl = micro("broadcast", n_ctas=96, shared_access_fraction=0.8,
               compute_per_slice=5, slices_per_cta=6)
    mem_side = cycles(base_config(), wl)
    numa_aware = cycles(base_config(cache_arch=CacheArch.NUMA_AWARE), wl)
    assert numa_aware < mem_side * 0.9


def test_remote_lines_cached_only_in_gpu_side_archs():
    wl = micro("broadcast", n_ctas=64, shared_access_fraction=0.8)
    mem_side = run_workload_on(base_config(), wl, TINY)
    cached = run_workload_on(
        base_config(cache_arch=CacheArch.SHARED_COHERENT), wl, TINY
    )
    mem_side_requests = sum(s.remote_read_requests for s in mem_side.sockets)
    cached_requests = sum(s.remote_read_requests for s in cached.sockets)
    assert cached_requests < mem_side_requests


def test_coherence_invalidations_cost_performance():
    wl = micro("broadcast", n_ctas=64, iterations=3,
               shared_access_fraction=0.8, compute_per_slice=5)
    cfg = base_config(cache_arch=CacheArch.NUMA_AWARE)
    with_inval = cycles(cfg, wl)
    without = cycles(replace(cfg, coherence_invalidations=False), wl)
    assert without <= with_inval


def test_write_back_beats_write_through_on_remote_writes():
    from repro.config import WritePolicy

    wl = micro("reduction", n_ctas=96, init_shared=True, compute_per_slice=5)
    cfg = base_config(cache_arch=CacheArch.NUMA_AWARE)
    wb = cycles(cfg, wl)
    wt = cycles(replace(cfg, l2_write_policy=WritePolicy.WRITE_THROUGH), wl)
    assert wb < wt


# ---------------------------------------------------------------------------
# determinism and bookkeeping
# ---------------------------------------------------------------------------

def test_runs_are_deterministic():
    wl = micro("random", n_ctas=48)
    a = run_workload_on(base_config(), wl, TINY)
    b = run_workload_on(base_config(), wl, TINY)
    assert a.cycles == b.cycles
    assert a.switch_bytes == b.switch_bytes
    assert a.total_dram_bytes == b.total_dram_bytes


def test_engine_drains_completely():
    wl = micro("stream", n_ctas=32)
    system = build_system(base_config())
    system.run(wl.build_kernels(TINY), "drain")
    assert system.engine.pending_events == 0


def test_single_socket_system_has_no_switch_traffic():
    wl = micro("random", n_ctas=32)
    result = run_workload_on(single_gpu_config(base_config()), wl, TINY)
    assert result.switch_bytes == 0
    assert result.total_remote_fraction == 0.0
