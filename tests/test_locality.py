"""Unit + integration tests for the locality subsystem.

Covers the DistanceModel contract, the placement- and CTA-policy
registries (the paper's policies and the distance-aware ones), the
first-touch-stats vs per-edge-packet agreement on multi-hop fabrics, and
the declarative spec plumbing through SystemConfig.
"""

import pytest

from dataclasses import replace

from repro.config import config_fingerprint, scaled_config
from repro.core.builder import build_system, run_workload_on
from repro.errors import ConfigError
from repro.locality import (
    CTA_KINDS,
    CTA_POLICIES,
    PAGE_POLICIES,
    PLACEMENT_KINDS,
    CtaSpec,
    DistanceModel,
    PlacementSpec,
)
from repro.locality.cta import ContiguousCta, DistanceAffineCta
from repro.memory.page_table import PageTable
from repro.metrics.export import result_from_json_dict, result_to_json_dict
from repro.runtime.kernel import KernelWork
from repro.gpu.cta import MemOp, Slice
from repro.topology.spec import build_topology, mesh2d, switch_tree
from repro.workloads.spec import SCALES
from repro.workloads.suite import get_workload


def locality_config(placement="first_touch", cta="contiguous", kind=None,
                    n_sockets=4, **params):
    base = scaled_config(n_sockets=n_sockets)
    return replace(
        base,
        topology=(
            build_topology(kind, n_sockets, base.link) if kind else None
        ),
        placement_spec=PlacementSpec(kind=placement, **params),
        cta_spec=CtaSpec(kind=cta),
    )


# ---------------------------------------------------------------------------
# DistanceModel
# ---------------------------------------------------------------------------

def test_identity_model_is_distance_free():
    model = DistanceModel.identity(4, bandwidth=32.0)
    for s in range(4):
        for d in range(4):
            assert model.hop(s, d) == (0 if s == d else 1)
            if s != d:
                assert model.bandwidth(s, d) == 32.0
    assert model.mean_hops() == 1.0


def test_ring_model_matches_graph_distance():
    spec = build_topology("ring", 6)
    model = DistanceModel.from_spec(spec)
    assert model.hop(0, 3) == 3  # antipodal
    assert model.hop(0, 5) == 1  # wrap-around
    assert model.hop(2, 2) == 0
    # Uniform links: bottleneck equals the per-direction bandwidth.
    bw = spec.edges[0].link.direction_bandwidth
    assert model.bandwidth(0, 3) == bw


def test_switch_tree_model_sees_trunk_bottleneck():
    link = scaled_config().link
    thin_trunk = replace(link, lanes_per_direction=max(1, link.lanes_per_direction // 2))
    spec = switch_tree(4, n_packages=2, link=link, trunk=thin_trunk)
    model = DistanceModel.from_spec(spec)
    # Intra-package: 2 hops over fat links; inter-package: 4 hops and
    # the trunk's halved bandwidth is the bottleneck.
    assert model.hop(0, 1) == 2
    assert model.hop(0, 2) == 4
    assert model.bandwidth(0, 1) == link.direction_bandwidth
    assert model.bandwidth(0, 2) == thin_trunk.direction_bandwidth


def test_fabric_exposes_distance_model():
    config = replace(
        scaled_config(n_sockets=4),
        topology=build_topology("ring", 4, scaled_config(n_sockets=4).link),
    )
    system = build_system(config)
    model = system.fabric.distance_model()
    assert model.hops == DistanceModel.from_spec(config.topology).hops
    assert system.distance_model.hops == model.hops


def test_crossbar_fabric_model_is_identity():
    system = build_system(scaled_config(n_sockets=4))
    model = system.fabric.distance_model()
    assert model.hops == DistanceModel.identity(4).hops
    assert model.bandwidth(0, 1) > 0


def test_single_socket_system_has_identity_model():
    from repro.config import single_gpu_config

    system = build_system(single_gpu_config(scaled_config()))
    assert system.distance_model.n_sockets == 1


# ---------------------------------------------------------------------------
# registries and specs
# ---------------------------------------------------------------------------

def test_registries_cover_declared_kinds():
    assert set(PAGE_POLICIES) == set(PLACEMENT_KINDS)
    assert set(CTA_POLICIES) == set(CTA_KINDS)
    # Each registry is keyed by its policies' own kind names.
    for registry in (PAGE_POLICIES, CTA_POLICIES):
        for kind, cls in registry.items():
            assert cls.kind == kind


def test_specs_reject_unknown_kinds():
    with pytest.raises(ConfigError):
        PlacementSpec(kind="telepathy")
    with pytest.raises(ConfigError):
        CtaSpec(kind="telepathy")
    with pytest.raises(ConfigError):
        PlacementSpec(touch_window=1)


def test_spec_overrides_enum_in_config():
    # The specs are the config's only policy fields; the default config
    # carries the paper's locality-optimized pair.
    config = locality_config(placement="distance_weighted_first_touch",
                             cta="distance_affine")
    assert config.placement_spec.kind == "distance_weighted_first_touch"
    assert config.cta_spec.kind == "distance_affine"
    default = scaled_config()
    assert default.placement_spec == PlacementSpec(kind="first_touch")
    assert default.cta_spec == CtaSpec(kind="contiguous")
    for gone in ("placement", "cta_policy", "placement_kind", "cta_kind"):
        assert not hasattr(default, gone)


def test_specs_change_config_fingerprint():
    base = scaled_config()
    # Spelling out the default spec names the same system.
    spec = replace(base, placement_spec=PlacementSpec(kind="first_touch"))
    assert config_fingerprint(base) == config_fingerprint(spec)
    tuned = replace(
        base,
        placement_spec=PlacementSpec(kind="first_touch", touch_window=64),
    )
    assert config_fingerprint(spec) != config_fingerprint(tuned)
    other = replace(base, cta_spec=CtaSpec(kind="interleaved"))
    assert config_fingerprint(base) != config_fingerprint(other)


def test_single_gpu_config_drops_locality_specs():
    from repro.config import single_gpu_config

    config = locality_config(placement="access_counter_migration",
                             cta="distance_affine")
    single = single_gpu_config(config)
    assert single.placement_spec == PlacementSpec(kind="local_only")
    assert single.cta_spec == CtaSpec()


# ---------------------------------------------------------------------------
# placement policies
# ---------------------------------------------------------------------------

def test_legacy_placement_facade_unchanged():
    # The page table holds the policy the spec selects and keeps the
    # first-touch behaviour the removed facade had.
    table = PageTable(scaled_config(n_sockets=4))
    policy = table.policy
    assert policy.kind == "first_touch"
    assert table.translate(0, accessor=2)[0] == 2
    assert table.translate(64, accessor=0)[0] == 2
    assert table.migrations == 1
    assert policy.page_home == {0: 2}
    assert table.cacheable and policy.cacheable and policy.claims_pages
    assert not policy.dynamic


def test_new_kind_has_no_enum_view():
    # A distance-aware kind is selected exactly like the paper's kinds.
    table = PageTable(
        locality_config(placement="distance_weighted_first_touch")
    )
    policy = table.policy
    assert type(policy) is PAGE_POLICIES["distance_weighted_first_touch"]
    assert policy.kind == "distance_weighted_first_touch"
    assert policy.dynamic and not policy.cacheable and not table.cacheable


def test_dwft_claims_like_first_touch():
    table = PageTable(locality_config(placement="distance_weighted_first_touch"))
    home, extra = table.translate(0, accessor=3)
    assert home == 3 and extra == table.migration_latency
    home, extra = table.translate(64, accessor=1)  # same page, remote
    assert home == 3 and extra == 0
    assert table.migrations == 1


def test_dwft_re_homes_to_majority_toucher():
    # Identity distances (no fabric attached): the centroid is the touch
    # majority, and the amortization guard needs a clear margin.
    table = PageTable(
        locality_config(
            placement="distance_weighted_first_touch", touch_window=8,
        )
    )
    table.translate(0, accessor=0)  # socket 0 claims the page
    for _ in range(200):
        table.translate(0, accessor=2)
    placement = table.policy
    assert placement.page_home[0] == 2
    assert placement.re_homes == 1
    assert table.re_homed_pages == 1
    # Subsequent touches see the new home with no further charge.
    home, extra = table.translate(0, accessor=2)
    assert home == 2 and extra == 0


def test_dwft_amortization_guard_blocks_marginal_moves():
    table = PageTable(
        locality_config(
            placement="distance_weighted_first_touch", touch_window=2,
        )
    )
    table.translate(0, accessor=0)
    # A handful of remote touches is not worth a page copy.
    for _ in range(6):
        table.translate(0, accessor=2)
    assert table.policy.page_home[0] == 0
    assert table.re_homed_pages == 0


def test_dwft_respects_migration_cap():
    table = PageTable(
        locality_config(
            placement="distance_weighted_first_touch",
            touch_window=4,
            max_migrations_per_page=1,
        )
    )
    table.translate(0, accessor=0)
    for _ in range(200):
        table.translate(0, accessor=2)
    for _ in range(400):
        table.translate(0, accessor=3)
    assert table.re_homed_pages == 1  # capped after the first move
    assert table.policy.page_home[0] == 2


def test_dwft_tolerates_prefetched_pages():
    # UVM prefetch homes pages by writing the page table directly; the
    # policy must lazily start counters for pages it never saw claimed.
    from repro.runtime.uvm import UvmManager

    table = PageTable(
        locality_config(
            placement="distance_weighted_first_touch", touch_window=8,
        )
    )
    uvm = UvmManager(table)
    assert uvm.prefetch(0, table.policy.page_size, socket=1) == 1
    home, extra = table.translate(0, accessor=3)
    assert home == 1 and extra == 0  # pinned, no first-touch charge
    for _ in range(200):
        table.translate(0, accessor=3)
    assert table.policy.page_home[0] == 3  # majority re-home works


def test_access_counter_migration_threshold():
    table = PageTable(
        locality_config(
            placement="access_counter_migration", migration_threshold=4,
        )
    )
    table.translate(0, accessor=1)
    for _ in range(3):
        home, extra = table.translate(0, accessor=2)
        assert home == 1 and extra == 0
    # The fourth remote touch from socket 2 crosses the threshold.
    home, extra = table.translate(0, accessor=2)
    assert home == 2 and extra == table.migration_latency
    assert table.re_homed_pages == 1
    assert table.migrations == 1  # first-touch claims only


def test_acm_local_touches_do_not_count():
    table = PageTable(
        locality_config(
            placement="access_counter_migration", migration_threshold=2,
        )
    )
    table.translate(0, accessor=1)
    for _ in range(50):
        table.translate(0, accessor=1)
    assert table.re_homed_pages == 0


def test_re_home_charges_the_fabric_and_invalidates_caches(monkeypatch):
    config = locality_config(
        placement="access_counter_migration",
        migration_threshold=2,
        kind="ring",
    )
    system = build_system(config)
    table = system.page_table
    fabric = system.fabric
    # A dynamic policy never lets a socket settle a line record or an L1
    # hint, so there is no stale entry to plant: observe that the re-home
    # hands its page to the invalidation instead.
    invalidated = []
    invalidate = PageTable.invalidate_page

    def spy(self, page):
        invalidated.append(page)
        return invalidate(self, page)

    monkeypatch.setattr(PageTable, "invalidate_page", spy)
    before = fabric.n_bytes
    table.translate(0, accessor=1)  # claim at socket 1
    table.translate(0, accessor=2)
    table.translate(0, accessor=2)  # threshold -> migrate to socket 2
    assert table.re_homed_pages == 1
    assert fabric.n_bytes - before == config.page_size
    assert invalidated == [0]  # the moved page's translations are dropped


def test_peek_home_never_touches_counters():
    table = PageTable(
        locality_config(
            placement="access_counter_migration", migration_threshold=2,
        )
    )
    table.translate(0, accessor=1)
    for _ in range(50):
        assert table.peek_home(0, accessor=2) == 1
    assert table.re_homed_pages == 0  # peeks are uncounted


def test_acm_read_shared_pages_stay_put():
    # Two remote readers and zero remote writes: migrating can only
    # bounce the page between the sharers, so the filter pins it.
    table = PageTable(
        locality_config(
            placement="access_counter_migration", migration_threshold=2,
        )
    )
    table.translate(0, accessor=1)  # claim at socket 1
    for _ in range(20):
        assert table.translate(0, accessor=2) == (1, 0)
        assert table.translate(0, accessor=3) == (1, 0)
    assert table.re_homed_pages == 0


def test_acm_remote_write_defeats_read_shared_filter():
    table = PageTable(
        locality_config(
            placement="access_counter_migration", migration_threshold=3,
        )
    )
    table.translate(0, accessor=1)  # claim at socket 1
    table.translate(0, accessor=3)  # second remote sharer registers
    table.translate(0, accessor=2, is_write=True)
    table.translate(0, accessor=2)
    # Third touch from socket 2 crosses the threshold; the recorded
    # remote write proves the page is not read-shared, so it migrates.
    home, extra = table.translate(0, accessor=2)
    assert home == 2 and extra == table.migration_latency
    assert table.re_homed_pages == 1


def test_acm_filter_off_restores_ping_pong():
    table = PageTable(
        locality_config(
            placement="access_counter_migration", migration_threshold=2,
            read_shared_filter=False,
        )
    )
    table.translate(0, accessor=1)  # claim at socket 1
    table.translate(0, accessor=2)
    table.translate(0, accessor=3)
    home, _ = table.translate(0, accessor=2)  # 2nd touch from socket 2
    assert home == 2 and table.re_homed_pages == 1
    table.translate(0, accessor=3)
    home, _ = table.translate(0, accessor=3)  # bounces straight back
    assert home == 3 and table.re_homed_pages == 2


def test_acm_single_reader_migrates_with_filter_on():
    # The filter only suppresses multi-sharer pages; a page dominated by
    # one remote reader migrates exactly as before.
    table = PageTable(
        locality_config(
            placement="access_counter_migration", migration_threshold=2,
        )
    )
    table.translate(0, accessor=1)
    table.translate(0, accessor=2)
    home, _ = table.translate(0, accessor=2)
    assert home == 2 and table.re_homed_pages == 1


def test_dynamic_policy_disables_translation_cache_fill():
    config = locality_config(placement="distance_weighted_first_touch",
                             kind="ring")
    system = build_system(config)
    result = system.run(
        get_workload("Rodinia-BFS").build_kernels(SCALES["tiny"]),
        workload_name="bfs",
    )
    assert result.cycles > 0
    for socket in system.sockets:
        assert socket._lines == {}  # never filled under a dynamic policy


# ---------------------------------------------------------------------------
# CTA policies
# ---------------------------------------------------------------------------

def test_contiguous_and_round_robin_match_legacy_assign():
    assert CTA_POLICIES["contiguous"]().assign(10, range(4)) == [
        [0, 1, 2], [3, 4, 5], [6, 7], [8, 9]
    ]
    assert CTA_POLICIES["interleaved"]().assign(10, range(4)) == [
        [0, 4, 8], [1, 5, 9], [2, 6], [3, 7]
    ]


def test_read_csv_tolerates_pre_locality_columns(tmp_path):
    # CSVs written before the locality layer lack the two new columns;
    # read_csv must default them instead of raising.
    import csv

    from repro.metrics.export import read_csv

    path = tmp_path / "old.csv"
    old_columns = ("workload", "config", "cycles", "n_sockets",
                   "remote_fraction", "l1_hit_rate", "l2_hit_rate",
                   "dram_bytes", "switch_bytes", "lane_turns",
                   "migrations", "kernels")
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=old_columns)
        writer.writeheader()
        writer.writerow({
            "workload": "w", "config": "c", "cycles": 10, "n_sockets": 2,
            "remote_fraction": 0.5, "l1_hit_rate": 0.1, "l2_hit_rate": 0.2,
            "dram_bytes": 1, "switch_bytes": 2, "lane_turns": 0,
            "migrations": 3, "kernels": 1,
        })
    rows = read_csv(path)
    assert rows[0]["re_homed_pages"] == 0
    assert rows[0]["mean_hops"] == 0.0
    assert rows[0]["cycles"] == 10


def _kernel_touching(pages_by_cta, page_size):
    """A kernel whose CTA i touches exactly ``pages_by_cta[i]``."""

    def build(cta):
        ops = tuple(
            MemOp(page * page_size, False) for page in pages_by_cta[cta]
        )
        return [Slice(compute_cycles=1, ops=ops)]

    return KernelWork("affine-test", len(pages_by_cta), build)


def test_distance_affine_co_locates_ctas_with_their_pages():
    config = locality_config(kind="ring", n_sockets=4)
    table = PageTable(config)
    page_size = config.page_size
    # Pages 0,1 at socket 2; pages 2,3 at socket 0.
    table.policy.page_home.update({0: 2, 1: 2, 2: 0, 3: 0})
    policy = DistanceAffineCta(
        table, DistanceModel.from_spec(config.topology)
    )
    kernel = _kernel_touching(
        {0: [2, 3], 1: [0, 1], 2: [2, 3], 3: [0, 1]}, page_size
    )
    blocks = policy.assign(4, list(range(4)), kernel)
    # CTAs 0 and 2 want socket 0; CTAs 1 and 3 want socket 2. Capacity
    # is one CTA per socket, so the runners-up take the 1-hop neighbours.
    assert blocks[0] == [0]
    assert blocks[2] == [1]
    assert set(blocks[1] + blocks[3]) == {2, 3}
    # The balance bound holds regardless of affinity.
    sizes = sorted(len(b) for b in blocks)
    assert sizes[-1] - sizes[0] <= 1


def test_distance_affine_falls_back_to_contiguous_without_homes():
    config = locality_config(kind="ring", n_sockets=4)
    table = PageTable(config)
    policy = DistanceAffineCta(
        table, DistanceModel.from_spec(config.topology)
    )
    kernel = _kernel_touching({i: [i] for i in range(8)}, config.page_size)
    assert policy.assign(8, list(range(4)), kernel) == ContiguousCta().assign(
        8, list(range(4))
    )


def test_launcher_accepts_policy_objects_and_enums():
    from repro.runtime.launcher import Launcher
    from repro.sim.engine import Engine

    policy = ContiguousCta()
    launcher = Launcher(
        engine=Engine(), sockets=[], kernels=[],
        cta_policy=policy, launch_latency=1,
    )
    assert launcher.cta_policy is policy
    # The system builder wires the affine policy to the live page table
    # and the fabric's distance model.
    system = build_system(locality_config(cta="distance_affine",
                                          kind="ring"))
    assert isinstance(system.cta_policy, DistanceAffineCta)
    assert system.cta_policy._page_table is system.page_table
    assert system.cta_policy._distance is system.distance_model


# ---------------------------------------------------------------------------
# first-touch stats vs per-edge packet stats (multi-hop fabrics)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["ring", "mesh2d"])
def test_first_touch_stats_agree_with_edge_stats(kind):
    base = scaled_config(n_sockets=4)
    config = replace(base, topology=build_topology(kind, 4, base.link))
    system = build_system(config)
    kernels = get_workload("Rodinia-BFS").build_kernels(SCALES["tiny"])
    result = system.run(kernels, workload_name="bfs")
    placement = system.page_table.policy

    # Migration accounting: every claimed page is one counted migration,
    # and the per-socket split tiles the claims exactly.
    assert result.migrations == system.page_table.migrations
    assert result.migrations == len(placement.page_home)
    pages_on = [
        sum(1 for home in placement.page_home.values() if home == s)
        for s in range(4)
    ]
    assert sum(pages_on) == result.migrations

    # Local/remote split: the socket counters the run reports are the
    # same totals the placement handed out.
    local = sum(s.local_accesses for s in result.sockets)
    remote = sum(s.remote_accesses for s in result.sockets)
    assert local + remote > 0
    assert result.total_remote_fraction == pytest.approx(
        remote / (local + remote)
    )

    # Per-edge packet conservation: routed hops == per-edge crossings,
    # and the histogram's packet total is the fabric's packet count.
    routed = sum(h * c for h, c in result.hop_histogram.items())
    crossings = sum(e.packets_ab + e.packets_ba for e in result.edges)
    assert routed == crossings
    assert sum(result.hop_histogram.values()) == system.fabric.n_packets


def test_placement_split_is_fabric_independent_for_static_policies():
    base = scaled_config(n_sockets=4)
    ring = replace(base, topology=build_topology("ring", 4, base.link))
    workload = get_workload("Rodinia-Hotspot")
    crossbar_result = run_workload_on(base, workload, SCALES["tiny"])
    ring_result = run_workload_on(ring, workload, SCALES["tiny"])
    # Same CTA assignment + same placement decisions: the split and the
    # migration count cannot depend on the interconnect shape.
    assert crossbar_result.migrations == ring_result.migrations
    assert crossbar_result.total_remote_fraction == pytest.approx(
        ring_result.total_remote_fraction
    )


# ---------------------------------------------------------------------------
# end-to-end runs and serialization
# ---------------------------------------------------------------------------

def test_dynamic_run_surfaces_re_homes_and_round_trips():
    config = locality_config(
        placement="distance_weighted_first_touch",
        cta="distance_affine",
        kind="ring",
        n_sockets=8,
    )
    result = run_workload_on(
        config, get_workload("Rodinia-BFS"), SCALES["tiny"]
    )
    assert result.config_label.startswith(
        "8s/distance_affine/distance_weighted_first_touch/"
    )
    payload = result_to_json_dict(result)
    restored = result_from_json_dict(payload)
    assert restored == result
    if result.re_homed_pages:
        assert payload["re_homed_pages"] == result.re_homed_pages


def test_default_json_omits_re_homes_key():
    result = run_workload_on(
        scaled_config(), get_workload("Rodinia-Hotspot"), SCALES["tiny"]
    )
    payload = result_to_json_dict(result)
    assert "re_homed_pages" not in payload  # goldens stay byte-identical
    assert result_from_json_dict(payload).re_homed_pages == 0


def test_locality_sweep_driver_smoke():
    from repro.harness import experiments as E
    from repro.harness.runner import ExperimentContext

    ctx = ExperimentContext(scale=SCALES["tiny"])
    result = E.locality_sweep(
        ctx,
        workloads=("Rodinia-BFS", "Rodinia-Hotspot"),
        kinds=("ring",),
        socket_counts=(4,),
        policies=(("distance_weighted_first_touch", "distance_affine"),),
    )
    cell = result.cell(
        "distance_weighted_first_touch", "distance_affine", "ring", 4
    )
    assert cell.baseline_mean_hops > 0
    assert cell.speedup > 0
    assert "Locality sweep" in result.render()


# ---------------------------------------------------------------------------
# tapered builders
# ---------------------------------------------------------------------------

def test_mesh2d_edge_taper_thins_perimeter_links():
    spec = mesh2d(3, 3, edge_taper=0.5)
    lanes = {edge.name: edge.link.lanes_per_direction for edge in spec.edges}
    full = scaled_config().link.lanes_per_direction  # default LinkConfig: 8
    # The central cross edges keep full lanes; boundary-run edges taper.
    assert lanes["gpu3-gpu4"] == 8
    assert lanes["gpu4-gpu5"] == 8
    assert lanes["gpu1-gpu4"] == 8
    assert lanes["gpu4-gpu7"] == 8
    assert lanes["gpu0-gpu1"] == 4  # top row
    assert lanes["gpu6-gpu7"] == 4  # bottom row
    assert lanes["gpu0-gpu3"] == 4  # left column
    assert lanes["gpu5-gpu8"] == 4  # right column
    assert spec.name == "mesh3x3-t0.5"
    assert full == 8


def test_mesh2d_taper_default_is_uniform():
    assert mesh2d(3, 3).edges == mesh2d(3, 3, edge_taper=1.0).edges
    with pytest.raises(ConfigError):
        mesh2d(2, 2, edge_taper=0.0)


def test_build_topology_forwards_heterogeneity_kwargs():
    tapered = build_topology("mesh2d", 9, edge_taper=0.5)
    assert tapered.name.endswith("-t0.5")
    link = scaled_config().link
    trunk = replace(link, lanes_per_direction=2)
    tree = build_topology("switch_tree", 4, link, trunk=trunk, n_packages=2)
    trunk_edges = [e for e in tree.edges if e.b == "root"]
    assert trunk_edges and all(
        e.link.lanes_per_direction == 2 for e in trunk_edges
    )
    # Heterogeneous specs are first-class config identity.
    assert config_fingerprint(
        replace(scaled_config(n_sockets=9), topology=tapered)
    ) != config_fingerprint(
        replace(scaled_config(n_sockets=9),
                topology=build_topology("mesh2d", 9))
    )


# ---------------------------------------------------------------------------
# bandwidth-weighted distance costs
# ---------------------------------------------------------------------------


def test_weighted_costs_uniform_fabric_equals_hops():
    # Ring: every edge identical, so the scarcity weight is exactly 1.0
    # and bandwidth-aware policies degrade to their hop-weighted
    # behaviour (this is what keeps the locality goldens stable).
    model = DistanceModel.from_spec(build_topology("ring", 6))
    assert model.weighted_costs() == tuple(
        tuple(float(h) for h in row) for row in model.hops
    )


def test_weighted_costs_scale_by_bottleneck_scarcity():
    inf = float("inf")
    model = DistanceModel(
        hops=((0, 2, 1), (2, 0, 3), (1, 3, 0)),
        min_bandwidth=((inf, 32.0, 8.0), (32.0, inf, 8.0), (8.0, 8.0, inf)),
    )
    costs = model.weighted_costs()
    # Full-width route: weight 1.0; quarter-width route: weight 4.0.
    assert costs[0][1] == 2.0
    assert costs[0][2] == 4.0
    assert costs[1][2] == 12.0
    assert all(costs[s][s] == 0.0 for s in range(3))


def test_weighted_costs_degenerate_model_falls_back_to_hops():
    # identity() built without a bandwidth scale has nothing to weigh.
    model = DistanceModel.identity(4)
    assert model.weighted_costs() == tuple(
        tuple(float(h) for h in row) for row in model.hops
    )


def test_distance_affine_prefers_bandwidth_over_raw_hops():
    # Socket 1 is 2 full-width hops from the pages' home; socket 2 is
    # 1 hop away but through a quarter-width trunk (cost 4.0 > 2.0).
    # A hop-only policy would pick socket 2; the bandwidth-weighted one
    # must pick socket 1.
    inf = float("inf")
    model = DistanceModel(
        hops=((0, 2, 1), (2, 0, 3), (1, 3, 0)),
        min_bandwidth=((inf, 32.0, 8.0), (32.0, inf, 8.0), (8.0, 8.0, inf)),
    )
    config = locality_config(n_sockets=2)
    table = PageTable(config)
    table.policy.page_home.update({0: 0, 1: 0})
    policy = DistanceAffineCta(table, model)
    kernel = _kernel_touching(
        {cta: [0, 1] for cta in range(3)}, config.page_size
    )
    blocks = policy.assign(3, list(range(3)), kernel)
    # CTA 0 takes the home socket; CTA 1 takes the far-but-wide socket 1
    # (weighted cost 2.0/page) over the near-but-thin socket 2 (4.0).
    assert blocks == [[0], [1], [2]]


def test_distance_affine_on_thin_trunk_switch_tree():
    # End to end through from_spec: a switch_tree with a half-width
    # trunk yields asymmetric weighted costs between packages.
    link = scaled_config(n_sockets=4).link
    trunk = replace(link, lanes_per_direction=max(
        1, link.lanes_per_direction // 2
    ))
    spec = build_topology("switch_tree", 4, link, trunk=trunk, n_packages=2)
    model = DistanceModel.from_spec(spec)
    costs = model.weighted_costs()
    # Intra-package routes keep weight 1.0 (full-width edges only);
    # cross-package routes cross the thin trunk and cost extra per hop.
    assert costs[0][1] == float(model.hops[0][1])
    assert costs[0][2] > float(model.hops[0][2])


# ---------------------------------------------------------------------------
# registry catalogue: these literals are the policy-registry contract
# ---------------------------------------------------------------------------


def test_placement_registry_catalogue_is_exactly_the_known_kinds():
    assert set(PAGE_POLICIES) == {
        "fine_interleave", "page_interleave", "first_touch", "local_only",
        "distance_weighted_first_touch", "access_counter_migration",
    }


def test_cta_registry_catalogue_is_exactly_the_known_kinds():
    assert set(CTA_POLICIES) == {
        "contiguous", "interleaved", "distance_affine",
    }


@pytest.mark.parametrize("kind", sorted(PAGE_POLICIES))
def test_every_placement_policy_is_documented(kind):
    assert PAGE_POLICIES[kind].__doc__, kind


@pytest.mark.parametrize("kind", sorted(CTA_POLICIES))
def test_every_cta_policy_is_documented(kind):
    assert CTA_POLICIES[kind].__doc__, kind
