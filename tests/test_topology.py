"""Topology subsystem: specs, routing determinism, fabrics, integration.

Covers the three routing-determinism properties the subsystem pins:

* the ``crossbar`` topology reproduces ``tests/golden/hotpath``
  byte-for-byte (an explicit crossbar spec is indistinguishable from the
  default fabric),
* route tables are stable under node-id permutations modulo relabeling
  (hop counts conjugate exactly; chosen paths stay valid shortest
  paths), and rebuilding the same spec yields identical tables,
* multi-hop ``send_bytes`` preserves exact ``(time, seq)`` event order
  under mid-transfer ``set_rate`` lane turns (quotes are fixed at
  admission; turns only affect later admissions).
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import LinkConfig, LinkPolicy, scaled_config, single_gpu_config
from repro.config import config_fingerprint
from repro.core.builder import run_workload_on
from repro.errors import ConfigError, InterconnectError
from repro.harness.equivalence import canonical_result_json, equivalence_cases
from repro.harness.runner import ExperimentContext
from repro.interconnect.link import Direction
from repro.locality.distance import DistanceModel
from repro.metrics.export import result_from_json_dict, result_to_json_dict
from repro.sim.engine import Engine
from repro.topology import (
    EdgeSpec,
    MultiHopFabric,
    TopologySpec,
    bisection_cut,
    build_fabric,
    build_topology,
    compute_routes,
    crossbar,
    fully_connected,
    mesh2d,
    mesh_dims,
    ring,
    switch_tree,
)
from repro.topology.routing import bisection_bandwidth
from repro.workloads.spec import SCALES
from repro.workloads.suite import get_workload

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "hotpath"


# ---------------------------------------------------------------------------
# spec validation and builders
# ---------------------------------------------------------------------------

def test_edge_rejects_self_loop():
    with pytest.raises(ConfigError):
        EdgeSpec("gpu0", "gpu0")


def test_spec_rejects_duplicate_nodes_and_edges():
    with pytest.raises(ConfigError, match="duplicate node"):
        TopologySpec("t", "ring", ("a", "a"), edges=(EdgeSpec("a", "b"),))
    with pytest.raises(ConfigError, match="duplicate edge"):
        TopologySpec(
            "t", "ring", ("a", "b"),
            edges=(EdgeSpec("a", "b"), EdgeSpec("b", "a")),
        )


def test_spec_rejects_unknown_nodes_and_disconnection():
    with pytest.raises(ConfigError, match="unknown node"):
        TopologySpec("t", "ring", ("a", "b"), edges=(EdgeSpec("a", "c"),))
    with pytest.raises(ConfigError, match="disconnected"):
        TopologySpec(
            "t", "ring", ("a", "b", "c", "d"),
            edges=(EdgeSpec("a", "b"), EdgeSpec("c", "d")),
        )
    with pytest.raises(ConfigError, match="no edges"):
        TopologySpec("t", "ring", ("a", "b"))


def test_builder_shapes():
    assert len(ring(2).edges) == 1  # degenerates: no parallel edges
    assert len(ring(6).edges) == 6
    assert len(fully_connected(5).edges) == 10
    m = mesh2d(2, 4)
    assert m.n_sockets == 8 and len(m.edges) == 2 * 3 + 4
    t = switch_tree(8, 2)
    assert t.routers == ("pkg0", "pkg1", "root")
    assert len(t.edges) == 8 + 2
    x = crossbar(4)
    assert x.routers == ("xbar",) and len(x.edges) == 4
    assert mesh_dims(8) == (2, 4) and mesh_dims(16) == (4, 4)
    assert mesh_dims(7) == (1, 7)  # primes fall back to a chain


def test_switch_tree_trunk_is_slower_by_default():
    t = switch_tree(8, 2)
    leaf = t.edges[0].link
    trunk = t.edges[-1].link
    assert trunk.latency == 4 * leaf.latency


def test_build_topology_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="unknown topology kind"):
        build_topology("hypercube", 4)


def test_spec_rejects_misspelt_kind():
    """A misspelt crossbar must not build as a routed fabric.

    ``is_crossbar`` keys on ``kind``, so an unregistered spelling would
    silently drop the crossbar's golden-identical conventions.
    """
    with pytest.raises(ConfigError, match="unknown kind 'crosbar'.*crossbar"):
        replace(crossbar(2), kind="crosbar")
    with pytest.raises(ConfigError, match="known kinds: crossbar, ring"):
        TopologySpec("t", "hypercube", ("a", "b"), edges=(EdgeSpec("a", "b"),))


def test_topology_changes_config_fingerprint():
    base = scaled_config(n_sockets=4)
    with_ring = replace(base, topology=ring(4, base.link))
    with_mesh = replace(base, topology=mesh2d(2, 2, base.link))
    prints = {
        config_fingerprint(base),
        config_fingerprint(with_ring),
        config_fingerprint(with_mesh),
    }
    assert len(prints) == 3


def test_config_validates_topology_socket_count():
    base = scaled_config(n_sockets=4)
    with pytest.raises(ConfigError, match="sockets"):
        replace(base, topology=ring(8, base.link))


def test_single_gpu_config_drops_topology():
    base = replace(scaled_config(n_sockets=4), topology=ring(4))
    assert single_gpu_config(base).topology is None


# ---------------------------------------------------------------------------
# routing determinism
# ---------------------------------------------------------------------------

def test_routes_ring_hop_counts():
    routes = compute_routes(ring(6))
    assert [routes.hop_count[0][d] for d in range(6)] == [0, 1, 2, 3, 2, 1]
    assert routes.diameter(6) == 3


def test_routes_are_deterministic_across_rebuilds():
    spec = switch_tree(16, 4)
    a = compute_routes(spec)
    b = compute_routes(build_topology("switch_tree", 16))
    assert a.next_hop == b.next_hop
    assert a.hop_count == b.hop_count


def test_route_paths_are_valid_shortest_paths():
    for spec in (ring(5), mesh2d(3, 3), switch_tree(8, 2), fully_connected(4)):
        routes = compute_routes(spec)
        adjacency = spec.adjacency()
        for s in range(spec.n_sockets):
            for d in range(spec.n_sockets):
                if s == d:
                    continue
                path = routes.route(s, d)
                assert path[0] == s and path[-1] == d
                assert len(path) - 1 == routes.hop_count[s][d]
                for u, v in zip(path, path[1:]):
                    assert v in adjacency[u]


def _permuted_ring(perm: list[int], n: int) -> TopologySpec:
    """ring(n) with socket *roles* permuted: perm[i] replaces i."""
    sockets = tuple(f"gpu{i}" for i in range(n))
    edges = tuple(
        EdgeSpec(f"gpu{perm[i]}", f"gpu{perm[(i + 1) % n]}")
        for i in range(n)
    )
    return TopologySpec("permuted_ring", "ring", sockets, edges=edges)


@pytest.mark.parametrize("perm", [
    [3, 0, 5, 1, 4, 2],
    [5, 4, 3, 2, 1, 0],
    [1, 2, 3, 4, 5, 0],
])
def test_route_tables_stable_under_relabeling(perm):
    """Hop counts conjugate exactly under a node-id permutation.

    The chosen next-hop between equal-length alternatives follows node
    ids by construction (the fixed tie-break), so what must be invariant
    modulo relabeling is the *distance structure* — and every chosen
    path must still be a valid shortest path in the relabeled graph
    (checked by test_route_paths_are_valid_shortest_paths logic below).
    """
    n = 6
    base = compute_routes(ring(n))
    permuted_spec = _permuted_ring(perm, n)
    permuted = compute_routes(permuted_spec)
    for s in range(n):
        for d in range(n):
            assert (
                permuted.hop_count[perm[s]][perm[d]] == base.hop_count[s][d]
            )
    adjacency = permuted_spec.adjacency()
    for s in range(n):
        for d in range(n):
            if s == d:
                continue
            path = permuted.route(s, d)
            assert len(path) - 1 == permuted.hop_count[s][d]
            for u, v in zip(path, path[1:]):
                assert v in adjacency[u]


def test_bisection_cut_shapes():
    # Ring: the contiguous half-split crosses exactly two edges.
    assert len(bisection_cut(ring(8))) == 2
    # Mesh rows: the row-major half-split crosses one edge per column.
    assert len(bisection_cut(mesh2d(4, 4))) == 4
    # Two-package tree: only the far package's trunk crosses.
    tree = switch_tree(8, 2)
    cut = bisection_cut(tree)
    assert [tree.edges[e].name for e in cut] == ["pkg1-root"]
    assert bisection_bandwidth(tree) == pytest.approx(
        2 * tree.edges[-1].link.direction_bandwidth
    )


# ---------------------------------------------------------------------------
# golden byte-identity: crossbar spec == default fabric
# ---------------------------------------------------------------------------

#: A representative subset (all four arches would re-run ~13 tiny sims).
_GOLDEN_SUBSET = (
    "Rodinia-Hotspot__mem_side",
    "ML-GoogLeNet-cudnn-Lev2__numa_aware",
    "ML-GoogLeNet-cudnn-Lev2__combined_timelines",
)


@pytest.mark.parametrize("case_name", _GOLDEN_SUBSET)
def test_crossbar_topology_reproduces_goldens_byte_for_byte(case_name):
    case = next(c for c in equivalence_cases() if c.name == case_name)
    spec = crossbar(case.config.n_sockets, case.config.link)
    explicit = replace(case, config=replace(case.config, topology=spec))
    golden = (GOLDEN_DIR / f"{case_name}.json").read_text()
    assert canonical_result_json(explicit) == golden, (
        f"{case_name}: an explicit crossbar topology drifted from the "
        "default-fabric golden"
    )


# ---------------------------------------------------------------------------
# build_fabric: the one fabric-or-none decision
# ---------------------------------------------------------------------------

def test_build_fabric_single_socket_is_none():
    engine = Engine()
    assert build_fabric(scaled_config(n_sockets=1), engine) is None
    assert build_fabric(
        single_gpu_config(scaled_config(n_sockets=4)), engine
    ) is None


def test_build_fabric_default_and_crossbar_are_switch():
    """Default and explicit crossbar both compile the same star."""
    config = scaled_config(n_sockets=4)
    half = replace(config.link, latency=config.link.latency // 2)
    explicit = replace(config, topology=crossbar(4, config.link))
    for fabric in (
        build_fabric(config, Engine()), build_fabric(explicit, Engine())
    ):
        assert fabric.crossbar
        assert fabric.spec == crossbar(4, half)
        # One link per socket, labelled as the socket's link, each
        # carrying half the one link latency.
        assert [e.label for e in fabric.balancer_links] == [
            f"link{s}" for s in range(4)
        ]
        assert all(e.config == half for e in fabric.edges)
        assert fabric.distance_model() == DistanceModel.identity(
            4, config.link.direction_bandwidth
        )


def test_build_fabric_multi_hop_for_other_kinds():
    config = scaled_config(n_sockets=4)
    fabric = build_fabric(
        replace(config, topology=ring(4, config.link)), Engine()
    )
    assert isinstance(fabric, MultiHopFabric)
    assert len(fabric.edges) == 4


def test_build_fabric_rejects_nonuniform_crossbar():
    config = scaled_config(n_sockets=2)
    fat = replace(config.link, lanes_per_direction=16)
    spec = TopologySpec(
        "weird", "crossbar", ("gpu0", "gpu1"), ("xbar",),
        edges=(
            EdgeSpec("gpu0", "xbar", config.link),
            EdgeSpec("gpu1", "xbar", fat),
        ),
    )
    with pytest.raises(ConfigError, match="uniform"):
        build_fabric(replace(config, topology=spec), Engine())


def test_build_fabric_applies_doubled_policy_per_edge():
    config = replace(
        scaled_config(n_sockets=4), link_policy=LinkPolicy.DOUBLED
    )
    fabric = build_fabric(
        replace(config, topology=ring(4, config.link)), Engine()
    )
    for edge in fabric.edges:
        assert edge.config.lane_bandwidth == pytest.approx(
            2 * config.link.lane_bandwidth
        )
    switch = build_fabric(
        replace(config, topology=crossbar(4, config.link)), Engine()
    )
    assert switch.balancer_links[0].config.lane_bandwidth == pytest.approx(
        2 * config.link.lane_bandwidth
    )


# ---------------------------------------------------------------------------
# multi-hop fabric arithmetic
# ---------------------------------------------------------------------------

LINK = LinkConfig(lanes_per_direction=2, lane_bandwidth=4.0, latency=10)


def test_two_hop_transfer_arithmetic_and_stats():
    fabric = MultiHopFabric(ring(4, LINK), Engine())
    # 0 -> 2 must take 2 hops; each hop serializes 64B at 8 B/cyc (8
    # cycles) then pays 10 cycles of latency.
    arrival = fabric.send_bytes(0, 0, 2, 64)
    assert arrival == 2 * (8 + 10)
    assert fabric.total_bytes == 64
    assert fabric.hop_histogram() == {2: 1}
    stats = {e.name: e for e in fabric.edge_stats()}
    # Tie-break: via gpu1 (smallest node id), not gpu3.
    assert stats["gpu0-gpu1"].bytes_ab == 64
    assert stats["gpu1-gpu2"].bytes_ab == 64
    assert stats["gpu3-gpu0"].total_bytes == 0
    assert fabric.send_bytes(0, 3, 0, 64) > 0  # reverse direction works
    assert stats["gpu3-gpu0"].name  # snapshot above is stale by design
    assert {e.name: e for e in fabric.edge_stats()}["gpu3-gpu0"].bytes_ab == 64


def test_fabric_rejects_self_route():
    fabric = MultiHopFabric(ring(4, LINK), Engine())
    with pytest.raises(InterconnectError):
        fabric.send_bytes(0, 1, 1, 64)


def test_queueing_serializes_on_shared_edge():
    fabric = MultiHopFabric(ring(2, LINK), Engine())
    first = fabric.send_bytes(0, 0, 1, 64)
    second = fabric.send_bytes(0, 0, 1, 64)
    assert first == 8 + 10
    assert second == 16 + 10  # queued behind the first on gpu0->gpu1


def test_monitor_port_aggregates_incident_edges():
    fabric = MultiHopFabric(mesh2d(2, 2, LINK), Engine())
    port = fabric.monitor_port(0)
    # Socket 0 of a 2x2 mesh has two incident edges, 8 B/cyc each way.
    assert port.bandwidth(Direction.INGRESS) == pytest.approx(16.0)
    assert port.bandwidth(Direction.EGRESS) == pytest.approx(16.0)


def test_per_edge_balancer_links():
    fabric = MultiHopFabric(mesh2d(2, 2, LINK), Engine())
    assert fabric.balancer_links is fabric.edges
    assert len(fabric.balancer_links) == 4


# ---------------------------------------------------------------------------
# (time, seq) order under mid-transfer lane turns
# ---------------------------------------------------------------------------

def _turn_scenario() -> list[tuple[int, str]]:
    """One fixed scenario: transfers racing a mid-transfer lane turn."""
    engine = Engine()
    fabric = MultiHopFabric(ring(4, LINK), engine)
    log: list[tuple[int, str]] = []

    def arrive(tag: str) -> None:
        log.append((engine.now, tag))

    def send(tag: str, src: int, dst: int, nbytes: int) -> None:
        arrival = fabric.send_bytes(engine.now, src, dst, nbytes)
        engine.schedule_at(arrival, arrive, tag)

    # Saturate gpu0->gpu1, quote a long transfer, then turn a lane away
    # from the quoted direction mid-flight.
    send("a", 0, 1, 640)
    send("b", 0, 2, 640)
    edge01 = fabric.edges[0]
    engine.schedule(5, edge01.turn_lane, Direction.INGRESS, 7)
    engine.schedule(30, send, "c", 0, 1, 640)
    engine.schedule(200, send, "d", 0, 2, 64)
    engine.run()
    return log


def test_multi_hop_order_is_deterministic_under_lane_turns():
    first = _turn_scenario()
    second = _turn_scenario()
    assert first == second
    # Events arrive in nondecreasing time; ties keep schedule order.
    times = [t for t, _ in first]
    assert times == sorted(times)


def test_quote_fixed_at_admission_despite_later_set_rate():
    engine = Engine()
    fabric = MultiHopFabric(ring(2, LINK), engine)
    edge = fabric.edges[0]
    quoted = fabric.send_bytes(0, 0, 1, 640)  # 80 cycles + 10 latency
    assert quoted == 90
    fired: list[int] = []
    engine.schedule_at(quoted, lambda: fired.append(engine.now))
    # Halve the rate while the transfer is in flight: the admitted
    # transfer's completion must not move (FIFO completion is fixed at
    # admission), only later admissions see the new rate.
    engine.schedule(5, edge._res_egress.set_rate, 4.0)
    engine.run()
    assert fired == [90]
    later = fabric.send_bytes(engine.now, 0, 1, 64)
    # The new admission starts at now=90 (the edge drained at 80) and
    # serializes at the *halved* rate: 64B / 4.0 = 16 cycles + latency.
    assert later == 90 + 16 + 10


# ---------------------------------------------------------------------------
# end-to-end integration
# ---------------------------------------------------------------------------

def _tiny_result(topology_kind: str | None, n_sockets: int = 4, **replaces):
    config = scaled_config(n_sockets=n_sockets)
    if topology_kind is not None:
        config = replace(
            config, topology=build_topology(topology_kind, n_sockets, config.link)
        )
    if replaces:
        config = replace(config, **replaces)
    return run_workload_on(
        config, get_workload("Rodinia-BFS"), SCALES["tiny"]
    )


def test_ring_run_exports_edges_and_hops():
    result = _tiny_result("ring")
    assert len(result.edges) == 4
    assert result.hop_histogram
    assert 1.0 <= result.mean_hops <= 2.0
    assert result.config_label.endswith("/ring4")
    assert result.switch_bytes > 0
    # Conservation: every injected byte crosses >= 1 edge, and the total
    # hop crossings recorded per edge match the routed histogram.
    per_edge_bytes = sum(e.total_bytes for e in result.edges)
    assert per_edge_bytes >= result.switch_bytes
    crossings = sum(e.packets_ab + e.packets_ba for e in result.edges)
    routed = sum(h * c for h, c in result.hop_histogram.items())
    assert crossings == routed


def test_dynamic_policy_turns_lanes_per_edge():
    result = _tiny_result(
        "ring", link_policy=LinkPolicy.DYNAMIC,
    )
    assert result.total_lane_turns == sum(
        e.lane_turns for e in result.edges
    )


def test_multi_hop_run_round_trips_through_json():
    result = _tiny_result("switch_tree")
    data = result_to_json_dict(result)
    assert "edges" in data and "hop_histogram" in data
    assert result_from_json_dict(data) == result


def test_crossbar_json_has_no_topology_keys():
    result = _tiny_result(None)
    data = result_to_json_dict(result)
    assert "edges" not in data and "hop_histogram" not in data
    assert result_from_json_dict(data) == result


def test_numa_aware_runs_on_a_mesh():
    from repro.config import CacheArch

    result = _tiny_result(
        "mesh2d", cache_arch=CacheArch.NUMA_AWARE,
        link_policy=LinkPolicy.DYNAMIC,
    )
    assert result.cycles > 0
    assert result.edges


def test_topology_sweep_driver_smoke():
    from repro.harness.experiments import topology_sweep

    ctx = ExperimentContext(scale=SCALES["tiny"])
    sweep = topology_sweep(
        ctx,
        workloads=("Rodinia-BFS",),
        kinds=("ring",),
        socket_counts=(2, 4),
        policies=("locality",),
    )
    assert len(sweep.cells) == 2
    cell = sweep.cell("locality", "ring", 4)
    assert cell.speedup > 0
    assert cell.mean_hops >= 1.0
    assert 0.0 <= cell.bisection_utilization <= 1.0
    assert sweep.per_workload[("locality", "ring", 4)]["Rodinia-BFS"] > 0


def test_ring_system_build_computes_routes_once(monkeypatch):
    """The fabric's routing tables also feed its distance model."""
    from repro.core.builder import build_system
    from repro.topology import fabric as fabric_mod
    from repro.topology import routing as routing_mod

    calls = []

    def counting(spec):
        calls.append(spec.name)
        return compute_routes(spec)

    monkeypatch.setattr(fabric_mod, "compute_routes", counting)
    monkeypatch.setattr(routing_mod, "compute_routes", counting)
    base = scaled_config(n_sockets=4, sms_per_socket=2)
    config = replace(base, topology=build_topology("ring", 4, base.link))
    system = build_system(config)
    assert calls == ["ring4"]
    assert system.distance_model.hops == DistanceModel.from_spec(
        config.topology).hops
