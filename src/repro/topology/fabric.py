"""The fabric: topology edges, hop programs, and build_fabric.

:class:`MultiHopFabric` is the one inter-socket fabric. It routes over an
arbitrary :class:`~repro.topology.spec.TopologySpec`; the paper's
non-blocking crossbar is the star :func:`~repro.topology.spec.crossbar`
compiled by :func:`build_fabric`. Each edge is
an :class:`EdgeLink` — a :class:`~repro.interconnect.link.DuplexLink`
whose *egress* direction is ``a -> b`` (the spec's edge orientation) and
*ingress* is ``b -> a`` — so the Section 4 lane balancer and its
``set_rate`` machinery apply to every edge unchanged, and rebalancing is
naturally **per-edge** rather than per-socket.

Hop programs
------------
Routes are precompiled at construction into a *hop program* per
``(src, dst)`` socket pair: a tuple of flat hop descriptors
``(edge, resource, forward, latency)``, one per edge crossing, resolved
from the deterministic routing tables of :mod:`repro.topology.routing`.
``send_bytes`` unpacks each descriptor and performs the bandwidth
admission inline — no per-hop Python call, route lookup, or tuple
allocation per packet. Prebinding the direction's
:class:`~repro.interconnect.link.BandwidthResource` is safe because
``set_rate`` (lane turns) mutates the resource in place; the resource
objects live for the life of the edge.

Determinism (DESIGN.md, "Topology layer")
-----------------------------------------
All hops of one packet are admitted *at the send event*, each starting at
the previous hop's arrival — the closed-form convention the paper's
crossbar has always used for its two hops (source egress, then
destination ingress). The hop program spans only FIFO bandwidth
admissions and pure latency, never a shared-state op (L2 probes, MSHRs,
and fills remain engine events at their exact cycles), so the fused-path
rule that *no state op moves in time* is preserved. A mid-transfer
``set_rate`` (lane turn) only affects *later* admissions: a
``BandwidthResource`` completion is fixed at admission, so quotes never
change retroactively.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import LinkConfig, SystemConfig
from repro.core.link_policy import effective_edge_link, effective_link_config
from repro.errors import ConfigError, InterconnectError
from repro.interconnect.link import Direction, DuplexLink
from repro.interconnect.packets import PacketKind, packet_bytes
from repro.locality.distance import DistanceModel
from repro.metrics.report import EdgeStats
from repro.sim.engine import Engine
from repro.sim.stats import StatGroup, flatten_slots
from repro.topology.routing import compute_routes
from repro.topology.spec import TopologySpec, crossbar, is_crossbar


class EdgeLink(DuplexLink):
    """One topology edge as a duplex link.

    ``Direction.EGRESS`` carries ``a -> b`` traffic and
    ``Direction.INGRESS`` carries ``b -> a``; ``socket_id`` holds the
    edge index and ``label`` the series/error name (the edge name, or
    ``link<i>`` on the crossbar).
    """

    __slots__ = ("a_idx", "b_idx", "a_name", "b_name")

    def __init__(
        self,
        edge_id: int,
        a_idx: int,
        b_idx: int,
        a_name: str,
        b_name: str,
        config: LinkConfig,
        engine: Engine,
        label: str | None = None,
    ) -> None:
        super().__init__(edge_id, config, engine, label=label)
        self.a_idx = a_idx
        self.b_idx = b_idx
        self.a_name = a_name
        self.b_name = b_name


class _MonitorPort:
    """Aggregate per-socket bandwidth view over the incident edges.

    The cache partition controller estimates incoming inter-GPU pressure
    against the socket's link capacity; on a multi-hop fabric that
    capacity is the sum over the socket's incident edges of the
    direction pointing at (or away from) the socket.
    """

    __slots__ = ("_toward", "_away")

    def __init__(self, fabric: "MultiHopFabric", socket_id: int) -> None:
        self._toward: list[tuple[EdgeLink, Direction]] = []
        self._away: list[tuple[EdgeLink, Direction]] = []
        for edge in fabric.edges:
            if edge.a_idx == socket_id:
                self._away.append((edge, Direction.EGRESS))
                self._toward.append((edge, Direction.INGRESS))
            elif edge.b_idx == socket_id:
                self._away.append((edge, Direction.INGRESS))
                self._toward.append((edge, Direction.EGRESS))

    def bandwidth(self, direction: Direction) -> float:
        """Aggregate bytes/cycle toward (INGRESS) or from (EGRESS) the socket."""
        pairs = self._toward if direction is Direction.INGRESS else self._away
        return sum(edge.bandwidth(d) for edge, d in pairs)


class MultiHopFabric:
    """A routed interconnect over an arbitrary topology graph."""

    __slots__ = (
        "engine",
        "spec",
        "routes",
        "crossbar",
        "edges",
        "owners",
        "_edge_links",
        "_programs",
        "_route_hops",
        "_hop_hist",
        "_incident",
        "_stats",
        "n_packets",
        "n_bytes",
    )

    #: slotted counter -> public stats key (see repro.sim.stats).
    _STAT_FIELDS = (
        ("n_packets", "packets"),
        ("n_bytes", "bytes"),
    )

    def __init__(
        self,
        spec: TopologySpec,
        engine: Engine,
        edge_links: tuple[LinkConfig, ...] | None = None,
    ) -> None:
        if spec.n_sockets < 2:
            raise InterconnectError("a fabric needs at least two sockets")
        self.engine = engine
        self.spec = spec
        self.routes = compute_routes(spec)
        #: the paper's default fabric (see topology.spec.is_crossbar)
        self.crossbar = is_crossbar(spec)
        if edge_links is None:
            edge_links = tuple(edge.link for edge in spec.edges)
        self._edge_links = edge_links
        index = {node: i for i, node in enumerate(spec.nodes)}
        self.edges = [
            EdgeLink(
                e, index[edge.a], index[edge.b], edge.a, edge.b, link, engine,
                label=None if self.crossbar else edge.name,
            )
            for e, (edge, link) in enumerate(zip(spec.edges, edge_links))
        ]
        self.owners: list = [None] * spec.n_sockets
        # Edge lookup by unordered node pair, then per-(src,dst) hop
        # programs: tuples of flat (edge, resource, forward, latency)
        # descriptors, admitted inline by send_bytes.
        by_pair: dict[tuple[int, int], EdgeLink] = {}
        for edge in self.edges:
            by_pair[(edge.a_idx, edge.b_idx)] = edge
            by_pair[(edge.b_idx, edge.a_idx)] = edge
        n = spec.n_sockets
        next_hop = self.routes.next_hop
        programs: list[list[tuple]] = []
        route_hops: list[list[int]] = []
        for src in range(n):
            row: list[tuple] = []
            hops_row: list[int] = []
            for dst in range(n):
                if src == dst:
                    row.append(())
                    hops_row.append(0)
                    continue
                hops = []
                node = src
                while node != dst:
                    peer = next_hop[node][dst]
                    edge = by_pair[(node, peer)]
                    if edge.a_idx == node:
                        hops.append(
                            (edge, edge._res_egress, True, edge.latency)
                        )
                    else:
                        hops.append(
                            (edge, edge._res_ingress, False, edge.latency)
                        )
                    node = peer
                row.append(tuple(hops))
                hops_row.append(len(hops))
            programs.append(row)
            route_hops.append(hops_row)
        self._programs = programs
        self._route_hops = route_hops
        max_hops = max(max(row) for row in route_hops)
        self._hop_hist = [0] * (max_hops + 1)
        self._incident: list[list[tuple[EdgeLink, bool]]] = [
            [] for _ in range(n)
        ]
        for edge in self.edges:
            if edge.a_idx < n:
                self._incident[edge.a_idx].append((edge, True))
            if edge.b_idx < n:
                self._incident[edge.b_idx].append((edge, False))
        self._stats = StatGroup(f"fabric.{spec.name}")
        self.n_packets = 0
        self.n_bytes = 0

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def send(self, now: int, src: int, dst: int, kind: PacketKind) -> int:
        """Route one packet; returns its arrival cycle at ``dst``."""
        return self.send_bytes(now, src, dst, packet_bytes(kind))

    def send_bytes(self, now: int, src: int, dst: int, nbytes: int) -> int:
        """Walk the precompiled hop program; returns the arrival cycle.

        Every hop is admitted here, at the send event, starting at the
        previous hop's arrival (the crossbar's two-hop closed-form
        convention generalized; see the module docstring for why this
        composes with mid-route ``set_rate``). Each hop is the lane check
        and the admission inlined from
        :meth:`repro.sim.resource.BandwidthResource.service` — identical
        arithmetic; packet sizes are fixed positive constants — so a
        route costs one Python frame no matter its hop count. The edge's
        byte/packet counters are views of the resource, so nothing else
        is bumped per hop.
        """
        if src == dst:
            raise InterconnectError(f"fabric asked to route {src} -> {dst}")
        t = now
        for edge, res, forward, latency in self._programs[src][dst]:
            if forward:
                if edge._lanes_egress == 0:
                    edge._raise_emptied(Direction.EGRESS)
            elif edge._lanes_ingress == 0:
                edge._raise_emptied(Direction.INGRESS)
            next_free = res._next_free
            start = t if t > next_free else next_free
            duration = nbytes / res._rate
            next_free = start + duration
            res._next_free = next_free
            res._busy_granted += duration
            res._bytes_total += nbytes
            res._transfers += 1
            whole = int(next_free)
            done = whole if whole == next_free else whole + 1
            t = done + latency
        self.n_packets += 1
        self.n_bytes += nbytes
        self._hop_hist[self._route_hops[src][dst]] += 1
        return t

    # ------------------------------------------------------------------
    # stats / Fabric interface
    # ------------------------------------------------------------------
    @property
    def stats(self) -> StatGroup:
        """Counter view; slotted ints are flattened on every read."""
        return flatten_slots(self, self._STAT_FIELDS, self._stats)

    @property
    def total_bytes(self) -> int:
        """Bytes injected into the fabric (counted once per packet)."""
        return self.n_bytes

    @property
    def balancer_links(self) -> list[EdgeLink]:
        """Every edge; the dynamic policy rebalances lanes per edge."""
        return self.edges

    def monitor_port(self, socket_id: int) -> _MonitorPort:
        """Aggregate bandwidth view of one socket's incident edges."""
        return _MonitorPort(self, socket_id)

    def socket_traffic(self, socket_id: int) -> tuple[int, int, int]:
        """``(egress, ingress, lane_turns)`` summed over incident edges.

        Egress counts bytes *leaving* the socket's node on any incident
        edge (including traffic the node forwards, on topologies where
        sockets route), ingress bytes arriving; lane turns are summed
        over the incident edges, so system-wide totals should use
        :meth:`edge_stats` (each edge touches two nodes).
        """
        egress = ingress = turns = 0
        for edge, is_a in self._incident[socket_id]:
            if is_a:
                egress += edge.n_egress_bytes
                ingress += edge.n_ingress_bytes
            else:
                egress += edge.n_ingress_bytes
                ingress += edge.n_egress_bytes
            turns += edge.n_lane_turns
        return egress, ingress, turns

    def edge_stats(self) -> list[EdgeStats]:
        """Per-edge counters for the metrics layer (RunResult.edges)."""
        return [
            EdgeStats(
                name=edge.label,
                a=edge.a_name,
                b=edge.b_name,
                lanes_ab=edge._lanes_egress,
                lanes_ba=edge._lanes_ingress,
                bytes_ab=edge.n_egress_bytes,
                bytes_ba=edge.n_ingress_bytes,
                packets_ab=edge.n_egress_packets,
                packets_ba=edge.n_ingress_packets,
                lane_turns=edge.n_lane_turns,
            )
            for edge in self.edges
        ]

    def hop_histogram(self) -> dict[int, int]:
        """``{hop count: packets}`` over everything sent so far."""
        return {
            hops: count
            for hops, count in enumerate(self._hop_hist)
            if count
        }

    def distance_model(self) -> DistanceModel:
        """Hop counts and bottleneck bandwidth of the routed topology.

        Derived from the same deterministic routing tables the hop
        programs were compiled from, over the *effective* per-edge links
        (so ``DOUBLED`` provisioning is visible to the locality layer).
        The crossbar is the exception: a non-blocking switch is
        distance-free, so it returns the identity model (one uniform hop
        between distinct sockets at the per-link bandwidth) and the
        distance-aware policies degrade exactly to their distance-blind
        ancestors on the paper's default fabric.
        """
        if self.crossbar:
            return DistanceModel.identity(
                self.spec.n_sockets, self.edges[0].bandwidth(Direction.EGRESS)
            )
        return DistanceModel.from_spec(
            self.spec, self._edge_links, routes=self.routes
        )


def build_fabric(
    config: SystemConfig,
    engine: Engine,
    fabric_type: type[MultiHopFabric] = MultiHopFabric,
):
    """The single fabric-or-none decision for one system config.

    A single-socket system has **no fabric** (``None``): all traffic is
    local by construction. Every multi-socket system gets one
    :class:`MultiHopFabric`:

    * no topology, or a ``crossbar`` spec -> the star of
      :func:`~repro.topology.spec.crossbar`, one edge per socket to
      ``xbar`` carrying the effective link with half its latency. A
      packet is admitted at its source's egress, then at its
      destination's ingress, each followed by half the link latency —
      the paper's crossbar exactly (see
      :func:`~repro.topology.spec.is_crossbar` for the rules that keep
      it byte-identical, pinned by ``tests/golden/hotpath``);
    * any other topology -> its own graph and per-edge links.

    The ``DOUBLED`` link policy scales per-edge lane bandwidth exactly
    as it scaled the per-socket link before
    (:func:`repro.core.link_policy.effective_edge_link`). ``fabric_type``
    is the class built: the traced fabric of :mod:`repro.obs.traced`
    subclasses :class:`MultiHopFabric`.
    """
    if config.n_sockets < 2:
        return None
    topo = config.topology
    if topo is not None and topo.n_sockets != config.n_sockets:
        # defense; SystemConfig validates
        raise ConfigError(
            f"topology {topo.name!r} has {topo.n_sockets} sockets, "
            f"config has {config.n_sockets}"
        )
    if is_crossbar(topo):
        if topo is None:
            link = effective_link_config(config)
        else:
            links = {edge.link for edge in topo.edges}
            if len(links) != 1:
                raise ConfigError(
                    "a crossbar topology needs one uniform per-edge "
                    "LinkConfig (its distance model is the identity over "
                    "one bandwidth, and each of its two hops pays half "
                    "the one link latency)"
                )
            link = effective_edge_link(config, next(iter(links)))
        star = crossbar(config.n_sockets, replace(link, latency=link.latency // 2))
        return fabric_type(star, engine)
    edge_links = tuple(
        effective_edge_link(config, edge.link) for edge in topo.edges
    )
    return fabric_type(topo, engine, edge_links=edge_links)
