"""Declarative topology specifications and the standard builders.

A :class:`TopologySpec` is a *named node/edge graph*: socket nodes (the
GPU endpoints, in socket-id order), optional router nodes (switches /
package hubs that forward but never originate traffic), and undirected
edges each carrying its own :class:`repro.config.LinkConfig` (lanes,
per-lane bandwidth, per-hop latency, ``min_lanes`` floor).

Specs are frozen dataclasses built from tuples and ``LinkConfig``s only,
so :func:`repro.config.config_fingerprint` canonicalizes them exactly
like every other config field — a topology can never be silently dropped
from a run's content-addressed identity.

Node ids are *indices*: sockets first (node ``i`` is socket ``i``), then
routers in declaration order. Every deterministic tie-break in
:mod:`repro.topology.routing` is phrased in terms of these indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.config import LinkConfig, memoized_builder
from repro.errors import ConfigError


@dataclass(frozen=True)
class EdgeSpec:
    """One undirected edge between two named nodes.

    The edge is a duplex link: the *forward* direction is ``a -> b`` and
    the *reverse* direction ``b -> a``; each starts with
    ``link.lanes_per_direction`` lanes and may be rebalanced at runtime
    by a per-edge :class:`repro.interconnect.balancer.LinkBalancer`.
    """

    a: str
    b: str
    link: LinkConfig = field(default_factory=LinkConfig)

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ConfigError(f"self-loop edge on node {self.a!r}")

    @property
    def name(self) -> str:
        """Stable display name, e.g. ``gpu0-gpu1``."""
        return f"{self.a}-{self.b}"


@dataclass(frozen=True)
class TopologySpec:
    """A validated interconnect graph.

    ``sockets`` are the GPU endpoints in socket-id order; ``routers``
    are pure forwarding nodes. The graph must be connected so every
    socket pair has a route.
    """

    name: str
    kind: str
    sockets: tuple[str, ...]
    routers: tuple[str, ...] = ()
    edges: tuple[EdgeSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in BUILDERS:
            # is_crossbar keys on the kind, so a misspelt "crossbar"
            # would silently lose the crossbar's conventions.
            raise ConfigError(
                f"topology {self.name!r} has unknown kind {self.kind!r}; "
                f"known kinds: {', '.join(BUILDERS)}"
            )
        if not self.sockets:
            raise ConfigError(f"topology {self.name!r} has no socket nodes")
        names = self.sockets + self.routers
        if len(set(names)) != len(names):
            raise ConfigError(f"topology {self.name!r} has duplicate node names")
        if len(self.sockets) >= 2 and not self.edges:
            raise ConfigError(
                f"topology {self.name!r} has {len(self.sockets)} sockets "
                "but no edges"
            )
        known = set(names)
        seen: set[frozenset[str]] = set()
        for edge in self.edges:
            for end in (edge.a, edge.b):
                if end not in known:
                    raise ConfigError(
                        f"topology {self.name!r}: edge {edge.name} references "
                        f"unknown node {end!r}"
                    )
            key = frozenset((edge.a, edge.b))
            if key in seen:
                raise ConfigError(
                    f"topology {self.name!r}: duplicate edge {edge.name}"
                )
            seen.add(key)
        # Connectivity: every node reachable from socket 0 (routers too —
        # an unreachable router is a spec bug even if sockets connect).
        adjacency: dict[str, list[str]] = {node: [] for node in names}
        for edge in self.edges:
            adjacency[edge.a].append(edge.b)
            adjacency[edge.b].append(edge.a)
        reached = {names[0]}
        frontier = [names[0]]
        while frontier:
            node = frontier.pop()
            for peer in adjacency[node]:
                if peer not in reached:
                    reached.add(peer)
                    frontier.append(peer)
        if reached != known:
            missing = sorted(known - reached)
            raise ConfigError(
                f"topology {self.name!r} is disconnected: {missing} "
                "unreachable from the first socket"
            )

    # ------------------------------------------------------------------
    # indexing helpers
    # ------------------------------------------------------------------
    @property
    def n_sockets(self) -> int:
        """Number of GPU endpoints (socket ids 0..n-1)."""
        return len(self.sockets)

    @property
    def nodes(self) -> tuple[str, ...]:
        """All node names: sockets first, then routers."""
        return self.sockets + self.routers

    @property
    def n_nodes(self) -> int:
        """Total node count (sockets + routers)."""
        return len(self.sockets) + len(self.routers)

    def node_index(self, name: str) -> int:
        """Index of one node (socket index == socket id)."""
        try:
            return self.nodes.index(name)
        except ValueError:
            raise ConfigError(
                f"topology {self.name!r} has no node {name!r}"
            ) from None

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-node sorted neighbour indices (deterministic order)."""
        index = {node: i for i, node in enumerate(self.nodes)}
        neighbours: list[set[int]] = [set() for _ in self.nodes]
        for edge in self.edges:
            a, b = index[edge.a], index[edge.b]
            neighbours[a].add(b)
            neighbours[b].add(a)
        return tuple(tuple(sorted(peers)) for peers in neighbours)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _socket_names(n_sockets: int) -> tuple[str, ...]:
    if n_sockets < 2:
        raise ConfigError("a multi-socket topology needs at least two sockets")
    return tuple(f"gpu{i}" for i in range(n_sockets))


def crossbar(n_sockets: int, link: LinkConfig | None = None) -> TopologySpec:
    """The paper's fabric: a non-blocking star (one duplex link per socket).

    Built as a star graph over a central ``xbar`` router: every packet
    crosses its source's link (egress) and its destination's link
    (ingress). :func:`repro.topology.fabric.build_fabric` compiles this
    star for a config with no topology too, so an explicit crossbar is
    *byte-identical* to the default (pinned by the goldens in
    ``tests/golden/hotpath``); see :func:`is_crossbar` for the rules
    that keep it so.
    """
    sockets = _socket_names(n_sockets)
    link = link if link is not None else LinkConfig()
    return TopologySpec(
        name=f"crossbar{n_sockets}",
        kind="crossbar",
        sockets=sockets,
        routers=("xbar",),
        edges=tuple(EdgeSpec(s, "xbar", link) for s in sockets),
    )


def is_crossbar(topology: TopologySpec | None) -> bool:
    """True for the paper's default fabric: no topology, or a crossbar.

    The crossbar runs through the same routed fabric as every other
    topology, as a star around ``xbar``. Four facts keep its results
    byte-identical to the paper baseline (``tests/golden/hotpath``, the
    benchmark's reference digests), and all of them key on this
    predicate:

    (a) its edges are labelled ``link<i>`` (socket ``i``'s link), so
        balancer timelines and lane-turn trace names are per socket link;
    (b) its ``distance_model()`` is :meth:`DistanceModel.identity` —
        one uniform hop between distinct sockets, not the star's two
        hops, because distance-aware policies scale with absolute hops;
    (c) ``RunResult.edges`` and ``hop_histogram`` stay empty: socket
        links are already reported as per-socket egress/ingress;
    (d) its per-edge links must be uniform (the identity model assumes
        one bandwidth), and each hop pays half the link latency, so a
        packet pays one full link latency across its two hops.
    """
    return topology is None or topology.kind == "crossbar"


def ring(n_sockets: int, link: LinkConfig | None = None) -> TopologySpec:
    """A bidirectional ring: socket ``i`` connects to ``(i + 1) % n``.

    A 2-socket ring degenerates to a single edge (parallel edges are not
    modelled).
    """
    sockets = _socket_names(n_sockets)
    link = link if link is not None else LinkConfig()
    edges = [
        EdgeSpec(sockets[i], sockets[(i + 1) % n_sockets], link)
        for i in range(n_sockets if n_sockets > 2 else 1)
    ]
    return TopologySpec(
        name=f"ring{n_sockets}",
        kind="ring",
        sockets=sockets,
        edges=tuple(edges),
    )


def mesh_dims(n_sockets: int) -> tuple[int, int]:
    """Near-square ``rows x cols`` factorization for :func:`mesh2d`.

    Picks the factor pair with the smallest aspect ratio (rows <= cols),
    e.g. 8 -> (2, 4), 16 -> (4, 4). Primes fall back to a 1 x n chain.
    """
    if n_sockets < 2:
        raise ConfigError("a mesh needs at least two sockets")
    best = (1, n_sockets)
    for rows in range(2, int(n_sockets**0.5) + 1):
        if n_sockets % rows == 0:
            best = (rows, n_sockets // rows)
    return best


def mesh2d(
    rows: int,
    cols: int,
    link: LinkConfig | None = None,
    edge_taper: float = 1.0,
) -> TopologySpec:
    """A 2-D mesh: socket ``r * cols + c`` links right and down.

    ``edge_taper`` scales the lane count of *perimeter* edges (edges
    running along the mesh boundary, where bisection traffic never
    concentrates) — the classic tapered-mesh provisioning that spends
    lanes where the canonical cut needs them. ``1.0`` (default) keeps
    the historical uniform mesh; tapered lanes are floored at the
    link's ``min_lanes`` so the Section 4 balancer invariant holds on
    every edge. The spec layer has always supported heterogeneous
    per-edge links; this makes the standard builder emit them.
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ConfigError(f"mesh2d needs >= 2 sockets, got {rows}x{cols}")
    if edge_taper <= 0:
        raise ConfigError(f"edge_taper must be positive, got {edge_taper}")
    sockets = _socket_names(rows * cols)
    link = link if link is not None else LinkConfig()
    if edge_taper == 1.0:
        tapered = link
    else:
        tapered = replace(
            link,
            lanes_per_direction=max(
                link.min_lanes,
                1,
                round(link.lanes_per_direction * edge_taper),
            ),
        )

    def on_boundary_row(r: int) -> bool:
        return r == 0 or r == rows - 1

    def on_boundary_col(c: int) -> bool:
        return c == 0 or c == cols - 1

    edges = []
    for r in range(rows):
        for c in range(cols):
            here = sockets[r * cols + c]
            if c + 1 < cols:
                # Horizontal edge: perimeter when it runs along the top
                # or bottom row.
                horizontal = tapered if on_boundary_row(r) else link
                edges.append(
                    EdgeSpec(here, sockets[r * cols + c + 1], horizontal)
                )
            if r + 1 < rows:
                # Vertical edge: perimeter when it runs along the left
                # or right column.
                vertical = tapered if on_boundary_col(c) else link
                edges.append(
                    EdgeSpec(here, sockets[(r + 1) * cols + c], vertical)
                )
    return TopologySpec(
        name=f"mesh{rows}x{cols}" + (
            f"-t{edge_taper:g}" if edge_taper != 1.0 else ""
        ),
        kind="mesh2d",
        sockets=sockets,
        edges=tuple(edges),
    )


def fully_connected(
    n_sockets: int, link: LinkConfig | None = None
) -> TopologySpec:
    """All-to-all point-to-point links (every route is one hop)."""
    sockets = _socket_names(n_sockets)
    link = link if link is not None else LinkConfig()
    edges = [
        EdgeSpec(sockets[i], sockets[j], link)
        for i in range(n_sockets)
        for j in range(i + 1, n_sockets)
    ]
    return TopologySpec(
        name=f"fully_connected{n_sockets}",
        kind="fully_connected",
        sockets=sockets,
        edges=tuple(edges),
    )


def switch_tree(
    n_sockets: int,
    n_packages: int | None = None,
    link: LinkConfig | None = None,
    trunk: LinkConfig | None = None,
) -> TopologySpec:
    """Two-level chiplet-style hierarchy: packages under a shared trunk.

    Sockets split round-robin-contiguously into ``n_packages`` groups,
    each group attached to a package switch by a *fast* intra-package
    ``link``; the package switches attach to a ``root`` switch by the
    *slow* inter-package ``trunk`` (default: the intra-package link with
    4x the latency — the chiplet-NUMA shape where crossing the package
    boundary is the expensive hop).
    """
    sockets = _socket_names(n_sockets)
    if n_packages is None:
        n_packages = 2 if n_sockets <= 8 else 4
    if n_packages < 2:
        raise ConfigError("switch_tree needs at least two packages")
    if n_packages > n_sockets:
        raise ConfigError(
            f"switch_tree: {n_packages} packages exceed {n_sockets} sockets"
        )
    link = link if link is not None else LinkConfig()
    if trunk is None:
        trunk = replace(link, latency=4 * link.latency)
    packages = tuple(f"pkg{p}" for p in range(n_packages))
    edges = []
    per_package = (n_sockets + n_packages - 1) // n_packages
    for i, socket in enumerate(sockets):
        edges.append(EdgeSpec(socket, packages[i // per_package], link))
    for package in packages:
        edges.append(EdgeSpec(package, "root", trunk))
    return TopologySpec(
        name=f"switch_tree{n_sockets}x{n_packages}",
        kind="switch_tree",
        sockets=sockets,
        routers=packages + ("root",),
        edges=tuple(edges),
    )


def _mesh_for(
    n_sockets: int,
    link: LinkConfig | None = None,
    edge_taper: float = 1.0,
) -> TopologySpec:
    rows, cols = mesh_dims(n_sockets)
    return mesh2d(rows, cols, link, edge_taper=edge_taper)


#: kind -> builder taking ``(n_sockets, link)``; the registry behind
#: ``build_topology`` and the ``repro topology`` CLI.
BUILDERS: dict[str, object] = {
    "crossbar": crossbar,
    "ring": ring,
    "mesh2d": _mesh_for,
    "fully_connected": fully_connected,
    "switch_tree": switch_tree,
}


@memoized_builder
def build_topology(
    kind: str, n_sockets: int, link: LinkConfig | None = None, **kwargs
) -> TopologySpec:
    """Build a standard topology by kind name (see :data:`BUILDERS`).

    Builder-specific heterogeneity options pass through ``kwargs``:
    ``mesh2d`` takes ``edge_taper`` (perimeter-lane scaling),
    ``switch_tree`` takes ``trunk`` (inter-package LinkConfig override)
    and ``n_packages``. Repeat calls return the same spec (see
    :func:`repro.config.memoized_builder`).
    """
    builder = BUILDERS.get(kind)
    if builder is None:
        raise ConfigError(
            f"unknown topology kind {kind!r}; known: {sorted(BUILDERS)}"
        )
    return builder(n_sockets, link=link, **kwargs)  # type: ignore[operator]
