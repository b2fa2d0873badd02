"""CTA-assignment policy registry (Section 3's scheduling axis).

Each policy partitions a kernel's CTA indices into per-socket blocks
behind a uniform protocol; the system builds the one policy a config's
``cta_spec`` selects (:func:`build_cta_policy`) and hands it to the
:class:`~repro.runtime.launcher.Launcher`. The paper's two Section 3
policies:

* ``contiguous`` — balanced contiguous blocks, one per socket (the
  locality-optimized runtime: neighbouring CTAs share a socket, so
  first-touch placement captures their shared pages);
* ``interleaved`` — modulo assignment, the fine-grained single-GPU
  policy.

Beyond the paper:

* ``distance_affine`` — affinity-aware assignment: each CTA is placed
  on the socket minimizing the distance-weighted cost of reaching the
  pages it touches — hop counts scaled by bottleneck-bandwidth scarcity
  (:meth:`~repro.locality.distance.DistanceModel.weighted_costs`), so
  a route through a thin switch-tree trunk costs proportionally more
  than the same hops over full-width edges — subject to the same
  one-CTA balance bound the static policies keep. Page touch profiles come from the materialized CTA
  slice streams (the same plan-capture traces the harness pre-builds
  before every run, so profiling a CTA is a dictionary walk, not a
  re-generation), homes from the live first-touch table, and distances
  from the fabric's :class:`~repro.locality.distance.DistanceModel`.
  Kernels launched before any page is homed (the first kernel of a
  first-touch run) fall back to ``contiguous``, which is exactly the
  assignment that seeds first-touch locality. On the crossbar's
  identity model every remote socket costs the same, so the policy
  keeps each CTA wherever most of its claimed pages already live.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import RuntimeLaunchError
from repro.locality.distance import DistanceModel
from repro.locality.spec import CtaSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import SystemConfig
    from repro.memory.page_table import PageTable
    from repro.runtime.kernel import KernelWork


def _validate(n_ctas: int, n_sockets: int) -> None:
    if n_ctas < 1:
        raise RuntimeLaunchError("cannot assign zero CTAs")
    if n_sockets < 1:
        raise RuntimeLaunchError("need at least one socket")


def _socket_id(socket) -> int:
    """Socket id of one ``sockets`` entry (GpuSocket or plain int)."""
    return getattr(socket, "socket_id", socket)


class CtaAssignmentPolicy:
    """Base protocol: split CTA indices into per-socket blocks.

    ``sockets`` is the launcher's socket list (:class:`GpuSocket`
    objects, or plain ints in unit tests); ``kernel`` is the launching
    :class:`~repro.runtime.kernel.KernelWork`, which only the
    affinity-aware policies consult. All policies keep per-socket CTA
    counts within one of each other, so performance differences between
    them are purely locality.
    """

    kind = ""

    def assign(self, n_ctas: int, sockets, kernel=None) -> list[list[int]]:
        """Blocks of CTA indices, one list per entry of ``sockets``."""
        raise NotImplementedError


class ContiguousCta(CtaAssignmentPolicy):
    """Balanced contiguous blocks; earlier sockets take the remainder."""

    kind = "contiguous"

    def assign(self, n_ctas: int, sockets, kernel=None) -> list[list[int]]:
        n_sockets = len(sockets)
        _validate(n_ctas, n_sockets)
        if n_sockets == 1:
            return [list(range(n_ctas))]
        base, extra = divmod(n_ctas, n_sockets)
        blocks: list[list[int]] = []
        start = 0
        for s in range(n_sockets):
            size = base + (1 if s < extra else 0)
            blocks.append(list(range(start, start + size)))
            start += size
        return blocks


class RoundRobinCta(CtaAssignmentPolicy):
    """Modulo assignment (CTA i to socket i % N)."""

    kind = "interleaved"

    def assign(self, n_ctas: int, sockets, kernel=None) -> list[list[int]]:
        n_sockets = len(sockets)
        _validate(n_ctas, n_sockets)
        if n_sockets == 1:
            return [list(range(n_ctas))]
        return [list(range(s, n_ctas, n_sockets)) for s in range(n_sockets)]


class DistanceAffineCta(CtaAssignmentPolicy):
    """Co-locate CTA blocks with the pages they touch."""

    kind = "distance_affine"

    def __init__(self, page_table: "PageTable",
                 distance: DistanceModel) -> None:
        self._page_table = page_table
        self._distance = distance
        self._fallback = ContiguousCta()

    def assign(self, n_ctas: int, sockets, kernel=None) -> list[list[int]]:
        n_sockets = len(sockets)
        _validate(n_ctas, n_sockets)
        if n_sockets == 1:
            return [list(range(n_ctas))]
        placement = self._page_table.policy
        if (
            kernel is None
            or not placement.claims_pages
            or not placement.page_home
        ):
            # No affinity signal yet (first kernel of a first-touch run,
            # or an arithmetic placement): contiguous seeds locality.
            return self._fallback.assign(n_ctas, sockets, kernel)
        get_home = placement.page_home.get
        page_size = placement.page_size
        # Bandwidth-weighted hop costs: on uniform fabrics this IS the
        # hop matrix; on asymmetric ones (switch-tree trunk) routes
        # through thin links cost proportionally more.
        costs = self._distance.weighted_costs()
        base, extra = divmod(n_ctas, n_sockets)
        caps = [base + (1 if s < extra else 0) for s in range(n_sockets)]
        socket_ids = [_socket_id(s) for s in sockets]
        blocks: list[list[int]] = [[] for _ in range(n_sockets)]
        build = kernel.build_cta
        for cta in range(n_ctas):
            # Touch profile: claimed-page touch counts by home socket.
            counts: dict[int, int] = {}
            for piece in build(cta):
                for op in piece.ops:
                    home = get_home(op.addr // page_size)
                    if home is not None:
                        counts[home] = counts.get(home, 0) + 1
            items = counts.items()
            best = -1
            best_cost = None
            for s in range(n_sockets):
                if len(blocks[s]) >= caps[s]:
                    continue
                row = costs[socket_ids[s]]
                cost = sum(c * row[h] for h, c in items)
                # Strict < keeps the smallest-index socket on ties.
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best = s
            blocks[best].append(cta)
        return blocks


#: kind -> policy class; the registry behind ``build_cta_policy`` and
#: the ``repro run --cta-policy`` CLI choices.
CTA_POLICIES: dict[str, type[CtaAssignmentPolicy]] = {
    cls.kind: cls for cls in (ContiguousCta, RoundRobinCta, DistanceAffineCta)
}


def build_cta_policy(
    config: "SystemConfig",
    page_table: "PageTable",
    distance: DistanceModel,
) -> CtaAssignmentPolicy:
    """Instantiate the policy ``config.cta_spec`` selects.

    ``page_table`` and ``distance`` are required so ``distance_affine``
    is always wired: an unwired affine policy would silently degrade to
    ``contiguous`` through its no-signal fallback. ``CtaSpec`` has
    already rejected unknown kinds.
    """
    cls = CTA_POLICIES[config.cta_spec.kind]
    if cls is DistanceAffineCta:
        return DistanceAffineCta(page_table, distance)
    return cls()


__all__ = [
    "CTA_POLICIES",
    "ContiguousCta",
    "CtaAssignmentPolicy",
    "CtaSpec",
    "DistanceAffineCta",
    "RoundRobinCta",
    "build_cta_policy",
]
