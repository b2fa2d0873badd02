"""Page-placement policy registry (Section 3 + the §4 dynamic migration).

Each policy answers *which socket is the home of this address?* behind a
uniform protocol; :class:`repro.memory.page_table.PageTable` holds the
one policy a config's ``placement_spec`` selects. The paper's four
Section 3 policies:

* ``fine_interleave`` — sub-page interleaving (traditional UMA layout);
* ``page_interleave`` — Linux-style round-robin page placement;
* ``first_touch`` — UVM on-demand migration to the first toucher;
* ``local_only`` — everything on socket 0.

Two distance-aware policies go beyond the paper:

* ``distance_weighted_first_touch`` — first touch, plus hop-weighted
  re-homing: every ``touch_window`` touches of a page the policy
  re-evaluates the page's touch-count-weighted hop centroid
  (``argmin_s sum_t count[t] * hops(s, t)``) and re-homes when the
  centroid strictly beats the current home. Ties are resolved by hop
  distance first (that *is* the weighting) and then by smallest socket
  id; on the crossbar's identity distance model every remote socket
  costs the same, so the centroid degenerates to the plain touch
  majority and re-homing away from a majority home never triggers.
* ``access_counter_migration`` — the paper's dynamic-migration
  counterpoint (cf. the Grace Hopper first-touch/migration study,
  arXiv:2407.07850): a page re-homes to a remote socket once that
  socket has touched it ``migration_threshold`` times since the last
  homing, regardless of distance.

Both dynamic policies charge a re-home like a first-touch fault: the
triggering access pays ``migration_latency`` and the page copy is
injected into the fabric as a page-sized transfer from the old home to
the new one (so migrations contend with demand traffic, hop by hop).
Because their homes move, the dynamic policies are **not translation
cacheable** (``cacheable = False``): sockets must consult the page table
on every access so the policy observes the full touch stream — the
per-line caches would otherwise hide exactly the accesses the counters
need. Re-homing also drops any cached line translations via
:meth:`repro.memory.page_table.PageTable.invalidate_page`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.interconnect.packets import DATA_BYTES
from repro.locality.distance import DistanceModel
from repro.locality.spec import PlacementSpec
from repro.sim.stats import StatGroup

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import SystemConfig
    from repro.memory.page_table import PageTable


class PagePolicy:
    """Base protocol of one page-placement policy.

    Class attributes describe the policy's contract with the memory
    system:

    * ``cacheable`` — sockets may fill their ``line -> home`` translation
      caches (homes never move behind the policy's back);
    * ``claims_pages`` — the policy maintains a ``page -> home`` table
      (the first-touch family), which is what UVM prefetch pins into;
    * ``dynamic`` — homes may move after the first touch (re-homing);
    * ``bills_single_socket_touch`` — the ``first_touch`` quirk: on a
      one-socket system the page table never claims pages, so every
      access keeps billing the first-touch copy (pinned by the hot-path
      goldens).
    """

    kind = ""
    cacheable = True
    claims_pages = False
    dynamic = False
    bills_single_socket_touch = False
    #: a repro.obs.tracer.Tracer, or None: one instant per dynamic page
    #: re-home. A traced system sets it; the engine handed to the tracer
    #: may be None under unit tests, which the tracer tolerates.
    tracer = None

    def __init__(self, config: "SystemConfig", spec: PlacementSpec,
                 stats: StatGroup) -> None:
        self.n_sockets = config.n_sockets
        self.page_size = config.page_size
        self.granularity = config.interleave_granularity
        self.migration_latency = config.migration_latency
        self.spec = spec
        self.stats = stats
        #: page -> home table (empty for arithmetic policies).
        self.page_home: dict[int, int] = {}

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def home_socket(self, addr: int, accessor: int) -> int:
        """Home socket of ``addr`` for an access issued by ``accessor``."""
        raise NotImplementedError

    def is_first_touch(self, addr: int) -> bool:
        """True when the policy would claim this page on its next touch."""
        return False

    def attach(
        self,
        fabric,
        engine,
        distance: DistanceModel,
        page_table: "PageTable",
    ) -> None:
        """Wire the runtime collaborators (no-op for static policies)."""

    def detach(self) -> None:
        """Drop the page table :meth:`attach` wired (system teardown)."""


class FineInterleavePolicy(PagePolicy):
    """Sub-page interleaving across sockets (traditional UMA layout)."""

    kind = "fine_interleave"

    def home_socket(self, addr: int, accessor: int) -> int:
        return (addr // self.granularity) % self.n_sockets


class PageInterleavePolicy(PagePolicy):
    """Round-robin page-granularity interleaving (Linux-style)."""

    kind = "page_interleave"

    def home_socket(self, addr: int, accessor: int) -> int:
        return (addr // self.page_size) % self.n_sockets


class LocalOnlyPolicy(PagePolicy):
    """Everything on socket 0 (single-GPU and hypothetical-KxGPU runs)."""

    kind = "local_only"

    def home_socket(self, addr: int, accessor: int) -> int:
        return 0


class FirstTouchPolicy(PagePolicy):
    """First-touch on-demand page migration (locality-optimized runtime)."""

    kind = "first_touch"
    claims_pages = True
    bills_single_socket_touch = True

    def home_socket(self, addr: int, accessor: int) -> int:
        page = addr // self.page_size
        home = self.page_home.get(page)
        if home is None:
            home = accessor
            self.page_home[page] = home
            self.stats.add("migrations")
        return home

    def is_first_touch(self, addr: int) -> bool:
        return (addr // self.page_size) not in self.page_home


class DynamicPagePolicy(PagePolicy):
    """Shared machinery of the re-homing policies.

    Subclasses implement :meth:`touch` (the counted demand-access entry
    the page table calls per access) on top of :meth:`_claim` and
    :meth:`_re_home`.
    """

    cacheable = False
    claims_pages = True
    dynamic = True

    def __init__(self, config: "SystemConfig", spec: PlacementSpec,
                 stats: StatGroup) -> None:
        super().__init__(config, spec, stats)
        self._fabric = None
        self._engine = None
        self._page_table: "PageTable | None" = None
        #: hop rows of the fabric distance model (identity pre-attach,
        #: so unit-tested policies behave like their crossbar selves).
        self.distance = DistanceModel.identity(config.n_sockets)
        #: re-homes performed per page (capped by the spec).
        self._moves: dict[int, int] = {}

    def attach(self, fabric, engine, distance, page_table) -> None:
        self._fabric = fabric
        self._engine = engine
        self.distance = distance
        self._page_table = page_table

    def detach(self) -> None:
        # The page table holds this policy, so keeping it is a cycle.
        self._page_table = None

    # ------------------------------------------------------------------
    # protocol entry points
    # ------------------------------------------------------------------
    def touch(
        self, addr: int, accessor: int, is_write: bool = False
    ) -> tuple[int, int]:
        """One counted demand access: ``(home, extra_latency)``."""
        raise NotImplementedError

    def home_socket(self, addr: int, accessor: int) -> int:
        return self.touch(addr, accessor)[0]

    def peek(self, addr: int, accessor: int) -> int:
        """Uncounted home lookup (eviction/writeback routing).

        Evicted lines were demand-accessed earlier, so their pages are
        normally claimed; an unclaimed page (possible only through
        speculative probes) reads as accessor-local without claiming.
        """
        return self.page_home.get(addr // self.page_size, accessor)

    def is_first_touch(self, addr: int) -> bool:
        return (addr // self.page_size) not in self.page_home

    @property
    def re_homes(self) -> int:
        """Dynamic re-homes performed (first-touch claims not included)."""
        return self.stats["re_homes"]

    # ------------------------------------------------------------------
    # shared mechanics
    # ------------------------------------------------------------------
    def _claim(self, page: int, accessor: int) -> None:
        self.page_home[page] = accessor
        self.stats.add("migrations")

    def _re_home(self, page: int, old: int, new: int) -> int:
        """Move ``page`` to ``new``; returns the extra access latency.

        The triggering access stalls for the migration latency, cached
        line translations are dropped system-wide, and the page copy is
        charged on the fabric as a page-sized ``old -> new`` transfer.
        """
        self.page_home[page] = new
        self._moves[page] = self._moves.get(page, 0) + 1
        self.stats.add("re_homes")
        if self.tracer is not None:
            self.tracer.on_page_rehome(page, old, new, self._engine)
        if self._page_table is not None:
            self._page_table.invalidate_page(page)
        if self._fabric is not None and self._engine is not None and old != new:
            self._fabric.send_bytes(
                self._engine.now, old, new, self.page_size
            )
        return self.migration_latency


class DistanceWeightedFirstTouchPolicy(DynamicPagePolicy):
    """First touch with hop-weighted centroid re-homing."""

    kind = "distance_weighted_first_touch"

    def __init__(self, config: "SystemConfig", spec: PlacementSpec,
                 stats: StatGroup) -> None:
        super().__init__(config, spec, stats)
        #: page -> per-socket touch counts since the run began.
        self._counts: dict[int, list[int]] = {}
        #: page -> total touches (avoids re-summing the count row).
        self._seen: dict[int, int] = {}

    def touch(
        self, addr: int, accessor: int, is_write: bool = False
    ) -> tuple[int, int]:
        page = addr // self.page_size
        home = self.page_home.get(page)
        if home is None:
            self._claim(page, accessor)
            counts = [0] * self.n_sockets
            counts[accessor] = 1
            self._counts[page] = counts
            self._seen[page] = 1
            return accessor, self.migration_latency
        counts = self._counts.get(page)
        if counts is None:
            # Page homed without a demand touch (UVM prefetch pinning):
            # start its counters lazily.
            counts = [0] * self.n_sockets
            self._counts[page] = counts
            self._seen[page] = 0
        counts[accessor] += 1
        seen = self._seen[page] + 1
        self._seen[page] = seen
        if (
            seen % self.spec.touch_window == 0
            and self._moves.get(page, 0) < self.spec.max_migrations_per_page
        ):
            best, benefit = self._centroid(counts, home)
            # Amortization guard: move only when the hop-byte savings the
            # observed touches would already have realized at the new
            # home pay for the page copy itself (page_size bytes crossing
            # hops(home, best) edges). Without it, near-tie shared pages
            # churn page-sized transfers through links that carry a few
            # bytes per cycle at compressed scale — congestion that costs
            # more than the hops it saves.
            if best != home and benefit * DATA_BYTES >= (
                self.page_size * self.distance.hops[home][best]
            ):
                return best, self._re_home(page, home, best)
        return home, 0

    def _centroid(self, counts: list[int], home: int) -> tuple[int, int]:
        """Hop-weighted argmin socket and its advantage over the home.

        Returns ``(best, benefit)`` where ``benefit`` is the hop-weighted
        touch cost the observed counts would have saved at ``best``
        (zero when the home is already the centroid).
        """
        hops = self.distance.hops
        best = home
        home_cost = sum(
            c * h for c, h in zip(counts, hops[home]) if c
        )
        best_cost = home_cost
        for s in range(self.n_sockets):
            if s == home:
                continue
            cost = sum(c * h for c, h in zip(counts, hops[s]) if c)
            # Strict improvement only: equal-cost alternatives (every
            # remote socket on the crossbar's identity model) never move
            # the page, and among strict improvers the smallest id wins.
            if cost < best_cost:
                best_cost = cost
                best = s
        return best, home_cost - best_cost


class AccessCounterMigrationPolicy(DynamicPagePolicy):
    """Re-home after N remote touches from one socket (paper §4 dynamic).

    The read-shared filter (``spec.read_shared_filter``, on by default)
    fixes this policy's historical ping-pong loss: a page read by two or
    more remote sockets with no remote writes can never be made local to
    more than one of them, so migrating it only bounces the page between
    sharers — each bounce paying a page copy on the fabric plus the
    migration stall — until the per-page move cap ran out. Such pages now
    stay put; pages dominated by a *single* remote reader, or written
    remotely, still migrate exactly as before.
    """

    kind = "access_counter_migration"

    def __init__(self, config: "SystemConfig", spec: PlacementSpec,
                 stats: StatGroup) -> None:
        super().__init__(config, spec, stats)
        #: page -> {socket: remote touches since the last homing}.
        self._remote: dict[int, dict[int, int]] = {}
        #: page -> remote writes since the last homing (read-shared test).
        self._writes: dict[int, int] = {}

    def touch(
        self, addr: int, accessor: int, is_write: bool = False
    ) -> tuple[int, int]:
        page = addr // self.page_size
        home = self.page_home.get(page)
        if home is None:
            self._claim(page, accessor)
            return accessor, self.migration_latency
        if accessor == home:
            return home, 0
        if is_write:
            self._writes[page] = self._writes.get(page, 0) + 1
        counts = self._remote.get(page)
        if counts is None:
            counts = {}
            self._remote[page] = counts
        counts[accessor] = n = counts.get(accessor, 0) + 1
        if (
            n >= self.spec.migration_threshold
            and self._moves.get(page, 0) < self.spec.max_migrations_per_page
        ):
            # Read-shared suppression: with the current touch recorded,
            # ``len(counts) > 1`` means a second distinct remote socket
            # has also touched the page since its last homing.
            if not (
                self.spec.read_shared_filter
                and len(counts) > 1
                and self._writes.get(page, 0) == 0
            ):
                counts.clear()
                self._writes.pop(page, None)
                return accessor, self._re_home(page, home, accessor)
        return home, 0


#: kind -> policy class; the registry behind ``build_page_policy`` and
#: the ``repro run --placement`` CLI choices.
PAGE_POLICIES: dict[str, type[PagePolicy]] = {
    cls.kind: cls
    for cls in (
        FineInterleavePolicy,
        PageInterleavePolicy,
        FirstTouchPolicy,
        LocalOnlyPolicy,
        DistanceWeightedFirstTouchPolicy,
        AccessCounterMigrationPolicy,
    )
}


def build_page_policy(config: "SystemConfig", stats: StatGroup) -> PagePolicy:
    """Instantiate the policy ``config.placement_spec`` selects.

    ``PlacementSpec`` has already rejected unknown kinds.
    """
    spec = config.placement_spec
    return PAGE_POLICIES[spec.kind](config, spec, stats)
