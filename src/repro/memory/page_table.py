"""Page table: the placement policy plus UVM translation mechanics.

The page table holds the one :class:`repro.locality.placement.PagePolicy`
that :func:`~repro.locality.placement.build_page_policy` builds from the
config's ``placement_spec``. The policy decides *where* a page lives;
this module adds the UVM mechanics around it — the one-time migration
charge a first-touch access pays while the page is copied from system
memory into the toucher's local DRAM (Section 3) — and the two rules
every policy shares:

* an accessor outside ``0..n_sockets-1`` raises :class:`PlacementError`;
* a one-socket system homes every address at socket 0 without claiming
  any page (so under ``first_touch`` every access keeps billing the
  first-touch copy — the quirk the hot-path goldens pin).

Translation caching
-------------------
Every socket keeps a private ``line -> home_socket`` dict (see
:meth:`repro.gpu.socket.GpuSocket.access`) so the common steady-state
access skips :meth:`translate` entirely — after the first touch of a page
its home never moves on its own, and interleaved policies are pure
functions of the address. Those dicts are registered here so that any
operation that *does* re-home a page (UVM prefetch pinning pages before a
run; the dynamic locality policies migrating pages mid-run) can call
:meth:`invalidate_page` and atomically drop every stale cached line of
that page across all sockets.

Dynamic policies (``policy.dynamic``) additionally disable cache
*filling* entirely (:attr:`cacheable`): their re-home decisions are
driven by per-page touch counters, and a warm line cache would hide
exactly the accesses those counters need. Their demand accesses route
through the policy's counted ``touch`` entry; eviction/writeback routing
uses the uncounted :meth:`peek_home` so background traffic never skews
the counters.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.errors import PlacementError
from repro.locality.placement import build_page_policy
from repro.sim.stats import StatGroup, flatten_slots


def _accessor_error(accessor: int, n_sockets: int) -> PlacementError:
    return PlacementError(
        f"accessor socket {accessor} out of range 0..{n_sockets - 1}"
    )


class PageTable:
    """Resolves addresses to home sockets and prices first-touch faults."""

    __slots__ = (
        "policy",
        "n_sockets",
        "migration_latency",
        "cacheable",
        "_page_home",
        "_page_size",
        "_dynamic",
        "_fused_first_touch",
        "_stats",
        "_line_caches",
        "_frame_hints",
        "_lines_per_page",
        "n_faults",
        "n_translations",
        "n_translation_invalidations",
    )

    #: slotted counter -> public stats key (see repro.sim.stats).
    _STAT_FIELDS = (
        ("n_faults", "faults"),
        ("n_translations", "translations"),
        ("n_translation_invalidations", "translation_invalidations"),
    )

    def __init__(self, config: SystemConfig) -> None:
        #: the placement policy; its ``stats`` group counts migrations
        #: and re-homes.
        self.policy = build_page_policy(config, StatGroup("placement"))
        self.n_sockets = config.n_sockets
        self.migration_latency = config.migration_latency
        #: whether sockets may fill their line->home caches.
        self.cacheable = self.policy.cacheable
        #: the policy's page -> home table (shared object: the fused
        #: first-touch path below and UVM prefetch write it directly).
        self._page_home = self.policy.page_home
        self._page_size = config.page_size
        # One socket homes everything at 0 without claiming (see
        # _home), so the policy-specific paths below apply only to real
        # NUMA systems: the plain first-touch policy gets the fused fast
        # path, the dynamic policies their counted touch entry.
        self._dynamic = self.policy.dynamic and config.n_sockets > 1
        self._fused_first_touch = (
            self.policy.kind == "first_touch" and config.n_sockets > 1
        )
        self._stats = StatGroup("page_table")
        self.n_faults = 0
        self.n_translations = 0
        self.n_translation_invalidations = 0
        #: line-granular access-record dicts registered by the sockets
        #: (line -> record with ``home``/``rp`` attributes; see
        #: repro.gpu.socket._LineRec).
        self._line_caches: list[dict] = []
        #: per-L1 ``line -> frame`` tag dicts whose frames carry a
        #: ``home`` hint that must be cleared on re-homing.
        self._frame_hints: list[dict] = []
        self._lines_per_page = max(1, config.page_size // config.gpu.l2.line_size)

    @property
    def stats(self) -> StatGroup:
        """Counter view; slotted ints are flattened on every read."""
        return flatten_slots(self, self._STAT_FIELDS, self._stats)

    def attach_fabric(self, fabric, engine, distance) -> None:
        """Wire the fabric, engine, and distance model into the policy.

        Called once by the system builder after the fabric exists; the
        dynamic policies use it to charge page copies on the fabric and
        to weight re-home decisions by hop distance. A no-op for the
        static policies.
        """
        self.policy.attach(fabric, engine, distance, self)

    def translate(
        self, addr: int, accessor: int, is_write: bool = False
    ) -> tuple[int, int]:
        """Return ``(home_socket, extra_latency)`` for one access.

        ``extra_latency`` is nonzero on the first touch of a page under
        a claiming policy (the on-demand page copy from system memory)
        and on a dynamic re-home (the triggering access stalls while the
        page moves).

        ``is_write`` only matters to the dynamic policies: the
        access-counter migration policy uses it to tell read-shared pages
        (which it must not ping-pong) from write-shared ones.

        (Hot path: runs on every translation-cache miss — and on *every*
        access under a dynamic policy — so under plain first touch the
        first-touch probe and the home lookup are fused into a single
        page computation and dict probe instead of chaining the policy's
        ``is_first_touch`` + ``home_socket`` — the counters and claim
        side effects are identical.)
        """
        if self._fused_first_touch:
            if accessor < 0 or accessor >= self.n_sockets:
                raise _accessor_error(accessor, self.n_sockets)
            page = addr // self._page_size
            home = self._page_home.get(page)
            self.n_translations += 1
            if home is None:
                self.n_faults += 1
                self._page_home[page] = accessor
                self.policy.stats.add("migrations")
                return accessor, self.migration_latency
            return home, 0
        if self._dynamic:
            if accessor < 0 or accessor >= self.n_sockets:
                raise _accessor_error(accessor, self.n_sockets)
            home, extra = self.policy.touch(addr, accessor, is_write)
            self.n_translations += 1
            if extra:
                self.n_faults += 1
            return home, extra
        extra = 0
        if self.policy.is_first_touch(addr):
            extra = self.migration_latency
            self.n_faults += 1
        home = self._home(addr, accessor)
        self.n_translations += 1
        return home, extra

    def peek_home(self, addr: int, accessor: int) -> int:
        """Uncounted home of ``addr`` (eviction/writeback routing).

        Unlike :meth:`translate` this never claims a page, never charges
        latency, and — crucially for the dynamic policies — never feeds
        the touch counters: write-back background traffic must not skew
        re-home decisions.
        """
        if self.n_sockets == 1:
            return 0
        if self._dynamic:
            return self.policy.peek(addr, accessor)
        if self.policy.claims_pages:
            return self._page_home.get(addr // self._page_size, accessor)
        return self._home(addr, accessor)

    def _home(self, addr: int, accessor: int) -> int:
        """Home under the shared rules: range check, one socket homes at 0.

        For the first-touch family the policy claims the page for the
        accessor on its first call and counts a migration (the page
        moves from system memory into that GPU's local DRAM).
        """
        if accessor < 0 or accessor >= self.n_sockets:
            raise _accessor_error(accessor, self.n_sockets)
        if self.n_sockets == 1:
            return 0
        return self.policy.home_socket(addr, accessor)

    # ------------------------------------------------------------------
    # translation-cache registry
    # ------------------------------------------------------------------
    def register_line_cache(self, cache: dict) -> None:
        """Register one socket's per-line access-record dict.

        The page table never fills these (sockets do, on their own access
        paths); registration only lets :meth:`invalidate_page` find them.
        """
        self._line_caches.append(cache)

    def register_frame_hints(self, frames: dict) -> None:
        """Register one L1's ``line -> frame`` tag dict.

        The frames carry a ``home`` hint (repro.memory.cache._Way) that
        mirrors the settled record home; :meth:`invalidate_page` clears
        it so a hit on an invalidated line re-resolves its home. The data
        itself stays valid — coherence is software-managed.
        """
        self._frame_hints.append(frames)

    def invalidate_page(self, page: int) -> int:
        """Drop every settled translation of ``page`` in every socket.

        Must be called whenever a page's home changes after it may have
        been translated (page migration / re-pinning). Returns the number
        of settled record homes dropped — useful for tests and migration
        accounting. Records whose fetch is still in flight keep their
        MSHR state (the in-flight read completes at its already-resolved
        home, as it always did) but lose the settled home; records with
        no in-flight fetch are removed outright. Matching L1 frame hints
        are cleared alongside. Under a policy that is not
        :attr:`cacheable`, sockets never settle a record or a hint, so
        there is nothing to drop and no dict is probed.
        """
        if not self.cacheable:
            return 0
        first_line = page * self._lines_per_page
        last_line = first_line + self._lines_per_page
        removed = 0
        for cache in self._line_caches:
            for line in range(first_line, last_line):
                rec = cache.get(line)
                if rec is not None and rec.home >= 0:
                    removed += 1
                    if rec.rp is None:
                        del cache[line]
                    else:
                        rec.home = -1
        for frames in self._frame_hints:
            for line in range(first_line, last_line):
                way = frames.get(line)
                if way is not None:
                    way.home = -1
        self.n_translation_invalidations += removed
        return removed

    @property
    def migrations(self) -> int:
        """Pages migrated on first touch so far."""
        return self.policy.stats["migrations"]

    @property
    def re_homed_pages(self) -> int:
        """Dynamic re-homes performed so far (zero for static policies)."""
        return self.policy.stats["re_homes"]
