"""UVM management: first-touch migration plus explicit prefetch.

The paper's runtime relies on Unified Virtual Addressing with on-demand
page migration (first touch). :class:`UvmManager` wraps the page table
with the two operations the runtime layer needs:

* first-touch translation with fault accounting (delegated to
  :class:`repro.memory.page_table.PageTable`), and
* explicit region prefetch — the ``cudaMemPrefetchAsync``-style escape
  hatch that pins a region's pages to a chosen socket before any CTA
  touches them. Examples use it to stage reduction buffers on a master
  socket, the way real applications' init kernels do.
"""

from __future__ import annotations

from repro.errors import PlacementError
from repro.memory.page_table import PageTable
from repro.sim.stats import StatGroup


class UvmManager:
    """Thin policy layer over the page table."""

    def __init__(self, page_table: PageTable) -> None:
        self.page_table = page_table
        self.stats = StatGroup("uvm")

    def prefetch(self, start: int, nbytes: int, socket: int) -> int:
        """Pin every page overlapping ``[start, start+nbytes)`` to ``socket``.

        Only meaningful under a claiming placement (the first-touch
        family, including the dynamic locality policies — interleaved
        policies compute homes arithmetically); pages already claimed
        stay where they are,
        mirroring CUDA's behaviour of not re-migrating resident pages here.
        Returns the number of pages newly pinned.
        """
        placement = self.page_table.policy
        if not placement.claims_pages:
            # Arithmetic policies compute homes; there is nothing to pin.
            return 0
        if socket < 0 or socket >= placement.n_sockets:
            raise PlacementError(f"prefetch target socket {socket} out of range")
        page_size = placement.page_size
        first = start // page_size
        last = (start + max(nbytes, 1) - 1) // page_size
        pinned = 0
        for page in range(first, last + 1):
            if page not in placement.page_home:
                placement.page_home[page] = socket
                # Re-homing a page must drop any cached line translations
                # (a no-op for never-touched pages, but it keeps the
                # invariant that pinning and caching can never disagree).
                self.page_table.invalidate_page(page)
                pinned += 1
        self.stats.add("pages_prefetched", pinned)
        return pinned

    @property
    def migrations(self) -> int:
        """First-touch page migrations performed so far."""
        return self.page_table.migrations
