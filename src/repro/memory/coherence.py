"""Software bulk-invalidate coherence protocol (Sections 3.2 and 5.2).

The paper's GPUs keep caches coherent without hardware protocols: compiler
inserted cache-control (flush) operations invalidate SM-side caches at
kernel boundaries and synchronization points. Extending GPU-side caching
into the L2 (Figure 7 (b)-(d)) extends those bulk invalidations into the
L2 as well; dirty write-back lines must drain to their home memory, which
costs DRAM and (for remote lines) interconnect bandwidth.

Figure 9 measures the cost of these invalidations by comparing against a
hypothetical cache that ignores invalidation events (an upper bound on any
finer-grained hardware protocol). That mode is the ``invalidations_enabled
= False`` path here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import CacheArch
from repro.memory.cache import EvictedLine, NumaClass, SetAssocCache
from repro.sim.stats import StatGroup


@dataclass
class FlushResult:
    """Write-back obligations produced by one coherence flush."""

    local_dirty_lines: int = 0
    remote_dirty_lines: int = 0
    remote_lines: list[int] = field(default_factory=list)

    def add(self, evicted: list[EvictedLine]) -> None:
        """Accumulate dirty victims from one cache's invalidation."""
        for line in evicted:
            if line.numa_class is NumaClass.LOCAL:
                self.local_dirty_lines += 1
            else:
                self.remote_dirty_lines += 1
                self.remote_lines.append(line.line)


class CoherenceDomain:
    """Coordinates kernel-boundary flushes for one GPU socket.

    Which caches get invalidated depends on the L2 organization:

    * ``MEM_SIDE`` — only the (write-through, clean) L1s; the memory-side
      L2 is not coherent and is never flushed.
    * ``STATIC_RC`` — L1s plus the remote-class half of the L2 (the R$ is
      GPU-side coherent; the memory-side half is not).
    * ``SHARED_COHERENT`` / ``NUMA_AWARE`` — L1s plus the entire L2.
    """

    def __init__(
        self,
        socket_id: int,
        cache_arch: CacheArch,
        l1s: list[SetAssocCache],
        l2: SetAssocCache,
        invalidations_enabled: bool = True,
    ) -> None:
        self.socket_id = socket_id
        self.cache_arch = cache_arch
        self.l1s = l1s
        self.l2 = l2
        self.invalidations_enabled = invalidations_enabled
        self.stats = StatGroup(f"coherence{socket_id}")

    def flush(self) -> FlushResult:
        """Perform one software bulk invalidation; returns dirty traffic.

        L1s are write-through so their invalidations never produce
        write-backs; L2 dirty victims are returned for the socket model to
        charge against DRAM (local class) or the interconnect (remote
        class).
        """
        result = FlushResult()
        if not self.invalidations_enabled:
            self.stats.add("flushes_skipped")
            return result
        self.stats.add("flushes")
        for l1 in self.l1s:
            l1.invalidate_all()
        if self.cache_arch is CacheArch.MEM_SIDE:
            return result
        if self.cache_arch is CacheArch.STATIC_RC:
            result.add(self.l2.invalidate_class(NumaClass.REMOTE))
            return result
        result.add(self.l2.invalidate_all())
        return result
