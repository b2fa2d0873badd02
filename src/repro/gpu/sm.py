"""Streaming multiprocessor: CTA residency slots plus a private L1.

The SM model is deliberately thin — the paper's experiments are shaped by
the memory system, not by intra-SM pipelines — but it owns the two things
that matter at this level: a private software-coherent L1 (Table 1:
128 KB, 4-way, write-through) and a fixed number of resident-CTA slots
that bound how much latency-hiding parallelism one SM contributes.
"""

from __future__ import annotations

from repro.config import CacheArch, GpuConfig
from repro.memory.cache import SetAssocCache
from repro.sim.stats import StatGroup, flatten_slots


class Sm:
    """One streaming multiprocessor."""

    __slots__ = (
        "socket_id",
        "sm_index",
        "slots",
        "active_ctas",
        "l1",
        "_stats",
        "n_ctas_started",
        "n_ctas_finished",
    )

    #: slotted counter -> public stats key (see repro.sim.stats).
    _STAT_FIELDS = (
        ("n_ctas_started", "ctas_started"),
        ("n_ctas_finished", "ctas_finished"),
    )

    def __init__(self, socket_id: int, sm_index: int, config: GpuConfig,
                 cache_arch: CacheArch) -> None:
        self.socket_id = socket_id
        self.sm_index = sm_index
        self.slots = config.ctas_per_sm
        self.active_ctas = 0
        self.n_ctas_started = 0
        self.n_ctas_finished = 0
        # The L1 is way-partitioned only in the NUMA-aware design (d);
        # every other organization runs it as a plain LRU cache.
        if cache_arch is CacheArch.NUMA_AWARE:
            half = max(1, config.l1.ways // 2)
            self.l1 = SetAssocCache(
                f"l1.{socket_id}.{sm_index}",
                config.l1,
                local_ways=config.l1.ways - half,
                remote_ways=half,
                write_through=True,
            )
        else:
            self.l1 = SetAssocCache(
                f"l1.{socket_id}.{sm_index}", config.l1, write_through=True
            )
        self._stats = StatGroup(f"sm.{socket_id}.{sm_index}")

    @property
    def stats(self) -> StatGroup:
        """Counter view; slotted ints are flattened on every read."""
        return flatten_slots(self, self._STAT_FIELDS, self._stats)

    @property
    def has_free_slot(self) -> bool:
        """True when another CTA can be made resident."""
        return self.active_ctas < self.slots

    def occupy(self) -> None:
        """Claim one CTA slot."""
        self.active_ctas += 1
        self.n_ctas_started += 1

    def release(self) -> None:
        """Free one CTA slot on CTA completion."""
        self.active_ctas -= 1
        self.n_ctas_finished += 1
