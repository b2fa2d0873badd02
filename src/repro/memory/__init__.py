"""Memory substrate: page table, caches, DRAM, coherence."""

from repro.memory.cache import EvictedLine, NumaClass, SetAssocCache
from repro.memory.coherence import CoherenceDomain, FlushResult
from repro.memory.dram import DramChannel
from repro.memory.page_table import PageTable

__all__ = [
    "EvictedLine",
    "NumaClass",
    "SetAssocCache",
    "CoherenceDomain",
    "FlushResult",
    "DramChannel",
    "PageTable",
]
