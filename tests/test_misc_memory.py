"""Unit tests for DRAM and the SM wrapper."""

import pytest

from repro.config import CacheArch, GpuConfig
from repro.gpu.sm import Sm
from repro.memory.dram import DramChannel


# ---------------------------------------------------------------------------
# DRAM
# ---------------------------------------------------------------------------

def test_dram_access_includes_latency():
    dram = DramChannel(0, bandwidth=128.0, latency=100)
    done = dram.access(0, 128)
    assert done == 1 + 100


def test_dram_serializes_on_bandwidth():
    dram = DramChannel(0, bandwidth=1.0, latency=0)
    first = dram.access(0, 64)
    second = dram.access(0, 64)
    assert first == 64
    assert second == 128


def test_dram_counts_reads_and_writes():
    dram = DramChannel(0, bandwidth=128.0, latency=0)
    dram.access(0, 128)
    dram.access(0, 128, write=True)
    assert dram.stats["reads"] == 1
    assert dram.stats["writes"] == 1
    assert dram.bytes_total == 256


# ---------------------------------------------------------------------------
# SM
# ---------------------------------------------------------------------------

def test_sm_slot_accounting():
    sm = Sm(0, 0, GpuConfig(ctas_per_sm=2), CacheArch.MEM_SIDE)
    assert sm.has_free_slot
    sm.occupy()
    sm.occupy()
    assert not sm.has_free_slot
    sm.release()
    assert sm.has_free_slot
    assert sm.stats["ctas_started"] == 2
    assert sm.stats["ctas_finished"] == 1


def test_sm_l1_is_write_through():
    sm = Sm(0, 0, GpuConfig(), CacheArch.MEM_SIDE)
    assert sm.l1.write_through


def test_numa_aware_sm_l1_is_partitioned():
    sm = Sm(0, 0, GpuConfig(), CacheArch.NUMA_AWARE)
    assert sm.l1.partitioned
    plain = Sm(0, 0, GpuConfig(), CacheArch.SHARED_COHERENT)
    assert not plain.l1.partitioned
