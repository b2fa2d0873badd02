"""The NUMA-aware GPU runtime: kernels, scheduling, launch, UVM, tenancy."""

from repro.runtime.kernel import CtaBuilder, KernelWork
from repro.runtime.launcher import Launcher
from repro.runtime.partitioning import (
    GpuPartition,
    PartitionPlan,
    TenantResult,
    run_partitioned,
)
from repro.runtime.uvm import UvmManager

__all__ = [
    "CtaBuilder",
    "KernelWork",
    "Launcher",
    "GpuPartition",
    "PartitionPlan",
    "TenantResult",
    "run_partitioned",
    "UvmManager",
]
