"""repro: a NUMA-aware multi-socket GPU simulator.

A from-scratch reproduction of *Beyond the Socket: NUMA-Aware GPUs*
(Milic et al., MICRO-50, 2017): an event-driven multi-GPU simulator with
a locality-optimized runtime, dynamically asymmetric inter-GPU links, and
NUMA-aware dynamically partitioned caches, plus the 41-workload suite and
the harness that regenerates every table and figure of the paper.

Quickstart
----------
>>> from repro import build_system, scaled_config, get_workload, SMALL
>>> from repro.config import CacheArch, LinkPolicy
>>> from dataclasses import replace
>>> cfg = replace(scaled_config(n_sockets=4),
...               cache_arch=CacheArch.NUMA_AWARE,
...               link_policy=LinkPolicy.DYNAMIC)
>>> from repro import run_workload_on
>>> result = run_workload_on(cfg, get_workload("HPC-RSBench"), SMALL)
>>> result.cycles > 0
True
"""

from repro.config import (
    CacheArch,
    LinkPolicy,
    SystemConfig,
    config_digest,
    config_fingerprint,
    hypothetical_config,
    paper_config,
    scaled_config,
    single_gpu_config,
    WritePolicy,
)
from repro.core.builder import build_system, run_workload_on
from repro.gpu.system import NumaGpuSystem
from repro.locality import CtaSpec, DistanceModel, PlacementSpec
from repro.metrics.report import RunResult, arithmetic_mean, geometric_mean
from repro.power.interconnect_power import estimate_power
from repro.workloads.spec import MEDIUM, SMALL, TINY, WorkloadScale, WorkloadSpec
from repro.workloads.suite import GREY_BOX, STUDY_SET, SUITE, get_workload
from repro.workloads.synthetic import make_workload

__version__ = "1.0.0"

__all__ = [
    "CacheArch",
    "LinkPolicy",
    "SystemConfig",
    "WritePolicy",
    "config_digest",
    "config_fingerprint",
    "hypothetical_config",
    "paper_config",
    "scaled_config",
    "single_gpu_config",
    "build_system",
    "run_workload_on",
    "NumaGpuSystem",
    "CtaSpec",
    "DistanceModel",
    "PlacementSpec",
    "RunResult",
    "arithmetic_mean",
    "geometric_mean",
    "estimate_power",
    "MEDIUM",
    "SMALL",
    "TINY",
    "WorkloadScale",
    "WorkloadSpec",
    "GREY_BOX",
    "STUDY_SET",
    "SUITE",
    "get_workload",
    "make_workload",
    "__version__",
]
