"""The benchmark's workloads: which cells each leg runs, built from a seed.

A *cell* is one simulation: one workload spec under one system config.
The three sim legs run the probe workloads, re-seeded with
``dataclasses.replace(spec, seed=seed)``, under a fixed set of configs;
the ``study`` leg runs a locality sweep over a seeded choice of three
workloads. The seed reaches the program only through these generated
inputs.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from dataclasses import dataclass

from repro.config import LINE_SIZE, SystemConfig
from repro.harness.experiments import locality_sweep
from repro.harness.runner import ExperimentContext
from repro.workloads.spec import SMALL, TINY, WorkloadScale, WorkloadSpec
from repro.workloads.suite import get_workload

#: The probe workloads: a graph-traversal, a stencil and a conv-net
#: profile, the same three the repository's perf smoke uses.
PROBE_WORKLOADS = ("Rodinia-BFS", "Rodinia-Hotspot", "ML-AlexNet-cudnn-Lev2")

SIM_LEGS = ("crossbar4", "ring8", "single-gpu")
STUDY_LEG = "study"

#: Default trace sizes: ``small`` for the sim legs, ``tiny`` for the study.
SIM_SCALE = SMALL
STUDY_SCALE = TINY

STUDY_KINDS = ("ring", "mesh2d")
STUDY_SOCKETS = 8
#: The study's workloads, all from ``TOPOLOGY_SET``: Rodinia-BFS and
#: HPC-RSBench in every sweep, plus one of a pair picked by the seed. The
#: pair members cost about the same host time per cell and per op, so
#: every seed's sweep does about the same work; a free draw of three of
#: the six moved the sweep's throughput by up to 40% with the seed.
STUDY_FIXED = ("Rodinia-BFS", "HPC-RSBench")
STUDY_PAIR = ("ML-GoogLeNet-cudnn-Lev2", "Other-Stream-Triad")


@dataclass(frozen=True)
class Cell:
    """One simulation of a sim leg: a seeded workload under one config."""

    workload: WorkloadSpec
    config_name: str
    config: SystemConfig

    @property
    def id(self) -> str:
        return f"{self.workload.name}|{self.config_name}"


def leg_configs(leg: str) -> list[tuple[str, SystemConfig]]:
    """The named system configs one sim leg runs every workload under."""
    ctx = ExperimentContext()
    if leg == "crossbar4":
        # The paper's design point: the locality baseline (mem-side L2,
        # static links) against the full NUMA-aware GPU.
        return [("baseline", ctx.config_locality()),
                ("combined", ctx.config_combined())]
    if leg == "ring8":
        return [
            ("blind", ctx.config_topology("ring", n_sockets=8)),
            ("dwft+affine", ctx.config_locality_policy(
                "distance_weighted_first_touch", "distance_affine",
                kind="ring", n_sockets=8)),
            ("migration+contiguous", ctx.config_locality_policy(
                "access_counter_migration", "contiguous",
                kind="ring", n_sockets=8)),
        ]
    if leg == "single-gpu":
        return [("single", ctx.config_single_gpu())]
    raise ValueError(f"not a sim leg: {leg!r}")


def sim_cells(leg: str, seed: int) -> list[list[Cell]]:
    """The leg's cells, grouped by workload (one trace serves a group)."""
    configs = leg_configs(leg)
    groups = []
    for name in PROBE_WORKLOADS:
        spec = dataclasses.replace(get_workload(name), seed=seed)
        groups.append([Cell(spec, cname, config) for cname, config in configs])
    return groups


def study_workloads(seed: int) -> tuple[str, ...]:
    """The seeded choice of the study's three workloads."""
    return STUDY_FIXED + (random.Random(seed).choice(STUDY_PAIR),)


def study_driver(names: tuple[str, ...]):
    """The study's experiment driver: a locality sweep at 8 sockets."""
    return functools.partial(
        locality_sweep, workloads=names, kinds=STUDY_KINDS,
        socket_counts=(STUDY_SOCKETS,))


def l2_ratio(leg: str, scale: WorkloadScale = SIM_SCALE) -> float:
    """Trace footprint over the leg's aggregate modelled L2 capacity."""
    config = leg_configs(leg)[0][1]
    footprint = scale.footprint_lines * LINE_SIZE
    return footprint / (config.gpu.l2.capacity_bytes * config.n_sockets)
