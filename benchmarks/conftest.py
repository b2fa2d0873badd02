"""Shared fixtures for the benchmark suite.

All figure benches share one :class:`ExperimentContext` per scale so
baseline simulations (single GPU, locality-optimized 4-socket, the
hypothetical GPUs) run once and are reused across figures — exactly how
the paper's numbers share baselines.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — tiny (default) / small / medium. The scale used
  for EXPERIMENTS.md is small.
* ``REPRO_JOBS`` — worker count for the prewarm (default 1, serial).
  The shared context is always prewarmed with the full figure grid
  through the supervised runner before the first bench runs, so even a
  serial session builds each workload's trace once rather than once
  per config; with more than one worker the grid fans out over that
  many processes. Results are bit-identical either way (the benches
  then measure the same warm-cache reductions).
"""

from __future__ import annotations

import os

import pytest

from repro.harness import experiments as exp
from repro.harness.parallel import ParallelRunner, resolve_jobs
from repro.harness.runner import ExperimentContext
from repro.workloads.spec import SCALES

_CONTEXTS: dict[str, ExperimentContext] = {}


def bench_scale_name() -> str:
    """Scale preset selected for this benchmark run."""
    return os.environ.get("REPRO_BENCH_SCALE", "tiny")


#: Sweep parameters shared between the bench files and the prewarm plan
#: below (the bench modules import these, so the grids cannot drift).
SAMPLE_TIMES = (500, 1000, 5000, 20000)
SWITCH_TIMES = (10, 100, 500)
SWITCH_SAMPLE_TIME = 1000

#: Exactly the driver invocations the bench files perform, so a parallel
#: prewarm captures the full grid the session will need.
_BENCH_DRIVERS = (
    lambda c: exp.figure3(c),
    lambda c: exp.figure5(c),
    lambda c: exp.figure6(c, sample_times=SAMPLE_TIMES),
    lambda c: exp.figure8(c),
    lambda c: exp.figure9(c),
    lambda c: exp.figure10(c),
    lambda c: exp.figure11(c),
    lambda c: exp.switch_time_sensitivity(
        c, switch_times=SWITCH_TIMES, sample_time=SWITCH_SAMPLE_TIME
    ),
    lambda c: exp.writeback_sensitivity(c),
    lambda c: exp.power_analysis(c),
)


def shared_context() -> ExperimentContext:
    """The process-wide experiment context for the selected scale."""
    name = bench_scale_name()
    if name not in _CONTEXTS:
        ctx = ExperimentContext(scale=SCALES[name])
        ParallelRunner(ctx, jobs=resolve_jobs(None)).prewarm_experiments(
            _BENCH_DRIVERS)
        _CONTEXTS[name] = ctx
    return _CONTEXTS[name]


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    return shared_context()
