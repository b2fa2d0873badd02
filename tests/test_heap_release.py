"""A finished system leaves no cyclic garbage.

Each simulation builds a fresh ``NumaGpuSystem``, so a dead system must
be freed by reference counting the moment its last reference goes, not
when a collection happens to reach it (DESIGN.md, "Heap release"). With
the collector paused from build to ``del``, a collection afterwards must
find no object of any ``repro`` type.

The families are the end-of-run law families of ``test_quiescence``,
plus the distance-aware ring policies, recorded timelines and a traced
run with a metric sampler, each of which wires extra state into the
system.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.builder import run_workload_traced
from repro.obs.tracer import Tracer
from repro.workloads.spec import TINY
from repro.workloads.suite import get_workload

from test_quiescence import CONFIGS, CTX

CASES = {name: (config, {}) for name, config in CONFIGS.items()}
CASES["ring8-distance"] = (
    CTX.config_locality_policy(
        "distance_weighted_first_touch", "distance_affine",
        kind="ring", n_sockets=8,
    ),
    {},
)
CASES["crossbar4-combined-timelines"] = (
    CTX.config_combined(), {"record_timelines": True},
)
CASES["crossbar4-combined-traced"] = (
    CTX.config_combined(), {"tracer": Tracer, "metrics_interval": 500},
)


def repro_garbage() -> list[str]:
    """Collect, returning the type names of the ``repro`` objects freed."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = [type(o) for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return sorted(
        f"{t.__module__}.{t.__qualname__}" for t in found
        if t.__module__.startswith("repro")
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_dead_system_leaves_no_cyclic_garbage(name):
    config, options = CASES[name]
    options = dict(options)
    if "tracer" in options:
        options["tracer"] = options["tracer"]()
    gc.collect()  # garbage of earlier tests is not this run's
    gc.disable()
    try:
        result, system = run_workload_traced(
            config, get_workload("Rodinia-Hotspot"), TINY, **options
        )
        assert result.kernels > 0
        del system
        assert repro_garbage() == []
    finally:
        gc.enable()
