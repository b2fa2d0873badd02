"""End-of-run laws: a finished run leaves nothing behind.

After ``NumaGpuSystem.run`` returns, every in-flight structure of the
simulated machine must be empty: no queued engine event, no line record
holding a live walker (an unfinished read), no queued or resident CTA,
no sub-kernel left un-notified, no lane turn inside its quiesce window,
and a launcher that reached the end of its kernel list. A violation
means work was dropped or double-counted, even if the result still
looks plausible.

The laws run on the three config families the layered benchmark
(``perfbench/legs.py``) simulates: the paper's 4-socket crossbar under
the locality baseline and the combined NUMA-aware design (whose
periodic link balancers and cache partition controllers must stop
cleanly), an 8-socket ring with access-counter page migration, and the
single-socket ``LocalGpuSocket`` fast path.
"""

from __future__ import annotations

import pytest

from repro.core.builder import build_system, run_workload_traced
from repro.gpu.socket import LocalGpuSocket
from repro.harness.runner import ExperimentContext
from repro.workloads.spec import TINY
from repro.workloads.suite import get_workload

CTX = ExperimentContext()

CONFIGS = {
    "crossbar4-baseline": CTX.config_locality(),
    "crossbar4-combined": CTX.config_combined(),
    "ring8-migration": CTX.config_locality_policy(
        "access_counter_migration", "contiguous", kind="ring", n_sockets=8
    ),
    "single-gpu": CTX.config_single_gpu(),
}

WORKLOADS = ("Rodinia-BFS", "Rodinia-Hotspot")


def assert_quiescent(system) -> None:
    """Assert every end-of-run law on a finished system."""
    engine = system.engine
    assert engine.pending_events == 0
    assert engine._ring_items == 0
    assert all(slot is None for slot in engine._ring)
    assert not engine._buckets
    assert not engine._times
    assert not engine._running
    for socket in system.sockets:
        live = [line for line, rec in socket._lines.items() if rec.rp is not None]
        assert live == [], f"socket {socket.socket_id}: in-flight reads {live}"
        assert not socket._cta_queue
        assert socket._active_ctas == 0
        assert socket._subkernel_notified
    if system.fabric is not None:
        for edge in system.fabric.edges:
            assert edge._pending_turns == 0, edge.label
    assert system.launcher is not None
    assert system.launcher.finished


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_finished_run_is_quiescent(name, workload):
    result, system = run_workload_traced(
        CONFIGS[name], get_workload(workload), TINY
    )
    assert result.kernels > 0
    assert_quiescent(system)


def test_families_cover_their_mechanisms():
    """The parametrization above exercises what it claims to."""
    systems = {name: build_system(config) for name, config in CONFIGS.items()}
    combined = systems["crossbar4-combined"]
    assert combined.balancers and combined.cache_controllers
    assert not systems["crossbar4-baseline"].balancers
    assert len(systems["ring8-migration"].sockets) == 8
    assert systems["ring8-migration"].page_table.policy.kind == (
        "access_counter_migration"
    )
    (single,) = systems["single-gpu"].sockets
    assert isinstance(single, LocalGpuSocket)
    assert systems["single-gpu"].fabric is None


def test_laws_catch_leftover_work():
    _, system = run_workload_traced(
        CONFIGS["crossbar4-baseline"], get_workload("Rodinia-BFS"), TINY
    )
    system.engine.schedule(3, lambda: None)
    with pytest.raises(AssertionError):
        assert_quiescent(system)
    system.engine.run()
    assert_quiescent(system)
    system.sockets[1]._active_ctas = 1
    with pytest.raises(AssertionError):
        assert_quiescent(system)
