"""Observability layer tests (DESIGN.md, "Observability contract").

The headline guarantees:

* **Determinism** — two traced runs of the same config serialize to
  byte-identical Chrome payloads.
* **Zero overhead when off** — an untraced run's RunResult is
  byte-identical to a traced run's (no sampler), and every hook site
  is restored to NOOP once a traced run finishes.
* **Loadable output** — every exporter produces payloads that pass the
  Chrome-trace structural validation, and the wall-clock study trace
  strips to a deterministic remainder.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheArch, LinkPolicy, scaled_config
from repro.core.builder import build_system, run_workload_on, run_workload_traced
from repro.gpu.socket import GpuSocket, LocalGpuSocket
from repro.harness.runner import ExperimentContext
from repro.locality.spec import CTA_KINDS, PLACEMENT_KINDS, CtaSpec, PlacementSpec
from repro.metrics.export import result_to_json_dict
from repro.obs import NOOP, Tracer, is_enabled
from repro.obs import hooks as obs_hooks
from repro.obs.chrome import (
    TRACE_SCHEMA,
    canonical_json,
    strip_wall_clock,
    study_to_chrome,
    tracer_to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.topology.fabric import MultiHopFabric
from repro.topology.spec import build_topology
from repro.workloads.spec import SCALES, WorkloadScale
from repro.workloads.suite import get_workload

TINY = SCALES["tiny"]
WORKLOAD = "Rodinia-BFS"


def _config(arch=CacheArch.MEM_SIDE):
    return ExperimentContext(scale=TINY).config_cache(arch)


def _traced_payload(metrics_interval=0, label="t"):
    tracer = Tracer()
    _, system = run_workload_traced(
        _config(), get_workload(WORKLOAD), TINY,
        tracer=tracer, metrics_interval=metrics_interval,
    )
    return tracer_to_chrome(tracer, registry=system.metrics, label=label)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_same_config_traces_are_byte_identical():
    first = _traced_payload(metrics_interval=1000)
    second = _traced_payload(metrics_interval=1000)
    assert canonical_json(first) == canonical_json(second)


def test_traced_run_result_matches_untraced():
    # With no periodic sampler the tracer only observes; the RunResult
    # must be byte-identical to a plain run's (the golden contract).
    untraced = run_workload_on(_config(), get_workload(WORKLOAD), TINY)
    result, _ = run_workload_traced(
        _config(), get_workload(WORKLOAD), TINY, tracer=Tracer()
    )
    assert (
        json.dumps(result_to_json_dict(result), sort_keys=True)
        == json.dumps(result_to_json_dict(untraced), sort_keys=True)
    )


#: A scale small enough for a few dozen drawn runs per test session.
_FUZZ_SCALE = WorkloadScale(
    name="obs-fuzz", cta_cap=8, footprint_lines=512, ops_scale=0.1
)


@st.composite
def _small_configs(draw):
    """1-8 sockets, any L2 organization, static or dynamic links, any
    placement and CTA policy, on the crossbar or (3+ sockets) a ring."""
    n_sockets = draw(st.integers(1, 8))
    config = scaled_config(n_sockets=n_sockets, sms_per_socket=2)
    changes = {
        "cache_arch": draw(st.sampled_from(list(CacheArch))),
        "link_policy": draw(
            st.sampled_from([LinkPolicy.STATIC, LinkPolicy.DYNAMIC])
        ),
        "placement_spec": PlacementSpec(
            kind=draw(st.sampled_from(PLACEMENT_KINDS))
        ),
        "cta_spec": CtaSpec(kind=draw(st.sampled_from(CTA_KINDS))),
    }
    if n_sockets >= 3 and draw(st.booleans()):
        changes["topology"] = build_topology("ring", n_sockets, config.link)
    return replace(config, **changes)


@settings(max_examples=25, deadline=None)
@given(
    _small_configs(),
    st.sampled_from(["Rodinia-BFS", "Rodinia-Hotspot", "HPC-RSBench"]),
)
def test_traced_run_equals_untraced_over_drawn_configs(config, name):
    # A tracer with no sampler only observes: over drawn configs, the
    # traced system (traced sockets, walkers and fabric) must produce a
    # byte-identical RunResult to the untraced one, which is built from
    # the plain classes.
    workload = get_workload(name)
    untraced, plain = run_workload_traced(config, workload, _FUZZ_SCALE)
    tracer = Tracer()
    traced, system = run_workload_traced(
        config, workload, _FUZZ_SCALE, tracer=tracer, metrics_interval=0
    )
    assert (
        json.dumps(result_to_json_dict(traced), sort_keys=True)
        == json.dumps(result_to_json_dict(untraced), sort_keys=True)
    )
    assert {type(s) for s in plain.sockets} <= {GpuSocket, LocalGpuSocket}
    assert plain.fabric is None or type(plain.fabric) is MultiHopFabric
    assert all(s.tracer is tracer for s in system.sockets)
    assert tracer.n_bursts > 0 and tracer.read_spans
    if config.n_sockets > 1:
        assert system.fabric.tracer is tracer


@pytest.mark.xfail(strict=True, reason=(
    "RunResult.cycles is engine.now after the drain, so it counts the "
    "metric sampler's stale tick after the workload ends (ROADMAP 1(b))"
))
def test_sampled_run_cycles_match_untraced():
    config = ExperimentContext(scale=TINY).config_locality()
    workload = get_workload("Rodinia-Hotspot")
    untraced = run_workload_on(config, workload, TINY)
    traced, _ = run_workload_traced(
        config, workload, TINY, tracer=Tracer(), metrics_interval=7777
    )
    assert traced.cycles == untraced.cycles


# ---------------------------------------------------------------------------
# zero overhead when off
# ---------------------------------------------------------------------------

def test_hook_sites_restored_to_noop_after_traced_run():
    run_workload_traced(
        _config(), get_workload(WORKLOAD), TINY, tracer=Tracer()
    )
    assert not is_enabled()
    import sys

    for module_name, attr, _event in obs_hooks.sites():
        assert getattr(sys.modules[module_name], attr) is NOOP, (
            module_name, attr,
        )


def test_enable_is_exclusive():
    tracer = Tracer()
    obs_hooks.enable(tracer)
    try:
        with pytest.raises(RuntimeError):
            obs_hooks.enable(Tracer())
        assert is_enabled()
    finally:
        obs_hooks.disable()
    assert not is_enabled()
    obs_hooks.disable()  # idempotent


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

def test_trace_payload_is_valid_and_populated(tmp_path):
    payload = _traced_payload(metrics_interval=1000, label="bfs@tiny")
    validate_chrome_trace(payload)
    assert payload["metadata"]["trace_schema"] == TRACE_SCHEMA
    assert payload["metadata"]["label"] == "bfs@tiny"
    assert payload["metadata"]["bursts"]["n_bursts"] > 0
    cats = {event.get("cat") for event in payload["traceEvents"]}
    assert {"kernel", "read", "metric"} <= cats
    out = tmp_path / "trace.json"
    write_chrome_trace(payload, out)
    assert out.read_text() == canonical_json(payload) + "\n"


def test_validate_rejects_malformed_payloads():
    with pytest.raises(ValueError):
        validate_chrome_trace([])
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [], "metadata": {}})
    bad_phase = {
        "traceEvents": [{"ph": "Z", "name": "x", "pid": 1}],
        "metadata": {"trace_schema": TRACE_SCHEMA},
    }
    with pytest.raises(ValueError):
        validate_chrome_trace(bad_phase)
    open_span = {
        "traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 0, "ts": 0}],
        "metadata": {"trace_schema": TRACE_SCHEMA},
    }
    with pytest.raises(ValueError):
        validate_chrome_trace(open_span)


def test_tracer_caps_each_kind_with_exact_drop_counts():
    tracer = Tracer(max_events_per_kind=3)
    for i in range(10):
        tracer.on_fabric_send(0, 1, 32, i, i + 4, 2)
    assert len(tracer.fabric_sends) == 3
    assert tracer.dropped == {"fabric": 7}
    assert tracer.to_dict()["dropped"] == {"fabric": 7}


def _fake_telemetry(t0, dur=1.5):
    task = {"key": "Rodinia-BFS|0", "t_start": t0, "t_end": t0 + dur,
            "runs": 1, "events": 100, "cycles": 50, "wall_seconds": dur}
    return {
        "mode": "pool",
        "workers": {"repro-supervised-0": {
            "tasks": [task],
            "tally": {"runs": 1, "events": 100, "cycles": 50,
                      "wall_seconds": dur},
        }},
        "totals": {"runs": 1, "events": 100, "cycles": 50,
                   "wall_seconds": dur},
    }


def test_study_trace_strips_to_deterministic_remainder():
    first = study_to_chrome(_fake_telemetry(10.0, dur=1.5))
    second = study_to_chrome(_fake_telemetry(99.5, dur=0.3))
    validate_chrome_trace(first)
    assert first != second  # wall-clock durations differ...
    stripped = strip_wall_clock(first)
    assert canonical_json(stripped) == canonical_json(strip_wall_clock(second))
    assert "wall_seconds" not in stripped["metadata"]
    assert stripped["metadata"]["totals"] == {
        "runs": 1, "events": 100, "cycles": 50,
    }
    spans = [e for e in stripped["traceEvents"] if e.get("cat") == "wall"]
    assert spans and all(
        "ts" not in e and "dur" not in e and "tid" not in e for e in spans
    )
