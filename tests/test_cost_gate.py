"""The cost gate's comparator (``scripts/cost_gate.py``) on synthetic data.

No perfbench run: each test builds one leg's result line and a
reference by hand and checks what the comparator reports.
"""

import copy
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "cost_gate.py"
_SPEC = importlib.util.spec_from_file_location("cost_gate", _PATH)
cost_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cost_gate)

COUNTS = {
    "workloads.ops": 420096,
    "sim.events": 1168769,
    "sim.events_per_op": 2.782147413924436,
    "sim.calls_per_op": 3.0884131246191346,
    "gpu.calls_per_op": 2.0000690318403413,
    "obs.calls_per_op": 2.7600000952163315,
}


def _result(**overrides):
    metrics = {name: {"value": value, "unit": "count"}
               for name, value in COUNTS.items()}
    # 1,168,769 events in 2.2 s: about 531k events/s.
    metrics["sim.drain_s"] = {"value": 2.2, "unit": "s"}
    metrics["gpu.self_share"] = {"value": 0.2, "unit": "ratio"}
    result = {"correct": True, "attempted": 18, "failed": 0,
              "metrics": metrics}
    for name, value in overrides.items():
        if name in ("correct", "failed"):
            result[name] = value
        else:
            metrics[name]["value"] = value
    return result


REFERENCE = {
    "python": "3.11",
    "legs": {
        "crossbar4": {
            "counts": dict(COUNTS),
            "drain_rates": [531000, 520000, 540000],
            "drain_floor": 398250,
        },
    },
}


def _check(result):
    return cost_gate.check("crossbar4", result, copy.deepcopy(REFERENCE))


def test_exact_match_passes():
    assert _check(_result()) == []


def test_counts_ignore_host_metrics():
    result = _result()
    result["metrics"]["gpu.self_share"]["value"] = 0.9
    assert cost_gate.counts(result) == COUNTS


def test_calls_per_op_up_fails_naming_the_metric():
    problems = _check(_result(**{"gpu.calls_per_op": 2.0001}))
    assert len(problems) == 1
    assert problems[0].startswith("gpu.calls_per_op 2.0000690318403413 "
                                  "-> 2.0001 (up)")


@pytest.mark.parametrize("name", ["sim.events", "workloads.ops"])
def test_count_down_fails_with_record_hint(name):
    problems = _check(_result(**{name: COUNTS[name] - 1}))
    assert len(problems) == 1
    assert name in problems[0] and "(down)" in problems[0]
    assert "--record" in problems[0]


def test_new_counted_metric_fails():
    result = _result()
    result["metrics"]["harness.calls_per_op"] = {"value": 1.0, "unit": "1/op"}
    problems = _check(result)
    assert len(problems) == 1
    assert "harness.calls_per_op" in problems[0]


def test_drain_rate_under_the_floor_fails():
    # 1,168,769 events in 3.0 s is about 390k events/s, under 398,250.
    problems = _check(_result(**{"sim.drain_s": 3.0}))
    assert len(problems) == 1
    assert "under the floor 398,250" in problems[0]


def test_drain_rate_has_no_floor_without_one_recorded():
    reference = copy.deepcopy(REFERENCE)
    del reference["legs"]["crossbar4"]["drain_floor"]
    result = _result(**{"sim.drain_s": 30.0})
    assert cost_gate.check("crossbar4", result, reference) == []


@pytest.mark.parametrize("override", [{"correct": False}, {"failed": 1}])
def test_failed_result_fails(override):
    problems = _check(_result(**override))
    assert problems and problems[0].startswith("correct ")


def test_python_version_mismatch_fails():
    assert cost_gate.version_problem(REFERENCE, "3.11") is None
    problem = cost_gate.version_problem(REFERENCE, "3.12")
    assert "3.12" in problem and "3.11" in problem
