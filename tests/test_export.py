"""Unit tests for result exporters."""

import json
from dataclasses import MISSING, fields

from repro.config import scaled_config
from repro.core.builder import run_workload_on
from repro.metrics.export import (
    RUN_COLUMNS,
    read_csv,
    result_from_json_dict,
    result_to_json_dict,
    run_to_dict,
    write_csv,
    write_json,
)
from repro.metrics.report import EdgeStats, RunResult, SocketStats
from repro.sim.stats import TimeSeries
from repro.workloads.spec import TINY
from repro.workloads.synthetic import make_workload


def results(n=2):
    cfg = scaled_config(n_sockets=2, sms_per_socket=2)
    out = []
    for i in range(n):
        wl = make_workload(f"exp-{i}", n_ctas=8, slices_per_cta=2,
                           ops_per_slice=4, iterations=1)
        out.append(run_workload_on(cfg, wl, TINY))
    return out


def test_run_to_dict_has_all_columns():
    (result,) = results(1)
    flat = run_to_dict(result)
    assert set(flat) == set(RUN_COLUMNS)
    assert flat["cycles"] == result.cycles
    assert 0.0 <= flat["l1_hit_rate"] <= 1.0


def test_csv_roundtrip(tmp_path):
    runs = results(2)
    path = tmp_path / "runs.csv"
    assert write_csv(runs, path) == 2
    back = read_csv(path)
    assert len(back) == 2
    assert back[0]["workload"] == "exp-0"
    assert back[0]["cycles"] == runs[0].cycles
    assert isinstance(back[0]["remote_fraction"], float)


def test_json_export(tmp_path):
    runs = results(1)
    path = tmp_path / "runs.json"
    assert write_json(runs, path) == 1
    data = json.loads(path.read_text())
    assert data[0]["workload"] == "exp-0"
    assert data[0]["n_sockets"] == 2


def _counters(cls, start, **fixed):
    """``cls`` with every field not in ``fixed`` set to a distinct int."""
    names = [f.name for f in fields(cls) if f.name not in fixed]
    return cls(**fixed, **{name: start + i for i, name in enumerate(names)})


def test_every_run_result_field_round_trips_through_json():
    """The disk cache's JSON form is lossless for every field.

    Every field is set to a non-default value (the exporter omits some
    empty defaults to keep goldens stable), so a field added to
    ``RunResult`` later fails here until it is populated, and then until
    the exporter carries it both ways.
    """
    result = RunResult(
        workload="Rodinia-BFS",
        config_label="combined@ring4",
        cycles=123_457,
        n_sockets=2,
        sockets=[_counters(SocketStats, 20 * s + 1, socket_id=s)
                 for s in range(2)],
        switch_bytes=65_536,
        migrations=17,
        kernels=3,
        link_timelines={
            "link0.egress": TimeSeries("link0.egress", [0, 5000], [0.25, 0.5]),
        },
        partition_timelines={
            "socket1.l2": TimeSeries("socket1.l2", [5000], [0.75]),
        },
        kernel_launch_times=[0, 2000, 41_000],
        edges=[_counters(EdgeStats, 100, name="gpu0-gpu1", a="gpu0",
                         b="gpu1")],
        hop_histogram={1: 40, 2: 9},
        re_homed_pages=5,
    )
    for f in fields(RunResult):
        value = getattr(result, f.name)
        if f.default is not MISSING:
            default = f.default
        elif f.default_factory is not MISSING:
            default = f.default_factory()
        else:
            default = type(value)()  # a required field: its type's zero
        assert value != default, f"RunResult.{f.name} is left at its default"

    payload = json.loads(json.dumps(result_to_json_dict(result)))
    assert result_from_json_dict(payload) == result
