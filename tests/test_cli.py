"""Unit tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "HPC-AMG" in out
    assert "Other-Stream-Triad" in out
    assert out.count("\n") == 41


def test_run_command(capsys):
    code = main([
        "run", "Lonestar-SP", "--sockets", "2", "--scale", "tiny",
        "--cache", "numa_aware", "--links", "dynamic",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "cycles" in out
    assert "remote_fraction" in out


def test_experiment_command(capsys):
    assert main(["experiment", "figure2", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out


def test_experiment_command_accepts_jobs(capsys):
    # figure2 is analytic (no simulations), so this exercises the
    # parallel prewarm plumbing without any worker processes.
    assert main(["experiment", "figure2", "--scale", "tiny",
                 "--jobs", "2"]) == 0
    assert "Figure 2" in capsys.readouterr().out


def test_experiment_command_cache_dir(tmp_path, capsys):
    assert main(["experiment", "table1", "--scale", "tiny",
                 "--cache-dir", str(tmp_path)]) == 0
    assert "Table 1" in capsys.readouterr().out


def test_trace_workload_command(tmp_path, capsys):
    out_file = tmp_path / "sp.trace"
    code = main(["trace", "workload", "Lonestar-SP", str(out_file),
                 "--scale", "tiny"])
    assert code == 0
    assert out_file.exists()
    assert "recorded" in capsys.readouterr().out
    from repro.workloads.trace import load_trace

    assert load_trace(out_file).workload == "Lonestar-SP"


def test_trace_run_command(tmp_path, capsys):
    import json

    out_file = tmp_path / "run.trace.json"
    code = main(["trace", "run", "Rodinia-BFS", str(out_file),
                 "--scale", "tiny"])
    assert code == 0
    assert "kernel spans" in capsys.readouterr().out
    from repro.obs.chrome import validate_chrome_trace

    payload = json.loads(out_file.read_text())
    validate_chrome_trace(payload)
    assert any(e.get("cat") == "kernel" for e in payload["traceEvents"])


def test_run_command_trace_flag(tmp_path, capsys):
    import json

    out_file = tmp_path / "bfs.trace.json"
    code = main(["run", "Rodinia-BFS", "--scale", "tiny",
                 "--trace", str(out_file)])
    assert code == 0
    assert "trace" in capsys.readouterr().out
    from repro.obs.chrome import validate_chrome_trace

    validate_chrome_trace(json.loads(out_file.read_text()))


@pytest.mark.parametrize("argv", [
    ["run", "Rodinia-BFS", "--trace", "t.json", "--metrics-interval", "-5"],
    ["trace", "run", "Rodinia-BFS", "t.json", "--metrics-interval", "-5"],
])
def test_negative_metrics_interval_is_a_usage_error(argv, tmp_path,
                                                    monkeypatch, capsys):
    # A negative interval used to turn the sampler off silently.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "--metrics-interval" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("interval", ["1", "100"])
def test_run_metrics_interval_needs_trace(interval, capsys):
    # Without --trace there is no sampler to configure, so the option
    # is a mistake, not a no-op.
    code = main(["run", "Rodinia-BFS", "--scale", "tiny",
                 "--metrics-interval", interval])
    out, err = capsys.readouterr()
    assert code == 2
    assert "error: --metrics-interval needs --trace" in err
    assert "cycles" not in out


def test_trace_study_command(tmp_path, capsys):
    import json

    from repro.config import scaled_config
    from repro.harness.parallel import RunTask
    from repro.harness.supervisor import RetryPolicy, run_supervised
    from repro.workloads.spec import TINY

    report = run_supervised(
        [RunTask("Rodinia-BFS", scaled_config())], TINY, 1,
        RetryPolicy(), lambda task, result: None,
    )
    study = tmp_path / "study.json"
    study.write_text(json.dumps({"telemetry": report.telemetry}))
    out_file = tmp_path / "study.trace.json"
    assert main(["trace", "study", str(study), str(out_file)]) == 0
    assert "task spans" in capsys.readouterr().out
    from repro.obs.chrome import validate_chrome_trace

    validate_chrome_trace(json.loads(out_file.read_text()))


def test_trace_study_command_rejects_missing_telemetry(tmp_path, capsys):
    import json

    study = tmp_path / "bare.json"
    study.write_text(json.dumps({"figure3": {}}))
    out_file = tmp_path / "out.json"
    assert main(["trace", "study", str(study), str(out_file)]) == 2
    assert "telemetry" in capsys.readouterr().err


def test_every_experiment_is_registered():
    for figure in ("table1", "table2", "figure2", "figure3", "figure5",
                   "figure6", "figure8", "figure9", "figure10", "figure11",
                   "switch_time", "writeback", "power", "topology",
                   "locality"):
        assert figure in EXPERIMENTS


def test_run_command_with_topology(capsys):
    code = main([
        "run", "Lonestar-SP", "--sockets", "4", "--scale", "tiny",
        "--topology", "ring",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean_hops" in out
    assert "gpu0-gpu1" in out


def test_topology_describe_command(capsys):
    assert main(["topology", "describe", "switch_tree", "--sockets", "8"]) == 0
    out = capsys.readouterr().out
    assert "switch_tree8x2" in out
    assert "pkg0-root" in out
    assert "diameter: 4 hops" in out
    assert "bisection bandwidth" in out


def test_parser_rejects_bad_topology():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["topology", "describe", "torus"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "HPC-AMG", "--topology", "torus"])


def test_unknown_workload_is_an_error():
    from repro.errors import WorkloadError

    with pytest.raises(WorkloadError):
        main(["run", "No-Such-Workload"])


def test_parser_rejects_bad_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "figure99"])


def test_run_rejects_topology_on_one_socket(capsys):
    # The construction-asymmetry remnant: a 1-socket system never builds
    # a fabric, so a multi-node spec must be rejected cleanly up front.
    code = main([
        "run", "Lonestar-SP", "--sockets", "1", "--topology", "ring",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "at least 2 sockets" in err


@pytest.mark.parametrize("sockets", ["0", "-2"])
def test_run_rejects_nonpositive_socket_count(sockets, capsys):
    # A bad --sockets is a ConfigError from scaled_config: a clean
    # usage error, not a traceback.
    code = main(["run", "Lonestar-SP", "--sockets", sockets])
    assert code == 2
    assert "error: need at least one socket" in capsys.readouterr().err


def test_run_command_with_locality_policies(capsys):
    code = main([
        "run", "Lonestar-SP", "--sockets", "4", "--scale", "tiny",
        "--topology", "ring",
        "--placement", "distance_weighted_first_touch",
        "--cta-policy", "distance_affine",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "distance_weighted_first_touch" in out
    assert "re_homed_pages" in out


def test_topology_describe_distances(capsys):
    assert main([
        "topology", "describe", "ring", "--sockets", "4", "--distances",
    ]) == 0
    out = capsys.readouterr().out
    assert "Distance model: hop matrix" in out
    assert "bottleneck bandwidth" in out
    assert "mean socket distance (model): 1.33 hops" in out


def test_parser_rejects_unknown_locality_kinds():
    for flag, kind in (
        ("--placement", "magic"),
        ("--cta-policy", "magic"),
        # Each CTA policy has one name; the removed alias is unknown.
        ("--cta-policy", "round_robin"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "HPC-AMG", flag, kind])
        assert exit_info.value.code == 2
