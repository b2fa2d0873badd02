"""Tests for the ``repro lint`` static-analysis subsystem.

Each rule gets a minimal fixture project (written under ``tmp_path``)
containing exactly the violation it exists to catch, plus a clean
variant proving the rule does not fire on the sanctioned idiom.

The suite ends with the meta-test: the real linter over the real
``src``/``scripts`` trees must exit 0 against the committed baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.baseline import (
    diff_against_baseline,
    load_baseline,
    save_baseline,
)
from repro.analysis.checkers import all_rules, default_checkers
from repro.analysis.cli import main as lint_main
from repro.analysis.core import Finding, analyze, parse_suppressions

REPO_ROOT = Path(__file__).resolve().parent.parent


def _lint(root: Path, rules=None):
    """Run the default checkers over a fixture tree; returns findings."""
    return analyze([root], default_checkers(rules), root=root)


def _rules_of(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_determinism_flags_unseeded_and_global_rng(tmp_path):
    (tmp_path / "sim").mkdir()
    (tmp_path / "sim" / "mod.py").write_text(
        "import random\n"
        "rng = random.Random()\n"
        "value = random.random()\n"
    )
    findings = _lint(tmp_path, rules=("determinism",))
    messages = [f.message for f in findings]
    assert any("unseeded random.Random()" in m for m in messages)
    assert any("module-level random.random()" in m for m in messages)


def test_determinism_seeded_rng_is_clean(tmp_path):
    (tmp_path / "sim").mkdir()
    (tmp_path / "sim" / "mod.py").write_text(
        "import random\n"
        "rng = random.Random(1234)\n"
    )
    assert _lint(tmp_path, rules=("determinism",)) == []


def test_determinism_flags_wall_clock_only_in_sim_state(tmp_path):
    (tmp_path / "sim").mkdir()
    (tmp_path / "harness").mkdir()
    clock = "import time\nstart = time.perf_counter()\n"
    (tmp_path / "sim" / "engine.py").write_text(clock)
    (tmp_path / "harness" / "bench.py").write_text(clock)
    findings = _lint(tmp_path, rules=("determinism",))
    assert [f.path for f in findings] == ["sim/engine.py"]
    assert "wall-clock" in findings[0].message


def test_determinism_flags_builtin_hash(tmp_path):
    (tmp_path / "mod.py").write_text("key = hash('workload-name')\n")
    findings = _lint(tmp_path, rules=("determinism",))
    assert len(findings) == 1
    assert "hash()" in findings[0].message


def test_determinism_flags_set_iteration_in_sim_state(tmp_path):
    (tmp_path / "locality").mkdir()
    (tmp_path / "locality" / "mod.py").write_text(
        "def drain(pages):\n"
        "    live = set(pages)\n"
        "    for page in live:\n"
        "        print(page)\n"
    )
    findings = _lint(tmp_path, rules=("determinism",))
    assert len(findings) == 1
    assert "sorted" in findings[0].message


def test_determinism_sorted_set_iteration_is_clean(tmp_path):
    (tmp_path / "locality").mkdir()
    (tmp_path / "locality" / "mod.py").write_text(
        "def drain(pages):\n"
        "    live = set(pages)\n"
        "    for page in sorted(live):\n"
        "        print(page)\n"
    )
    assert _lint(tmp_path, rules=("determinism",)) == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_parse_suppressions_grammar():
    table = parse_suppressions(
        "x = 1\n"
        "y = hash(x)  # repro-lint: disable=determinism\n"
        "z = hash(x)  # repro-lint: disable=determinism, hot-path-alloc\n"
    )
    assert table == {
        2: frozenset({"determinism"}),
        3: frozenset({"determinism", "hot-path-alloc"}),
    }


def test_suppression_comment_silences_the_named_rule(tmp_path):
    (tmp_path / "mod.py").write_text(
        "a = hash('x')  # repro-lint: disable=determinism\n"
        "b = hash('y')  # repro-lint: disable=all\n"
        "c = hash('z')  # repro-lint: disable=hot-path-alloc\n"
    )
    findings = _lint(tmp_path, rules=("determinism",))
    # Only the line suppressing an unrelated rule still reports.
    assert [f.line for f in findings] == [3]


# ----------------------------------------------------------------------
# hot-path discipline
# ----------------------------------------------------------------------
def test_hot_marker_function_is_checked(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Walker:\n"
        "    def drain(self, items):  # repro-lint: hot\n"
        "        out = 0\n"
        "        for item in items:\n"
        "            pair = (item, 1)\n"
        "            out += self.table.size + self.table.size\n"
        "        return sorted(items, key=lambda x: x)\n"
    )
    findings = _lint(tmp_path)
    rules = _rules_of(findings)
    assert rules == ["hot-path-alloc", "hot-path-attr"]
    allocs = [f for f in findings if f.rule == "hot-path-alloc"]
    assert {("Tuple" in f.message) or ("lambda" in f.message)
            for f in allocs} == {True}
    attr = [f for f in findings if f.rule == "hot-path-attr"]
    assert len(attr) == 1
    assert "'self.table.size'" in attr[0].message
    assert attr[0].symbol == "Walker.drain"


def test_unmarked_function_is_not_checked(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def cold(items):\n"
        "    return [(i, 1) for i in items]\n"
    )
    assert _lint(tmp_path, rules=("hot-path-alloc", "hot-path-attr")) == []


def test_hot_loop_rebound_root_is_exempt(tmp_path):
    # ``item`` is rebound by the loop itself: hoisting item.field.x
    # would change semantics, so it must not be flagged.
    (tmp_path / "mod.py").write_text(
        "def drain(items):  # repro-lint: hot\n"
        "    total = 0\n"
        "    for item in items:\n"
        "        total += item.field.x\n"
        "        total += item.field.x\n"
        "    return total\n"
    )
    assert _lint(tmp_path, rules=("hot-path-attr",)) == []


def test_hot_nested_function_is_a_closure_finding(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def drain(items):  # repro-lint: hot\n"
        "    def helper(x):\n"
        "        return x + 1\n"
        "    return helper(len(items))\n"
    )
    findings = _lint(tmp_path, rules=("hot-path-alloc",))
    assert len(findings) == 1
    assert "nested function 'helper'" in findings[0].message


def test_hot_registry_names_real_paths():
    # The declared registry must keep pointing at functions that exist;
    # dotted patterns are resolved against the real tree elsewhere, here
    # we pin the module suffixes so a file rename surfaces loudly.
    from repro.analysis.checkers.hotpath import HOT_FUNCTIONS

    for suffix in HOT_FUNCTIONS:
        assert (REPO_ROOT / "src" / suffix).is_file(), suffix


# ----------------------------------------------------------------------
# obs hook discipline
# ----------------------------------------------------------------------
def test_obs_attribute_chain_hook_is_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Walker:\n"
        "    def drain(self, items):  # repro-lint: hot\n"
        "        for item in items:\n"
        "            self.tracer.on_read(item)\n"
        "        return len(items)\n"
    )
    findings = _lint(tmp_path, rules=("obs-hook-discipline",))
    assert len(findings) == 1
    assert "attribute chain 'self.tracer.on_read'" in findings[0].message
    assert findings[0].symbol == "Walker.drain"


def test_obs_tracer_conditional_guard_is_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def drain(items, tracer):  # repro-lint: hot\n"
        "    total = 0\n"
        "    for item in items:\n"
        "        if tracer is not None:\n"
        "            _obs_read(item)\n"
        "        total += item\n"
        "    return total\n"
    )
    findings = _lint(tmp_path, rules=("obs-hook-discipline",))
    messages = sorted(f.message for f in findings)
    assert len(messages) == 2
    assert "conditional on 'tracer'" in messages[0]
    assert "prebound hook call '_obs_read'" in messages[1]


def test_obs_prebound_noop_call_in_hot_function_is_flagged(tmp_path):
    # Even bound to NOOP, a hook call costs a call per op when tracing
    # is off; per-op tracing belongs in a traced subclass.
    (tmp_path / "mod.py").write_text(
        "from repro.obs.hooks import NOOP\n"
        "_obs_read = NOOP\n"
        "\n"
        "def drain(items):  # repro-lint: hot\n"
        "    total = 0\n"
        "    for item in items:\n"
        "        _obs_read(item)\n"
        "        total += item\n"
        "    return total\n"
    )
    findings = _lint(tmp_path, rules=("obs-hook-discipline",))
    assert len(findings) == 1
    assert "prebound hook call '_obs_read'" in findings[0].message
    assert findings[0].symbol == "drain"


def test_obs_prebound_noop_call_in_cold_function_is_clean(tmp_path):
    # The cold sites (per kernel, per migration, per turn) keep the
    # registry's prebound NOOP globals.
    (tmp_path / "mod.py").write_text(
        "from repro.obs.hooks import NOOP\n"
        "_obs_launch = NOOP\n"
        "\n"
        "def launch(kernel):\n"
        "    _obs_launch(kernel)\n"
        "    return kernel\n"
    )
    assert _lint(tmp_path, rules=("obs-hook-discipline",)) == []


def test_obs_cold_function_is_not_checked(tmp_path):
    # Outside the declared hot set the attribute-chain form is fine —
    # enable()/disable() and tracer methods are the normal cold-path API.
    (tmp_path / "mod.py").write_text(
        "def report(tracer):\n"
        "    if tracer is not None:\n"
        "        tracer.on_read(0)\n"
        "    return 1\n"
    )
    assert _lint(tmp_path, rules=("obs-hook-discipline",)) == []


# ----------------------------------------------------------------------
# baseline machinery
# ----------------------------------------------------------------------
def test_baseline_round_trip_and_drift(tmp_path):
    baseline_path = tmp_path / "base.json"
    old = Finding(rule="r", path="p.py", line=3, message="m", symbol="f")
    save_baseline(baseline_path, [old, old])
    baseline = load_baseline(baseline_path)
    assert baseline[old.key()] == 2

    # Same findings (different line): fully absorbed.
    moved = Finding(rule="r", path="p.py", line=9, message="m", symbol="f")
    diff = diff_against_baseline([moved, moved], baseline)
    assert not diff.new and diff.baselined == 2 and not diff.stale

    # A third instance of the same key is NEW (count-aware matching).
    diff = diff_against_baseline([moved, moved, moved], baseline)
    assert len(diff.new) == 1

    # One fixed instance leaves a stale count of 1.
    diff = diff_against_baseline([moved], baseline)
    assert not diff.new and diff.stale[0]["count"] == 1


def test_lint_cli_baseline_workflow(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("key = hash('x')\n")
    root = str(tmp_path)

    # New finding, no baseline: gate fails.
    assert lint_main(["mod.py", "--root", root]) == 1
    capsys.readouterr()

    # Grandfather it, then the same tree passes.
    assert lint_main(["mod.py", "--root", root, "--update-baseline"]) == 0
    capsys.readouterr()
    assert lint_main(["mod.py", "--root", root]) == 0
    assert "0 new finding(s), 1 baselined" in capsys.readouterr().out

    # A second violation is new despite the baseline.
    (tmp_path / "mod.py").write_text(
        "key = hash('x')\nother = hash('y')\n"
    )
    assert lint_main(["mod.py", "--root", root]) == 1
    capsys.readouterr()

    # Fixing everything leaves stale entries: warn, still exit 0.
    (tmp_path / "mod.py").write_text("key = 1\n")
    assert lint_main(["mod.py", "--root", root]) == 0
    out = capsys.readouterr().out
    assert "stale baseline entry" in out

    # --no-baseline ignores the file entirely.
    (tmp_path / "mod.py").write_text("key = hash('x')\n")
    assert lint_main(["mod.py", "--root", root, "--no-baseline"]) == 1


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_lint_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule, _ in all_rules():
        assert rule in out
    assert len(all_rules()) == 4


def test_lint_cli_unknown_rule_is_usage_error(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("x = 1\n")
    assert lint_main(
        ["mod.py", "--root", str(tmp_path), "--rules", "no-such-rule"]
    ) == 2
    assert "unknown rule" in capsys.readouterr().out


def test_lint_cli_no_files_is_usage_error(tmp_path, capsys):
    assert lint_main(["missing-dir", "--root", str(tmp_path)]) == 2
    assert "no Python files" in capsys.readouterr().out


def test_lint_cli_json_format(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("key = hash('x')\n")
    assert lint_main(
        ["mod.py", "--root", str(tmp_path), "--format", "json",
         "--no-baseline"]
    ) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["checked_files"] == 1
    assert payload["new_findings"][0]["rule"] == "determinism"


def test_lint_cli_syntax_error_is_a_finding(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("def broken(:\n")
    assert lint_main(
        ["mod.py", "--root", str(tmp_path), "--no-baseline"]
    ) == 1
    assert "syntax-error" in capsys.readouterr().out


def test_repro_cli_exposes_lint_subcommand(capsys):
    from repro.cli import main as repro_main

    assert repro_main(["lint", "--list-rules"]) == 0
    assert "determinism" in capsys.readouterr().out


# ----------------------------------------------------------------------
# the real tree
# ----------------------------------------------------------------------
def test_real_tree_passes_against_committed_baseline(capsys):
    # THE acceptance gate: src + scripts lint clean against the
    # committed baseline, from any working directory.
    assert lint_main(
        ["src", "scripts", "--root", str(REPO_ROOT)]
    ) == 0
    out = capsys.readouterr().out
    assert "OK: 0 new finding(s)" in out

