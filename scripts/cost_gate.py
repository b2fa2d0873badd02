#!/usr/bin/env python
"""Cost gate: perfbench's deterministic cost counts against a reference.

For each perfbench leg it runs, from the repository root::

    python3 perfbench/run.py --workload LEG --seed 1 --seconds 2 --trace 1

and compares the last line of its output (one JSON object) with the
committed ``scripts/cost_reference.json``. The gate fails when

* the run exits non-zero, or reports ``correct: false`` or ``failed > 0``;
* a counted metric differs from the reference, up or down. The counted
  metrics are ``workloads.ops``, ``sim.events``, ``sim.events_per_op``
  and every ``*.calls_per_op`` (cProfile calls of ``repro`` frames per
  simulated op). They do not depend on the host, so the comparison is
  exact, and a fall must be re-recorded like a rise so the reference
  never goes stale;
* the interpreter's minor version is not the recorded one (call counts
  move between minor versions);
* on a sim leg, the drain rate ``sim.events / sim.drain_s`` is under the
  recorded floor. perfbench scales ``sim.drain_s`` to its reference host
  by a speed probe, and the floor is ``FLOOR_FRACTION`` of the median
  rate of the recorded runs.

``--record`` rewrites the reference instead: it runs every leg
``RECORD_RUNS`` times, insists that the counts agree across runs, and
stores the counts, each run's drain rate and the floors. A change that
moves a count on purpose re-records and says why in CHANGES.md.

Usage, from any directory (about a minute per leg)::

    python3 scripts/cost_gate.py            # gate: exit 1 on any miss
    python3 scripts/cost_gate.py --record   # rewrite the reference
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "cost_reference.json"

LEGS = ("crossbar4", "ring8", "single-gpu", "study")
#: Legs whose drain rate has a floor (the study's drain is split across
#: worker processes).
SIM_LEGS = ("crossbar4", "ring8", "single-gpu")
ENTRY = "perfbench/run.py"
ARGS = ("--seed", "1", "--seconds", "2", "--trace", "1")
COUNTED = ("workloads.ops", "sim.events", "sim.events_per_op")
RECORD_RUNS = 3
FLOOR_FRACTION = 0.75
RECORD_HINT = ("if the change is meant to move it, re-record with "
               "--record and say why in CHANGES.md")


def python_version() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def counts(result: dict) -> dict:
    """The counted metrics of one perfbench result, by name."""
    return {
        name: entry["value"]
        for name, entry in sorted(result["metrics"].items())
        if name in COUNTED or name.endswith(".calls_per_op")
    }


def drain_rate(result: dict) -> float:
    """Engine events per reference-host second of drain."""
    metrics = result["metrics"]
    seconds = metrics["sim.drain_s"]["value"]
    return metrics["sim.events"]["value"] / seconds if seconds else 0.0


def version_problem(reference: dict, python: str) -> str | None:
    if python == reference["python"]:
        return None
    return (f"running Python {python}, but the reference was recorded "
            f"under {reference['python']}; call counts move between "
            "minor versions")


def check(leg: str, result: dict, reference: dict) -> list[str]:
    """Every way ``leg``'s perfbench result misses the reference."""
    problems = []
    if result.get("correct") is not True or result.get("failed", 0) > 0:
        problems.append(f"correct {result.get('correct')}, failed "
                        f"{result.get('failed')}")
    expected = reference["legs"][leg]
    got = counts(result)
    for name in sorted(set(expected["counts"]) | set(got)):
        want, have = expected["counts"].get(name), got.get(name)
        if want == have:
            continue
        if want is None or have is None:
            moved = "missing from the reference" if want is None else "gone"
        else:
            moved = "up" if have > want else "down"
        problems.append(f"{name} {want} -> {have} ({moved}); {RECORD_HINT}")
    floor = expected.get("drain_floor")
    if floor is not None and drain_rate(result) < floor:
        problems.append(f"drain rate {drain_rate(result):,.0f} events/s is "
                        f"under the floor {floor:,.0f}")
    return problems


def run_leg(leg: str) -> tuple[int, dict | None]:
    """Run perfbench on one leg: its exit code and its result line."""
    proc = subprocess.run(
        [sys.executable, ENTRY, "--workload", leg, *ARGS],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def gate() -> int:
    reference = json.loads(REFERENCE.read_text())
    problem = version_problem(reference, python_version())
    if problem:
        print(f"cost gate: {problem}")
        return 1
    failed = 0
    for leg in LEGS:
        code, result = run_leg(leg)
        problems = [f"perfbench exited {code}"] if code else []
        if result is None:
            problems.append("perfbench printed no result line")
        else:
            problems += check(leg, result, reference)
        if problems:
            failed += 1
            for problem in problems:
                print(f"FAIL {leg}: {problem}")
            continue
        rate = drain_rate(result)
        floor = reference["legs"][leg].get("drain_floor")
        print(f"ok   {leg}: {result['metrics']['sim.events']['value']} "
              "events, counts exact"
              + (f", drain {rate:,.0f} >= {floor:,.0f} events/s"
                 if floor else ""))
    print(f"cost gate: {len(LEGS) - failed}/{len(LEGS)} legs pass")
    return 1 if failed else 0


def record() -> int:
    runs: dict[str, list[dict]] = {leg: [] for leg in LEGS}
    for _ in range(RECORD_RUNS):
        for leg in LEGS:
            code, result = run_leg(leg)
            if code or result is None or not result["correct"]:
                print(f"cost gate: {leg} run failed (exit {code}); "
                      "nothing recorded")
                return 1
            runs[leg].append(result)
    legs = {}
    for leg, results in runs.items():
        if any(counts(r) != counts(results[0]) for r in results):
            print(f"cost gate: {leg} counts differ between runs; "
                  "nothing recorded")
            return 1
        entry = {"counts": counts(results[0])}
        if leg in SIM_LEGS:
            rates = [round(drain_rate(r)) for r in results]
            entry["drain_rates"] = rates
            entry["drain_floor"] = round(
                FLOOR_FRACTION * statistics.median(rates))
        legs[leg] = entry
    reference = {
        "python": python_version(),
        "command": f"python3 {ENTRY} --workload LEG {' '.join(ARGS)}",
        "floor_fraction": FLOOR_FRACTION,
        "legs": legs,
    }
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    for leg, entry in legs.items():
        print(f"recorded {leg}: {entry['counts']['sim.events']} events"
              + (f", drain rates {entry['drain_rates']} events/s, floor "
                 f"{entry['drain_floor']}" if leg in SIM_LEGS else ""))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="The reference is scripts/cost_reference.json.")
    parser.add_argument(
        "--record", action="store_true",
        help=f"run every leg {RECORD_RUNS} times and rewrite the reference")
    args = parser.parse_args(argv)
    return record() if args.record else gate()


if __name__ == "__main__":
    raise SystemExit(main())
