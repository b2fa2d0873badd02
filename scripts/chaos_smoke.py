#!/usr/bin/env python
"""Chaos smoke: the figure suite survives faults and kills bit-identically.

The CI companion of the fault-tolerant execution layer (DESIGN.md,
"Failure-handling contract" and its "Study journal"). Two legs
over the same figure grid, both opening with a clean serial reference:

``--leg faults`` (the default):

1. **Clean reference** — the suite serially, chaos off, no cache.
2. **Chaos pass** — the suite with ``--jobs N --keep-going`` under a
   seeded fault plan that crashes one worker mid-task, injects a
   transient exception, garbles a fraction of disk-cache entries after
   they are written, and fails a fraction of cache writes with ENOSPC.
   Must exit 0, produce figures **byte-identical** to the reference
   (modulo ``wall_seconds``/``jobs``/``telemetry``), and leave a failure report that
   lists every injected fault with its attempt transcript.
3. **Quarantine pass** — the suite again over the *same* cache
   directory, so the entries pass 2 corrupted are hit on ``get``,
   quarantined, re-simulated, and the figures still match the
   reference exactly.

``--leg kill-resume``:

1. **Clean reference** — as above.
2. **Kill pass** — the suite with ``--checkpoint-dir`` in a subprocess,
   SIGKILLed (the whole process group, mid-write and all) once the
   study journal records enough finished cells.
3. **Resume pass** — ``--resume`` over the same checkpoint directory
   with the disk cache still off, so finished cells can only come from
   the journal. Must exit 0 and produce figures **byte-identical** to
   the uninterrupted reference.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py              # CI defaults
    PYTHONPATH=src python scripts/chaos_smoke.py --leg kill-resume
    PYTHONPATH=src python scripts/chaos_smoke.py --jobs 2 --workdir /tmp/chaos
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run_experiments  # noqa: E402  (sibling script, not a package)

from repro.harness.faults import FAULT_PLAN_ENV  # noqa: E402

#: The seeded chaos schedule. The ``*_nth`` directives make one crash
#: and one transient fault fire regardless of how the hashed rate draws
#: land for this source revision; the ``corrupt``/``enospc`` rates hit a
#: deterministic ~20%/5% of cache entries (entry-keyed, so pass 3 sees
#: exactly the entries pass 2 garbled).
PLAN = "seed=1017;crash_nth=1;transient_nth=3;corrupt=0.2;enospc=0.05"


def load_figures(path: Path) -> dict:
    data = json.loads(path.read_text())
    # Timing, worker count, and harness telemetry (wall-clock worker
    # spans) legitimately differ between runs.
    data.pop("wall_seconds", None)
    data.pop("jobs", None)
    data.pop("telemetry", None)
    return data


def run_suite(argv: list[str]) -> None:
    code = run_experiments.main(argv)
    assert code == 0, f"run_experiments {argv} exited {code}"


def journal_done_count(journal: Path) -> int:
    """Count ``done`` cells in a study journal, tolerating torn tails."""
    try:
        lines = journal.read_text().splitlines()
    except OSError:
        return 0
    done = 0
    for line in lines:
        try:
            if json.loads(line)["payload"]["kind"] == "done":
                done += 1
        except (ValueError, KeyError, TypeError):
            continue
    return done


def leg_kill_resume(args, work: Path, common: list[str],
                    reference: dict, t0: float) -> int:
    """SIGKILL a checkpointed suite mid-run; --resume must reproduce it."""
    ckpt = work / "ckpt"
    killed = work / "killed.json"
    script = Path(__file__).resolve().parent / "run_experiments.py"
    env = dict(os.environ)
    env.pop(FAULT_PLAN_ENV, None)
    proc = subprocess.Popen(
        [sys.executable, str(script), "--output", str(killed), *common,
         "--jobs", str(args.jobs), "--no-cache",
         "--checkpoint-dir", str(ckpt)],
        env=env, start_new_session=True,
    )
    journal = ckpt / "journal.jsonl"
    target = args.kill_after
    deadline = time.time() + 600
    while time.time() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"suite finished (exit {proc.returncode}) before "
                f"{target} cells were journaled; grid too small for the "
                "kill to land"
            )
        if journal_done_count(journal) >= target:
            break
        time.sleep(0.2)
    else:
        raise AssertionError(
            f"timed out waiting for {target} journaled cells"
        )
    # Kill the whole process group without warning — workers, supervisor,
    # and any append in flight.
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    pre_kill = journal_done_count(journal)
    assert pre_kill >= target, (pre_kill, target)
    print(f"[chaos-smoke] SIGKILLed the suite with {pre_kill} cells "
          f"journaled {time.time() - t0:.0f}s", flush=True)

    # Resume with the cache still off: finished cells can only come
    # from the journal.
    resumed = work / "resumed.json"
    run_suite([
        "--output", str(resumed), *common, "--jobs", str(args.jobs),
        "--no-cache", "--checkpoint-dir", str(ckpt), "--resume",
    ])
    assert load_figures(resumed) == reference, (
        "resumed figures diverge from the uninterrupted reference"
    )
    assert journal_done_count(journal) > pre_kill, (
        "resume re-ran nothing; the kill landed after the grid finished"
    )
    print(f"[chaos-smoke] OK: resume after SIGKILL reproduced the "
          f"reference byte-for-byte ({pre_kill} cells reused, "
          f"{time.time() - t0:.0f}s)", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="tiny")
    parser.add_argument("--workloads", default="compact")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--workdir", default="chaos-smoke",
                        help="scratch directory for outputs + cache")
    parser.add_argument("--leg", choices=("faults", "kill-resume"),
                        default="faults",
                        help="faults: injected crash/corruption chaos; "
                        "kill-resume: SIGKILL mid-suite, then --resume")
    parser.add_argument("--kill-after", type=int, default=5, metavar="N",
                        help="kill-resume leg: SIGKILL once N cells are "
                        "journaled done")
    args = parser.parse_args(argv)

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    cache_dir = work / "cache"
    common = ["--scale", args.scale, "--workloads", args.workloads]
    t0 = time.time()

    # -- pass 1: clean serial reference --------------------------------
    os.environ.pop(FAULT_PLAN_ENV, None)
    clean = work / "clean.json"
    run_suite(["--output", str(clean), *common, "--jobs", "1", "--no-cache"])
    reference = load_figures(clean)
    print(f"[chaos-smoke] clean reference done {time.time() - t0:.0f}s",
          flush=True)

    if args.leg == "kill-resume":
        return leg_kill_resume(args, work, common, reference, t0)

    # -- pass 2: chaos run, fresh cache --------------------------------
    os.environ[FAULT_PLAN_ENV] = PLAN
    chaos = work / "chaos.json"
    chaos_report = work / "chaos.failures.json"
    run_suite([
        "--output", str(chaos), *common,
        "--jobs", str(args.jobs), "--keep-going",
        "--cache-dir", str(cache_dir), "--retry-base-delay", "0.05",
        "--task-timeout", "300", "--failure-report", str(chaos_report),
    ])
    assert load_figures(chaos) == reference, (
        "chaos run figures diverge from the fault-free reference"
    )
    report = json.loads(chaos_report.read_text())
    assert report["ok"], "chaos run did not recover every task"
    assert report["tasks"], "no injected fault made it into the report"
    assert all(t["status"] == "recovered" for t in report["tasks"])
    outcomes = {a["outcome"] for t in report["tasks"] for a in t["attempts"]}
    assert "crash" in outcomes, f"injected crash missing from {outcomes}"
    assert "error" in outcomes, f"injected transient missing from {outcomes}"
    assert all(t["repro_command"].startswith("repro run ")
               for t in report["tasks"])
    print(f"[chaos-smoke] chaos pass recovered "
          f"{len(report['tasks'])} faulted tasks, figures bit-identical "
          f"{time.time() - t0:.0f}s", flush=True)

    # -- pass 3: same cache, corrupted entries must quarantine ---------
    requarantine = work / "quarantine.json"
    second_report = work / "quarantine.failures.json"
    run_suite([
        "--output", str(requarantine), *common, "--jobs", str(args.jobs),
        "--cache-dir", str(cache_dir), "--retry-base-delay", "0.05",
        "--failure-report", str(second_report),
    ])
    assert load_figures(requarantine) == reference, (
        "post-quarantine figures diverge from the fault-free reference"
    )
    cache_stats = json.loads(second_report.read_text())["cache"]
    assert cache_stats is not None and cache_stats["corrupt"] > 0, (
        f"expected quarantined entries, got cache stats {cache_stats}"
    )
    quarantined = list(cache_dir.glob("*.corrupt"))
    assert quarantined, "no .corrupt files left behind by quarantine"
    print(f"[chaos-smoke] OK: {cache_stats['corrupt']} corrupt entries "
          f"quarantined ({len(quarantined)} on disk), "
          f"{cache_stats['put_errors']} degraded writes, figures "
          f"bit-identical across all passes ({time.time() - t0:.0f}s)",
          flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
