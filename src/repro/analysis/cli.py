"""``repro lint`` — run the contract checkers with a baseline gate.

Exit codes (CI contract):

* ``0`` — no findings beyond the committed baseline (stale baseline
  entries only warn: they mean a grandfathered finding was fixed and
  the baseline should be regenerated);
* ``1`` — at least one new finding (or an unreadable baseline);
* ``2`` — usage errors (no files matched, unknown rule names).

Typical invocations::

    repro lint src scripts                  # text report, exit code gate
    repro lint src scripts --format json    # machine-readable (CI)
    repro lint src --update-baseline        # re-grandfather the current set
    repro lint src --no-baseline            # absolute report, no gate
    repro lint --list-rules                 # rule catalogue
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.analysis.baseline import (
    BASELINE_NAME,
    diff_against_baseline,
    load_baseline,
    save_baseline,
)
from repro.analysis.checkers import all_rules, default_checkers
from repro.analysis.core import analyze, iter_python_files
from repro.analysis.reporters import render_json, render_text


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to an (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", default=["src", "scripts"],
        help="files or directories to lint (default: src scripts)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=f"baseline file (default: <root>/{BASELINE_NAME} if present)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline: every finding is reported and gates",
    )
    parser.add_argument(
        "--rules", default=None, metavar="RULE[,RULE...]",
        help="run only the named rules (see --list-rules)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="project root for relative paths/baseline (default: cwd)",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute ``repro lint`` from parsed arguments."""
    if args.list_rules:
        for rule, description in all_rules():
            print(f"{rule:22s} {description}")
        return 0

    rules: tuple[str, ...] | None = None
    if args.rules:
        rules = tuple(r.strip() for r in args.rules.split(",") if r.strip())
        known = {rule for rule, _ in all_rules()}
        unknown = sorted(set(rules) - known)
        if unknown:
            print(f"error: unknown rule(s): {', '.join(unknown)} "
                  f"(see --list-rules)")
            return 2

    root = Path(args.root).resolve() if args.root else Path.cwd().resolve()
    paths = [Path(p) if Path(p).is_absolute() else root / p
             for p in args.paths]
    files = iter_python_files(paths)
    if not files:
        print(f"error: no Python files under: "
              f"{', '.join(str(p) for p in args.paths)}")
        return 2

    findings = analyze(paths, default_checkers(rules), root=root)

    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_absolute():
            baseline_path = root / baseline_path
    else:
        baseline_path = root / BASELINE_NAME

    if args.update_baseline:
        count = save_baseline(baseline_path, findings)
        print(f"wrote {count} baselined finding(s) to {baseline_path}")
        return 0

    if args.no_baseline or not baseline_path.exists():
        baseline = None
    else:
        try:
            baseline = load_baseline(baseline_path)
        except (ValueError, OSError) as error:
            print(f"error: cannot read baseline {baseline_path}: {error}")
            return 1

    diff = diff_against_baseline(findings, baseline or {})
    if args.format == "json":
        print(render_json(findings, diff, len(files)))
    else:
        print(render_text(findings, diff, len(files)))
    return 1 if diff.new else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="contract-enforcing static analysis for the repro tree",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
