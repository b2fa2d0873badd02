"""`repro lint`: contract-enforcing static analysis for this repository.

Two of the simulator's load-bearing guarantees — bit-identical goldens
under ``(time, seq)`` event order, and the zero-alloc hot-path
discipline — are runtime-tested but easy to regress silently: one
unseeded ``random.Random()`` or one closure allocated inside
``access_burst`` only surfaces later as a flaky golden or a cost-gate
failure. This package enforces those contracts *before* merge with
per-file AST checkers. Contracts that span modules (config identity,
the ``RunResult`` JSON round-trip, the policy registries) are runtime
tests instead (DESIGN.md "Static contracts"):

* :mod:`repro.analysis.core` — the shared single-parse file walker,
  finding model, per-line suppression comments, and checker base class;
* :mod:`repro.analysis.baseline` — the committed grandfathering file
  (``lint_baseline.json``) with a drift gate: new findings fail, stale
  entries warn;
* :mod:`repro.analysis.reporters` — text and JSON output;
* :mod:`repro.analysis.checkers` — the per-file contract checkers
  (determinism, hot-path discipline, observability-hook discipline);
* :mod:`repro.analysis.cli` — the ``repro lint`` command (also the CI
  gate; see DESIGN.md "Static contracts").
"""

from repro.analysis.core import Finding, LintChecker, analyze

__all__ = ["Finding", "LintChecker", "analyze"]
