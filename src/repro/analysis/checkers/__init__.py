"""The contract checkers behind ``repro lint``.

Each module contributes one :class:`~repro.analysis.core.LintChecker`
subclass; :func:`default_checkers` builds the standard set the CLI and
CI run. Rules (see DESIGN.md "Static contracts" for the catalogue):

* ``determinism`` — unseeded/global RNGs, wall-clock reads in sim-state
  modules, builtin ``hash()``, unordered ``set`` iteration;
* ``hot-path-alloc`` / ``hot-path-attr`` — allocation and attribute
  discipline inside the declared hot functions;
* ``obs-hook-discipline`` — no observability hook in hot functions (no
  prebound ``_obs_*`` call, attribute-chain hook call or tracer
  conditional); per-op tracing lives in :mod:`repro.obs.traced`.
"""

from __future__ import annotations

from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.hotpath import HotPathChecker
from repro.analysis.checkers.obs_hooks import ObsHookDisciplineChecker
from repro.analysis.core import LintChecker


def default_checkers(rules: tuple[str, ...] | None = None) -> list[LintChecker]:
    """The standard checker set, optionally filtered to ``rules``.

    A rule name selects every checker that owns it (the hot-path checker
    owns two rules; naming either selects it).
    """
    checkers: list[LintChecker] = [
        DeterminismChecker(),
        HotPathChecker(),
        ObsHookDisciplineChecker(),
    ]
    if rules is None:
        return checkers
    wanted = set(rules)
    return [c for c in checkers if wanted & set(c.owned_rules())]


def all_rules() -> list[tuple[str, str]]:
    """(rule, description) pairs across the default checkers."""
    out: list[tuple[str, str]] = []
    for checker in default_checkers():
        for rule in checker.owned_rules():
            out.append((rule, checker.rule_descriptions()[rule]))
    return sorted(out)


__all__ = [
    "DeterminismChecker",
    "HotPathChecker",
    "ObsHookDisciplineChecker",
    "all_rules",
    "default_checkers",
]
