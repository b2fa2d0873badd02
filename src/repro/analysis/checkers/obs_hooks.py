"""Rule ``obs-hook-discipline``: no observability hooks on hot paths.

Tracing costs nothing per op when off (DESIGN.md "Observability
contract") because the per-op paths carry no hook call at all: a
system built with a tracer is built from the traced subclasses of
:mod:`repro.obs.traced`, which call the tracer around the base method.
Only the cold sites (kernel launches, re-homes, lane turns) keep a
prebound ``_obs_* = NOOP`` global from :mod:`repro.obs.hooks`.

This checker keeps it that way inside the declared hot functions (the
same :data:`~repro.analysis.checkers.hotpath.HOT_FUNCTIONS` registry plus
``# repro-lint: hot`` markers the hot-path checker uses):

* calling a prebound hook (``_obs_read_begin(self)``) is flagged — even
  disabled, it is a global load and a no-op call per op;
* calling a hook through an attribute chain (``self.tracer.on_read(...)``,
  ``obs_hooks.enable(...)``, ``hooks.NOOP(...)``) is flagged;
* guarding a hook with a conditional (``if tracer is not None:``,
  ``if _obs_read is not NOOP:``, ``if is_enabled():``) is flagged — a
  branch per op is a cost when off too.

Move the hook into a traced subclass instead.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.hotpath import HotPathChecker
from repro.analysis.core import FileContext

#: Attribute-chain segments that identify an observability access.
_OBS_SEGMENTS = frozenset({"tracer", "_tracer", "obs_hooks", "hooks"})

#: Names that identify observability state in a hook-guard conditional.
_OBS_GUARD_NAMES = frozenset({"tracer", "_tracer", "is_enabled", "NOOP"})


def _is_obs_name(name: str) -> bool:
    return name.startswith("_obs") or name in _OBS_SEGMENTS


def _chain_parts(node: ast.Attribute) -> list[str] | None:
    """Segments of a pure Name/Attribute chain, outermost first."""
    parts = [node.attr]
    value = node.value
    while isinstance(value, ast.Attribute):
        parts.append(value.attr)
        value = value.value
    if not isinstance(value, ast.Name):
        return None
    parts.append(value.id)
    parts.reverse()
    return parts


class ObsHookDisciplineChecker(HotPathChecker):
    """Keep observability hooks out of declared hot functions.

    Subclasses the hot-path checker purely to reuse its hot-function
    detection (``HOT_FUNCTIONS`` patterns + the ``# repro-lint: hot``
    marker); the checks themselves are independent.
    """

    rule = "obs-hook-discipline"
    description = (
        "observability hook called (prebound, through an attribute "
        "chain, or under a conditional) in a declared hot function — "
        "trace through a subclass in repro.obs.traced instead"
    )

    def owned_rules(self) -> tuple[str, ...]:
        return (self.rule,)

    def rule_descriptions(self) -> dict[str, str]:
        return {self.rule: self.description}

    # Reuse begin_file/on_node/_is_hot from HotPathChecker; replace the
    # per-function checks entirely.
    def _check_function(self, fn: ast.FunctionDef, ctx: FileContext) -> None:
        symbol = ".".join(ctx.scope + [fn.name])
        for node in ast.walk(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not fn:
                    self._covered.add(id(node))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id.startswith("_obs"):
                    ctx.report(
                        self.rule, node,
                        f"prebound hook call '{node.func.id}' in a hot "
                        "function costs a call per op even when tracing "
                        "is off; trace through a subclass in "
                        "repro.obs.traced instead",
                        symbol=symbol,
                    )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                parts = _chain_parts(node.func)
                if parts is not None and any(
                    _is_obs_name(part) for part in parts
                ):
                    chain = ".".join(parts)
                    ctx.report(
                        self.rule, node,
                        f"hook call through attribute chain '{chain}' in a "
                        "hot function; trace through a subclass in "
                        "repro.obs.traced instead",
                        symbol=symbol,
                    )
            elif isinstance(node, (ast.If, ast.IfExp)):
                guard = self._obs_guard(node.test)
                if guard is not None:
                    ctx.report(
                        self.rule, node,
                        f"conditional on '{guard}' guards an observability "
                        "hook in a hot function; trace through a subclass "
                        "in repro.obs.traced instead",
                        symbol=symbol,
                    )

    def _obs_guard(self, test: ast.AST) -> str | None:
        """The obs-state name a conditional tests, or None."""
        for node in ast.walk(test):
            if isinstance(node, ast.Name):
                if node.id.startswith("_obs") or node.id in _OBS_GUARD_NAMES:
                    return node.id
            elif isinstance(node, ast.Attribute):
                if node.attr.startswith("_obs") or node.attr in _OBS_GUARD_NAMES:
                    parts = _chain_parts(node)
                    return ".".join(parts) if parts else node.attr
        return None
