"""Checker framework: findings, suppressions, and the shared AST walk.

Every file is parsed exactly once; a single recursive walker maintains
the lexical scope chain (enclosing class/function names) and dispatches
each node to every registered checker. A checker is a subclass of
:class:`LintChecker` that implements :meth:`LintChecker.on_node` (and
optionally ``begin_file``) to flag patterns inside one file.

Suppression grammar
-------------------
A finding is suppressed when the physical line it is reported on carries
a trailing comment of the form::

    # repro-lint: disable=<rule>[,<rule>...]

``disable=all`` suppresses every rule on that line. Suppressions are
per-line only — there is no block or file scope — so every grandfathered
exception is visible exactly where it applies. Findings that should
outlive their line numbers belong in the committed baseline instead
(:mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

#: Matches one suppression comment anywhere in a source line.
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+)")

#: Matches the hot-path marker comment on a ``def`` line (see the
#: hot-path checker: functions can opt in without editing its registry).
HOT_MARK_RE = re.compile(r"#\s*repro-lint:\s*hot\b")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``symbol`` is the dotted enclosing scope (``Class.method`` or
    ``<module>``); the baseline matches on ``(rule, path, symbol,
    message)`` so entries survive unrelated line-number drift.
    """

    rule: str
    path: str
    line: int
    message: str
    symbol: str = "<module>"

    def key(self) -> tuple[str, str, str, str]:
        """Line-number-independent identity used by the baseline."""
        return (self.rule, self.path, self.symbol, self.message)

    def to_dict(self) -> dict:
        """JSON form (the ``--format json`` reporter row)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }

    def render(self) -> str:
        """One-line human form (the text reporter row)."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.symbol}: {self.message}"


def parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Per-line suppressed rule names (1-based line numbers)."""
    table: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match:
            rules = frozenset(
                r.strip() for r in match.group(1).split(",") if r.strip()
            )
            table[lineno] = rules
    return table


@dataclass
class FileContext:
    """Everything a per-node checker can see while one file is walked."""

    relpath: str
    source: str
    suppressions: dict[int, frozenset[str]]
    findings: list[Finding] = field(default_factory=list)
    #: lexical scope chain, e.g. ["GpuSocket", "access_burst"].
    scope: list[str] = field(default_factory=list)

    @property
    def symbol(self) -> str:
        """Dotted enclosing scope of the current node."""
        return ".".join(self.scope) if self.scope else "<module>"

    def report(self, rule: str, node: ast.AST, message: str,
               symbol: str | None = None) -> None:
        """File a finding unless its line suppresses ``rule``."""
        line = getattr(node, "lineno", 1)
        allowed = self.suppressions.get(line, frozenset())
        if rule in allowed or "all" in allowed:
            return
        self.findings.append(Finding(
            rule=rule,
            path=self.relpath,
            line=line,
            message=message,
            symbol=symbol if symbol is not None else self.symbol,
        ))


class LintChecker:
    """Base class: one named rule family over the shared walk."""

    #: rule identifier used in reports, suppressions, and --rules.
    rule = ""
    #: one-line description for ``repro lint --list-rules``.
    description = ""

    def owned_rules(self) -> tuple[str, ...]:
        """Rule names this checker can report (usually just one)."""
        return (self.rule,) if self.rule else ()

    def rule_descriptions(self) -> dict[str, str]:
        """rule -> one-line description, for ``--list-rules``."""
        return {self.rule: self.description} if self.rule else {}

    def begin_file(self, ctx: FileContext) -> None:
        """Hook before a file's walk starts."""

    def on_node(self, node: ast.AST, ctx: FileContext) -> None:
        """Hook for every AST node of every file (pre-order)."""


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _walk(node: ast.AST, ctx: FileContext, checkers: list[LintChecker]) -> None:
    for checker in checkers:
        checker.on_node(node, ctx)
    is_scope = isinstance(node, _SCOPE_NODES)
    if is_scope:
        ctx.scope.append(node.name)
    for child in ast.iter_child_nodes(node):
        _walk(child, ctx, checkers)
    if is_scope:
        ctx.scope.pop()


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if "__pycache__" not in sub.parts:
                    seen.setdefault(sub.resolve(), None)
        elif path.suffix == ".py":
            seen.setdefault(path.resolve(), None)
    return sorted(seen)


def analyze(
    paths: list[Path],
    checkers: list[LintChecker],
    root: Path | None = None,
) -> list[Finding]:
    """Lint ``paths`` with ``checkers``; returns the sorted findings.

    Files that fail to parse produce a single ``syntax-error`` finding
    rather than aborting the run (CI should report every broken file).
    """
    root = (root or Path.cwd()).resolve()
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        try:
            relpath = str(path.relative_to(root))
        except ValueError:
            relpath = str(path)
        source = path.read_text(errors="replace")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            findings.append(Finding(
                rule="syntax-error",
                path=relpath,
                line=error.lineno or 1,
                message=f"file does not parse: {error.msg}",
            ))
            continue
        ctx = FileContext(
            relpath=relpath,
            source=source,
            suppressions=parse_suppressions(source),
        )
        for checker in checkers:
            checker.begin_file(ctx)
        _walk(tree, ctx, checkers)
        findings.extend(ctx.findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings
