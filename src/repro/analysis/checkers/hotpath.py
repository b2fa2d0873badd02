"""Rules ``hot-path-alloc`` / ``hot-path-attr``: per-access discipline.

PRs 2-3 rebuilt the per-access simulation core around rules the
profiler kept re-teaching: no closures or fresh containers on paths
that run millions of times per simulation, and no repeated attribute
chains inside the issue/drain loops (every ``a.b`` is a dict probe).
Those wins only persist if new code keeps the discipline — this checker
turns it into a machine-checked contract over a *declared registry* of
hot functions.

Declaring a hot function
------------------------
Either add its dotted name to :data:`HOT_FUNCTIONS` (keyed by module
path suffix; ``Class.*`` covers every method), or tag the ``def`` line
in source with ``# repro-lint: hot`` — the marker form keeps new
subsystems from having to edit this module. DESIGN.md "Static
contracts" documents both.

What is flagged inside a hot function
-------------------------------------
* ``hot-path-alloc`` — ``lambda`` and nested ``def`` anywhere in the
  function (closure allocation + late binding), and tuple/list/dict/set
  displays, comprehensions, or bare ``list()``/``dict()``/``set()``/
  ``tuple()`` constructor calls inside any loop (a fresh allocation per
  iteration). Semantically required allocations (e.g. MSHR waiter
  records) stay visible via per-line suppressions or the baseline.
* ``hot-path-attr`` — an attribute chain (``self.x``, ``obj.a.b``) read
  two or more times inside one loop when its root name is not rebound
  by the loop: hoist it to a local before the loop. Chains rooted at
  names the loop itself assigns are exempt (hoisting would change
  semantics).
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch

from repro.analysis.core import HOT_MARK_RE, FileContext, LintChecker

#: Declared hot functions: module path suffix -> dotted-name patterns.
#: These are the paths the BENCH history gates: the fused issue loop,
#: the pooled miss walkers, the engine insert and drain, and translation.
HOT_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "repro/gpu/socket.py": (
        "GpuSocket.access_burst",
        "LocalGpuSocket.access_burst",
    ),
    "repro/sim/path.py": ("ReadPath.*", "WritePath.*"),
    "repro/sim/engine.py": (
        "Engine.push",
        "Engine.run",
        "Engine._run_unbounded",
        "Engine._migrate_window",
    ),
    "repro/memory/page_table.py": ("PageTable.translate",),
    "repro/topology/fabric.py": ("MultiHopFabric.send_bytes",),
}

_CONSTRUCTOR_CALLS = frozenset({"list", "dict", "set", "tuple"})
_DISPLAY_NODES = (
    ast.Tuple, ast.List, ast.Dict, ast.Set,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def _patterns_for(relpath: str) -> tuple[str, ...]:
    path = relpath.replace("\\", "/")
    for suffix, patterns in HOT_FUNCTIONS.items():
        if path.endswith(suffix):
            return patterns
    return ()


def _attr_chain(node: ast.Attribute) -> str | None:
    """Dotted source form of a pure Name/Attribute chain, else None."""
    parts = [node.attr]
    value = node.value
    while isinstance(value, ast.Attribute):
        parts.append(value.attr)
        value = value.value
    if not isinstance(value, ast.Name):
        return None
    parts.append(value.id)
    return ".".join(reversed(parts))


def _loop_body_walk(loop: ast.AST):
    """Walk a loop's body/orelse without re-entering nested defs."""
    stack = list(getattr(loop, "body", [])) + list(getattr(loop, "orelse", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _names_bound_in(loop: ast.AST) -> set[str]:
    """Names assigned by the loop target or anywhere in the loop body."""
    bound: set[str] = set()
    target = getattr(loop, "target", None)
    nodes = list(ast.walk(target)) if target is not None else []
    nodes += list(_loop_body_walk(loop))
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
    return bound


class HotPathChecker(LintChecker):
    """Enforce allocation/attribute discipline in declared hot functions."""

    rule = "hot-path-alloc"
    description = (
        "closures or per-iteration container allocation in a declared "
        "hot function"
    )
    attr_rule = "hot-path-attr"
    attr_description = (
        "attribute chain read repeatedly inside a hot loop — hoist to a "
        "local"
    )

    def owned_rules(self) -> tuple[str, ...]:
        return (self.rule, self.attr_rule)

    def rule_descriptions(self) -> dict[str, str]:
        return {self.rule: self.description,
                self.attr_rule: self.attr_description}

    def begin_file(self, ctx: FileContext) -> None:
        self._patterns = _patterns_for(ctx.relpath)
        #: hot defs already handled (nested defs are checked with their
        #: parent; the walker must not re-check them as roots).
        self._covered: set[int] = set()

    def on_node(self, node: ast.AST, ctx: FileContext) -> None:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if id(node) in self._covered:
            return
        if self._is_hot(node, ctx):
            self._check_function(node, ctx)

    def _is_hot(self, node: ast.FunctionDef, ctx: FileContext) -> bool:
        qualname = ".".join(ctx.scope + [node.name])
        for pattern in self._patterns:
            if fnmatch(qualname, pattern):
                return True
        lines = ctx.source.splitlines()
        if 0 < node.lineno <= len(lines):
            if HOT_MARK_RE.search(lines[node.lineno - 1]):
                return True
        return False

    # ------------------------------------------------------------------
    # per-function checks (self-contained sub-walk)
    # ------------------------------------------------------------------
    def _check_function(self, fn: ast.FunctionDef, ctx: FileContext) -> None:
        symbol = ".".join(ctx.scope + [fn.name])
        for node in ast.walk(fn):
            if isinstance(node, ast.Lambda):
                ctx.report(
                    self.rule, node,
                    "lambda allocates a closure in a hot function",
                    symbol=symbol,
                )
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and node is not fn:
                self._covered.add(id(node))
                ctx.report(
                    self.rule, node,
                    f"nested function {node.name!r} allocates a closure "
                    "in a hot function",
                    symbol=symbol,
                )
        for loop in self._outermost_loops(fn):
            self._check_loop_allocs(loop, ctx, symbol)
            self._check_loop_attrs(loop, ctx, symbol)

    def _outermost_loops(self, fn: ast.FunctionDef) -> list[ast.AST]:
        """Loops not nested inside another loop (inner bodies are walked
        as part of their outermost ancestor, so nothing double-reports)."""
        all_loops = [
            node for node in ast.walk(fn)
            if isinstance(node, (ast.For, ast.While))
        ]
        inner: set[int] = set()
        for loop in all_loops:
            for node in _loop_body_walk(loop):
                if isinstance(node, (ast.For, ast.While)):
                    inner.add(id(node))
        return [loop for loop in all_loops if id(loop) not in inner]

    def _check_loop_allocs(self, loop: ast.AST, ctx: FileContext,
                           symbol: str) -> None:
        for node in _loop_body_walk(loop):
            if isinstance(node, _DISPLAY_NODES):
                # Store-context tuples/lists (unpacking targets like
                # ``a, b = entry``) allocate nothing.
                if isinstance(node, (ast.Tuple, ast.List)) and isinstance(
                    getattr(node, "ctx", None), (ast.Store, ast.Del)
                ):
                    continue
                kind = type(node).__name__
                ctx.report(
                    self.rule, node,
                    f"{kind} allocates every iteration of a hot loop; "
                    "hoist or restructure",
                    symbol=symbol,
                )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _CONSTRUCTOR_CALLS:
                    ctx.report(
                        self.rule, node,
                        f"{node.func.id}() allocates every iteration of "
                        "a hot loop; hoist or restructure",
                        symbol=symbol,
                    )

    def _check_loop_attrs(self, loop: ast.AST, ctx: FileContext,
                          symbol: str) -> None:
        rebound = _names_bound_in(loop)
        chains: dict[str, list[ast.Attribute]] = {}
        for node in _loop_body_walk(loop):
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            chain = _attr_chain(node)
            if chain is None:
                continue
            if chain.split(".", 1)[0] in rebound:
                continue
            chains.setdefault(chain, []).append(node)
        for chain, nodes in chains.items():
            # `a.b.c` also walks as its prefix `a.b`; report only the
            # longest recorded chain of each lookup.
            if any(
                other != chain and other.startswith(chain + ".")
                for other in chains
            ):
                continue
            if len(nodes) >= 2:
                first = min(nodes, key=lambda n: (n.lineno, n.col_offset))
                ctx.report(
                    self.attr_rule, first,
                    f"attribute chain '{chain}' read {len(nodes)}x inside "
                    "a hot loop; hoist to a local before the loop",
                    symbol=symbol,
                )
