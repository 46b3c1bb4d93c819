"""RL003 — fork-safety of worker-imported modules.

The parallel engine forks workers (Linux default start method).
**Module-level mutable state** in any module transitively imported by
:mod:`repro.engine.worker` is duplicated into every child at fork time;
unless the module registers an ``os.register_at_fork(after_in_child=...)``
reset, the child re-exports/double-counts parent state (the bug class
the stage-total reset in ``telemetry.spans`` guards against).  ALL_CAPS
names without a leading underscore are treated as frozen constants and
exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from .core import Finding, LintContext, ModuleInfo, Rule

_MUTABLE_CALLS = frozenset(
    {"dict", "list", "set", "defaultdict", "deque", "OrderedDict", "Counter"}
)
_MUTABLE_NODES = (
    ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp,
)


def _is_constant_name(name: str) -> bool:
    if name.startswith("__") and name.endswith("__"):
        return True  # __all__ and friends: frozen by convention
    return not name.startswith("_") and name.isupper()


def _mutable_value(value: Optional[ast.AST]) -> bool:
    if value is None:
        return False
    if isinstance(value, _MUTABLE_NODES):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        return name in _MUTABLE_CALLS
    return False


def _top_level_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Module body, looking through top-level ``if``/``try`` blocks."""
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop(0)
        yield node
        if isinstance(node, ast.If):
            stack.extend(node.body)
            stack.extend(node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body)
            stack.extend(node.finalbody)


def _has_fork_reset(tree: ast.Module) -> bool:
    for stmt in _top_level_statements(tree):
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else ""
            )
            if name == "register_at_fork" and any(
                kw.arg == "after_in_child" for kw in node.keywords
            ):
                return True
    return False


def _decorator_name(node: ast.AST) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


class ForkSafetyRule(Rule):
    id = "RL003"
    title = "fork-unsafe module state"
    rationale = (
        "modules imported by engine workers are duplicated at fork; "
        "mutable module state needs a register_at_fork reset"
    )

    def applies(self, module: ModuleInfo) -> bool:
        return module.in_repro

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        if module.module not in ctx.worker_reachable():
            return
        if _has_fork_reset(module.tree):
            return
        for stmt in _top_level_statements(module.tree):
            targets: List[ast.expr] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in stmt.decorator_list:
                    if _decorator_name(deco) in ("lru_cache", "cache"):
                        yield self.finding(
                            module,
                            stmt,
                            f"module-level function {stmt.name!r} is "
                            "lru_cache-decorated in a worker-imported "
                            "module but the module registers no "
                            "os.register_at_fork(after_in_child=...) "
                            "reset; forked workers inherit (and keep "
                            "serving) the parent's cache",
                        )
                continue
            if not _mutable_value(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if _is_constant_name(target.id):
                    continue  # ALL_CAPS convention: frozen constant table
                yield self.finding(
                    module,
                    stmt,
                    f"module-level mutable state {target.id!r} in "
                    f"worker-imported module {module.module!r} with no "
                    "os.register_at_fork(after_in_child=...) reset; "
                    "forked workers inherit the parent's copy and "
                    "double-report it",
                )
