"""RL005 — the public API surface (`repro.api`/`config`/`engine`) is fully typed.

These are the packages external callers program against; every public
function and method must annotate all parameters and its return type so
``mypy --strict`` (wired in ``pyproject.toml`` / CI) has a complete
signature to check call sites with.  The AST check here is the in-repo,
zero-dependency mirror of that gate, so ``python -m repro.lint`` catches
missing annotations even where mypy is not installed.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from .core import Finding, LintContext, ModuleInfo, Rule

#: Packages whose public surface must be fully annotated.
TYPED_MODULES = ("repro.api", "repro.config", "repro.engine")

#: Dunders that are part of the public contract of these classes.
_PUBLIC_DUNDERS = frozenset(
    {"__init__", "__call__", "__enter__", "__exit__", "__iter__", "__len__"}
)


def _scoped(module: ModuleInfo) -> bool:
    return any(
        module.module == prefix or module.module.startswith(prefix + ".")
        for prefix in TYPED_MODULES
    )


def _is_public(name: str) -> bool:
    return not name.startswith("_") or name in _PUBLIC_DUNDERS


def _is_static(func: ast.AST) -> bool:
    for deco in getattr(func, "decorator_list", []):
        if isinstance(deco, ast.Name) and deco.id == "staticmethod":
            return True
    return False


class TypingRule(Rule):
    id = "RL005"
    title = "public API function not fully annotated"
    rationale = (
        "repro.api / repro.config / repro.engine are the typed surface "
        "checked by mypy --strict; unannotated parameters poke holes in "
        "every downstream call-site check"
    )

    def applies(self, module: ModuleInfo) -> bool:
        return _scoped(module)

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        for func, in_class in self._api_functions(module.tree):
            if not _is_public(func.name):
                continue
            missing = self._missing_annotations(func, in_class)
            if missing:
                yield self.finding(
                    module,
                    func,
                    f"public function {func.name!r} missing annotations: "
                    f"{', '.join(missing)} (repro.api/config/engine are "
                    "checked with mypy --strict)",
                )

    @staticmethod
    def _api_functions(tree: ast.Module):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, False
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        yield member, True

    @staticmethod
    def _missing_annotations(
        func: ast.FunctionDef, in_class: bool
    ) -> List[str]:
        missing: List[str] = []
        args = func.args
        positional = list(args.posonlyargs) + list(args.args)
        skip_first = in_class and not _is_static(func) and positional
        if skip_first:
            positional = positional[1:]  # self / cls
        for arg in positional + list(args.kwonlyargs):
            if arg.annotation is None:
                missing.append(f"parameter {arg.arg!r}")
        for vararg, star in ((args.vararg, "*"), (args.kwarg, "**")):
            if vararg is not None and vararg.annotation is None:
                missing.append(f"parameter {star}{vararg.arg!r}")
        if func.returns is None:
            missing.append("return type")
        return missing
