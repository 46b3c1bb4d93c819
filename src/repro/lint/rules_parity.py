"""RL001 — scalar ``math.*`` is banned in vectorised/batched modules.

``np.hypot`` and ``math.hypot`` disagree in the last ulp on some inputs
(so do ``sqrt`` and friends as soon as intermediates differ); a single
scalar call inside a batched kernel breaks the bit-exact parity between
the batched and sequential paths that ``tests/test_batched_parity.py``
guards.  Scalar geometry belongs in :mod:`repro.geometry` (the sequential
reference implementation), numpy ufuncs everywhere batched.

Integer-valued helpers (``math.floor``/``ceil``/``isqrt``) and constants
(``math.inf``/``pi``) are allowed — they cannot introduce last-ulp drift.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from .core import Finding, LintContext, ModuleInfo, Rule

#: Module-name prefixes (or exact names) of the vectorised surface.
VECTORISED_MODULES = (
    "repro.network.road_network",
    "repro.engine",
    "repro.matching.mma.features",
)

#: Float-valued scalar math functions that have a numpy ufunc twin.
BANNED_MATH = frozenset(
    {
        "hypot", "sqrt", "dist", "sin", "cos", "tan", "asin", "acos",
        "atan", "atan2", "exp", "expm1", "log", "log1p", "log2", "log10",
        "pow", "fabs", "fmod", "copysign", "remainder", "cbrt",
    }
)


def _scoped(module: ModuleInfo, prefixes) -> bool:
    return any(
        module.module == prefix or module.module.startswith(prefix + ".")
        for prefix in prefixes
    )


class ParityRule(Rule):
    id = "RL001"
    title = "scalar math.* in vectorised module"
    rationale = (
        "batched kernels must use numpy ufuncs (np.hypot, np.sqrt, ...) so "
        "they stay bit-exact with the sequential reference path"
    )

    def applies(self, module: ModuleInfo) -> bool:
        return _scoped(module, VECTORISED_MODULES)

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        math_aliases: set = set()
        from_math: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "math":
                        math_aliases.add(alias.asname or "math")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                for alias in node.names:
                    from_math[alias.asname or alias.name] = alias.name

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            banned = None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in math_aliases
                and func.attr in BANNED_MATH
            ):
                banned = func.attr
            elif (
                isinstance(func, ast.Name)
                and from_math.get(func.id) in BANNED_MATH
            ):
                banned = from_math[func.id]
            if banned is not None:
                yield self.finding(
                    module,
                    node,
                    f"math.{banned}() in vectorised module "
                    f"{module.module!r}; use np.{banned} so the batched "
                    "path stays bit-exact with the sequential one "
                    "(math and numpy differ in the last ulp)",
                )
