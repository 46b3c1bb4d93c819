"""RL002 — randomness and wall clocks flow through the blessed entry points.

Every stochastic component takes an explicit seed or generator built by
:func:`repro.utils.rng.make_rng`; experiments are reproducible bit-for-bit
because there is exactly one place that turns seeds into streams.  Library
code therefore must not

* import the stdlib ``random`` module (hidden global state),
* call ``np.random.*`` module-level functions (``seed``, ``default_rng``,
  the legacy global samplers) outside ``repro.utils.rng``,
* read wall clocks (argless ``time.time()`` / ``datetime.now()``) outside
  ``repro.telemetry`` — compute code that keys off wall time cannot be
  replayed (``time.perf_counter`` for durations is fine).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from .core import Finding, LintContext, ModuleInfo, Rule

#: Modules allowed to touch the raw entropy / clock sources.
EXEMPT_MODULES = ("repro.utils.rng", "repro.telemetry")


def _exempt(module: ModuleInfo) -> bool:
    return any(
        module.module == prefix or module.module.startswith(prefix + ".")
        for prefix in EXEMPT_MODULES
    )


class DeterminismRule(Rule):
    id = "RL002"
    title = "unseeded randomness / wall clock outside rng+telemetry"
    rationale = (
        "all randomness must flow through repro.utils.rng.make_rng and "
        "compute code must not read wall clocks, or runs stop being "
        "reproducible bit-for-bit"
    )

    def applies(self, module: ModuleInfo) -> bool:
        return module.in_repro and not _exempt(module)

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        time_aliases: Set[str] = set()
        datetime_classes: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield self.finding(
                            module,
                            node,
                            "stdlib 'random' imported; use "
                            "repro.utils.rng.make_rng(seed) so the stream "
                            "is seeded and replayable",
                        )
                    elif alias.name == "time":
                        time_aliases.add(alias.asname or "time")
                    elif alias.name == "datetime":
                        datetime_classes.add(
                            (alias.asname or "datetime") + ".datetime"
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "random":
                    yield self.finding(
                        module,
                        node,
                        "stdlib 'random' imported; use "
                        "repro.utils.rng.make_rng(seed) instead",
                    )
                elif node.level == 0 and node.module == "datetime":
                    for alias in node.names:
                        if alias.name == "datetime":
                            datetime_classes.add(alias.asname or "datetime")
                elif node.level == 0 and node.module == "time":
                    for alias in node.names:
                        if alias.name == "time":
                            yield self.finding(
                                module,
                                node,
                                "'from time import time' imported; wall "
                                "clocks are banned in compute code (use "
                                "time.perf_counter for durations, "
                                "telemetry for timestamps)",
                            )

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            # np.random.<anything>() — the global-state numpy surface.
            value = func.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in ("np", "numpy")
            ):
                yield self.finding(
                    module,
                    node,
                    f"np.random.{func.attr}() outside repro.utils.rng; "
                    "thread a Generator from make_rng(seed) through "
                    "instead of minting streams locally",
                )
                continue
            argless = not node.args and not node.keywords
            if (
                argless
                and func.attr == "time"
                and isinstance(value, ast.Name)
                and value.id in time_aliases
            ):
                yield self.finding(
                    module,
                    node,
                    "argless time.time() outside telemetry; compute code "
                    "must not read wall clocks (time.perf_counter for "
                    "durations)",
                )
            elif (
                argless
                and func.attr in ("now", "utcnow", "today")
                and _dotted(value) in datetime_classes
            ):
                yield self.finding(
                    module,
                    node,
                    f"argless datetime.{func.attr}() outside telemetry; "
                    "wall-clock reads make runs unreplayable",
                )


def _dotted(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        prefix = _dotted(node.value)
        return f"{prefix}.{node.attr}" if prefix else node.attr
    return ""
