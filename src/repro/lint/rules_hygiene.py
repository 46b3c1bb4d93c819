"""RL004 — observability hygiene: no bare ``print``, span names greppable.

``print`` bypasses the structured logger (``repro.telemetry.log``) that the
CLI's ``--quiet`` / report plumbing controls, so library code must not call
it.  The same goes for direct ``sys.stdout.write(...)``: CLI output flows
through the structured logger, so only the blessed writer modules in
:data:`STDOUT_WRITER_MODULES` may touch the raw stream (``sys.stderr``
stays available everywhere for error paths).  Span names
must be string literals: the span ↔ paper-stage table in
``docs/PAPER_MAPPING.md`` is maintained by grepping for ``span("...")``,
and a dynamically-named span silently falls out of that audit.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Finding, LintContext, ModuleInfo, Rule

#: The only ``repro`` modules allowed to call ``sys.stdout.write``: the
#: structured-log handler.
STDOUT_WRITER_MODULES = ("repro.telemetry.log",)


def _may_write_stdout(module: ModuleInfo) -> bool:
    return any(
        module.module == prefix or module.module.startswith(prefix + ".")
        for prefix in STDOUT_WRITER_MODULES
    )


class HygieneRule(Rule):
    id = "RL004"
    title = "bare print / non-literal span name"
    rationale = (
        "library output goes through telemetry.log; span names are string "
        "literals so the PAPER_MAPPING span table stays greppable"
    )

    def applies(self, module: ModuleInfo) -> bool:
        return True  # span-literal check also covers tests

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                module.in_repro
                and isinstance(func, ast.Name)
                and func.id == "print"
            ):
                yield self.finding(
                    module,
                    node,
                    "bare print() in library code; route output through "
                    "telemetry.log (honours --quiet and structured "
                    "exporters)",
                )
                continue
            if (
                module.in_repro
                and self._is_stdout_write(func)
                and not _may_write_stdout(module)
            ):
                yield self.finding(
                    module,
                    node,
                    "direct sys.stdout.write() outside the blessed writer "
                    "(repro.telemetry.log); CLI output goes through the "
                    "structured logger",
                )
                continue
            if self._is_span_call(func) and node.args:
                first = node.args[0]
                if not (
                    isinstance(first, ast.Constant)
                    and isinstance(first.value, str)
                ):
                    yield self.finding(
                        module,
                        node,
                        "span() name is not a string literal; the "
                        "span-to-paper-stage table in docs/PAPER_MAPPING.md "
                        "is audited by grep and dynamic names escape it",
                    )

    @staticmethod
    def _is_stdout_write(func: ast.AST) -> bool:
        # matches exactly sys.stdout.write(...)
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "write"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "stdout"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "sys"
        )

    @staticmethod
    def _is_span_call(func: ast.AST) -> bool:
        if isinstance(func, ast.Name):
            return func.id == "span"
        if isinstance(func, ast.Attribute) and func.attr == "span":
            # only telemetry.span(...) — not arbitrary .span() methods
            value = func.value
            return isinstance(value, ast.Name) and value.id == "telemetry"
        return False
