"""Core machinery of ``repro.lint``: findings, rules, file walking.

The linter is a plain AST pass — no third-party dependencies — whose rules
encode the invariants PRs 1-3 established informally:

* batched kernels stay bit-exact with the sequential reference path,
* all randomness flows through :func:`repro.utils.rng.make_rng`,
* modules imported by engine workers are fork-safe,
* telemetry (not ``print`` / wall clocks) is the only observability channel,
* the public API surface is fully typed.

Each rule is a :class:`Rule` subclass registered in :data:`ALL_RULES` (see
``repro.lint.rules_*``); :func:`run_lint` parses every file once, asks each
rule for findings, then filters inline suppressions
(``# reprolint: allow[RL001] reason=...``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .suppressions import Suppression, parse_suppressions

#: Directory names never descended into when expanding directory arguments.
#: ``lint_fixtures`` holds deliberately-violating snippets for the linter's
#: own test suite; explicit file arguments are always linted regardless.
SKIP_DIRS = frozenset(
    {"__pycache__", ".git", "lint_fixtures", ".venv", "build", "dist"}
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def fingerprint(self) -> str:
        """Baseline identity: stable across pure line-number drift."""
        return f"{self.rule}::{self.path}::{self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class ModuleInfo:
    """A parsed source file plus the metadata rules key off."""

    path: str  # posix-style path as given on the command line
    module: str  # dotted module name, e.g. ``repro.network.road_network``
    tree: ast.Module
    source: str
    suppressions: Dict[int, List[Suppression]] = field(default_factory=dict)

    @property
    def in_repro(self) -> bool:
        return self.module == "repro" or self.module.startswith("repro.")


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id` / :attr:`title` / :attr:`rationale` and
    implement :meth:`check`.  ``applies`` pre-filters modules so rules
    scoped to a package subset stay cheap on full-tree runs.
    """

    id: str = "RL000"
    title: str = ""
    rationale: str = ""

    def applies(self, module: ModuleInfo) -> bool:
        return True

    def check(self, module: ModuleInfo, ctx: "LintContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class LintContext:
    """Shared state for one lint run (modules, lazily-built import graph)."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules = list(modules)
        self._worker_reachable: Optional[frozenset] = None

    def worker_reachable(self) -> frozenset:
        """Dotted names of modules imported (transitively) by
        ``repro.engine.worker`` — the fork-safety blast radius."""
        if self._worker_reachable is None:
            from .importgraph import worker_reachable_modules

            self._worker_reachable = worker_reachable_modules()
        return self._worker_reachable


_MODULE_OVERRIDE_LINES = 5


def module_name_for(
    path: Path, suppressions: Dict[int, List[Suppression]]
) -> str:
    """Derive the dotted module name for ``path``.

    A magic comment ``# reprolint: module=repro.x.y`` within the first few
    lines overrides path-based resolution — used by fixture snippets to
    claim membership of a scoped package without living there.
    """
    for line in sorted(suppressions):
        if line > _MODULE_OVERRIDE_LINES:
            break
        for supp in suppressions[line]:
            if supp.module_override:
                return supp.module_override
    parts = list(path.with_suffix("").parts)
    for anchor in ("repro", "tests"):
        if anchor in parts:
            parts = parts[parts.index(anchor):]
            break
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def collect_files(paths: Iterable[str]) -> List[Path]:
    """Expand path arguments to the ordered, de-duplicated ``.py`` file list."""
    seen = {}
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            seen.setdefault(root.as_posix(), root)
            continue
        if not root.is_dir():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for candidate in sorted(root.rglob("*.py")):
            relative = candidate.relative_to(root)
            if any(part in SKIP_DIRS for part in relative.parts[:-1]):
                continue
            seen.setdefault(candidate.as_posix(), candidate)
    return list(seen.values())


def load_module(path: Path) -> ModuleInfo:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    suppressions = parse_suppressions(source)
    return ModuleInfo(
        path=path.as_posix(),
        module=module_name_for(path, suppressions),
        tree=tree,
        source=source,
        suppressions=suppressions,
    )


def _suppressed(
    module: ModuleInfo, finding: Finding
) -> Optional[Suppression]:
    for supp in module.suppressions.get(finding.line, []):
        if supp.allows(finding.rule):
            return supp
    return None


def run_lint(
    paths: Iterable[str],
    select: Optional[Iterable[str]] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[Finding], List[Finding], int]:
    """Lint ``paths``.

    Returns ``(findings, suppressed, files_scanned)`` — ``findings`` are the
    live violations (including malformed-suppression findings), ``suppressed``
    the ones silenced by a valid inline ``allow``.
    """
    from .rules import default_rules

    active = list(rules) if rules is not None else default_rules()
    if select is not None:
        wanted = set(select)
        unknown = wanted - {rule.id for rule in active}
        if unknown:
            raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
        active = [rule for rule in active if rule.id in wanted]

    modules = [load_module(path) for path in collect_files(paths)]
    ctx = LintContext(modules)

    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for module in modules:
        for line, supps in sorted(module.suppressions.items()):
            for supp in supps:
                if supp.line != line:  # standalone comments span two lines
                    continue
                for problem in supp.problems():
                    findings.append(
                        Finding(
                            rule="RL000",
                            path=module.path,
                            line=line,
                            col=0,
                            message=problem,
                        )
                    )
        for rule in active:
            if not rule.applies(module):
                continue
            for finding in rule.check(module, ctx):
                if _suppressed(module, finding):
                    suppressed.append(finding)
                else:
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, suppressed, len(modules)
