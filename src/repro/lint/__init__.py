"""repro.lint — AST-based checker for this repo's correctness invariants.

Rules (see ``docs/STATIC_ANALYSIS.md`` for the full contract):

* **RL001 parity** — scalar ``math.*`` banned in vectorised modules.
* **RL002 determinism** — randomness/wall clocks only via ``utils.rng`` /
  ``telemetry``.
* **RL003 fork-safety** — worker-imported module state registers at-fork
  resets.
* **RL004 hygiene** — no bare ``print``; span names are string literals.
* **RL005 typing** — ``repro.api``/``config``/``engine`` fully annotated.

Run as ``python -m repro.lint [paths] [--format text|json]
[--baseline .reprolint-baseline.json]``; suppress inline with
``# reprolint: allow[RL001] reason=...``.
"""

from .baseline import load_baseline, split_baselined, write_baseline
from .core import Finding, LintContext, ModuleInfo, Rule, run_lint
from .rules import default_rules

__all__ = [
    "Finding",
    "LintContext",
    "ModuleInfo",
    "Rule",
    "default_rules",
    "load_baseline",
    "run_lint",
    "split_baselined",
    "write_baseline",
]
