"""Span reports: span tree, stage tables and the stage-capture hook.

:func:`render_span_tree` and :func:`render_stage_table` are human-readable
profiles (count, total, self time, p50/p95/max) over the global
:class:`~repro.telemetry.metrics.MetricsRegistry`.

:func:`capture_stages` is the harness hook: it force-enables telemetry for
a ``with`` block and yields the per-stage self-time breakdown of exactly
that block (a diff of the global registry), which the Fig. 5/9 experiments
attach to their results.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, Optional, Tuple

from . import state
from .metrics import MetricsRegistry, SpanStats

#: Canonical pipeline stages in paper order (Figs. 5/9 terminology); see
#: docs/OBSERVABILITY.md for the span-to-paper mapping.
PIPELINE_STAGES = ("candidates", "features", "model", "routing", "decode")


# -------------------------------------------------------------- span reports


def _format_row(
    label: str, stats: SpanStats, self_s: float, label_width: int
) -> str:
    return (
        f"{label.ljust(label_width)}  "
        f"{stats.count:>8d}  "
        f"{stats.total:>9.4f}  "
        f"{self_s:>9.4f}  "
        f"{stats.p50() * 1e3:>8.3f}  "
        f"{stats.p95() * 1e3:>8.3f}  "
        f"{stats.max * 1e3:>8.3f}"
    )


def render_span_tree(registry: Optional[MetricsRegistry] = None) -> str:
    """Indented span tree with per-node totals, self time and percentiles."""
    registry = registry or state.get_registry()
    if not registry.spans:
        return "no spans recorded (telemetry disabled or nothing ran)"
    paths = sorted(registry.spans)
    labels = {p: "  " * (len(p) - 1) + p[-1] for p in paths}
    width = max(max(len(l) for l in labels.values()), len("span"))
    header = (
        f"{'span'.ljust(width)}  {'count':>8}  {'total s':>9}  "
        f"{'self s':>9}  {'p50 ms':>8}  {'p95 ms':>8}  {'max ms':>8}"
    )
    lines = [header, "-" * len(header)]
    for path in paths:
        lines.append(
            _format_row(
                labels[path],
                registry.spans[path],
                registry.self_seconds(path),
                width,
            )
        )
    return "\n".join(lines)


def render_stage_table(
    stages: Optional[Dict[str, float]] = None,
    window_seconds: Optional[float] = None,
) -> str:
    """Stage-breakdown table (canonical pipeline stages first)."""
    if stages is None:
        stages = state.get_registry().stage_totals()
    if not stages:
        return "no stage timings recorded"
    ordered = [s for s in PIPELINE_STAGES if s in stages]
    ordered += sorted(s for s in stages if s not in PIPELINE_STAGES)
    total = sum(stages.values())
    width = max(max(len(s) for s in ordered), len("stage"))
    lines = [f"{'stage'.ljust(width)}  {'seconds':>9}  {'share':>6}"]
    lines.append("-" * len(lines[0]))
    for name in ordered:
        share = stages[name] / total if total > 0 else 0.0
        lines.append(
            f"{name.ljust(width)}  {stages[name]:>9.4f}  {share:>6.1%}"
        )
    lines.append(f"{'sum'.ljust(width)}  {total:>9.4f}")
    if window_seconds is not None and window_seconds > 0:
        lines.append(
            f"{'wall clock'.ljust(width)}  {window_seconds:>9.4f}  "
            f"(coverage {total / window_seconds:.1%})"
        )
    return "\n".join(lines)


# ------------------------------------------------------------ stage capture


@dataclass
class StageCapture:
    """Per-stage self-time seconds of one captured block."""

    stages: Dict[str, float] = field(default_factory=dict)
    window_seconds: float = 0.0

    @property
    def coverage(self) -> float:
        """Fraction of the block's wall clock attributed to stages."""
        if self.window_seconds <= 0:
            return 0.0
        return sum(self.stages.values()) / self.window_seconds


@contextmanager
def capture_stages() -> Iterator[StageCapture]:
    """Force-enable telemetry for the block; yield its stage breakdown.

    The breakdown is a *diff* of the global registry across the block, so
    other accumulated telemetry is untouched; the prior enabled/disabled
    state is restored on exit.
    """
    registry = state.get_registry()
    before: Dict[Tuple[str, ...], float] = {
        path: stats.total for path, stats in registry.spans.items()
    }
    capture = StageCapture()
    start = perf_counter()
    with state.enabled_scope(True):
        yield capture
    capture.window_seconds = perf_counter() - start
    deltas: Dict[Tuple[str, ...], float] = {}
    for path, stats in registry.spans.items():
        delta = stats.total - before.get(path, 0.0)
        if delta > 0.0:
            deltas[path] = delta
    stages: Dict[str, float] = {}
    for path, delta in deltas.items():
        n = len(path)
        child_total = sum(
            d for p, d in deltas.items() if len(p) == n + 1 and p[:n] == path
        )
        self_delta = max(0.0, delta - child_total)
        stages[path[-1]] = stages.get(path[-1], 0.0) + self_delta
    capture.stages = stages
