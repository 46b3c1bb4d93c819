"""The stage-time recorder: ``with span("model")`` and the stage table.

When recording is on, every span adds its *self* time — its duration minus
the durations of its direct children — to the per-stage total of its name.
Self times never overlap, so the totals sum to the wall clock of the
outermost spans, and a span nested in one of the same name (``routing``
inside ``routing``) is counted once.  Children are found through a plain
stack of the open spans.

Recording is off by default: :func:`span` then returns one shared no-op
context manager, so a call site pays a flag check plus two trivial method
calls (bounded by the perf smoke test in ``tests/test_telemetry.py``).
Enable it with ``REPRO_TELEMETRY=1`` or :func:`enable`.

:func:`capture_stages` is the harness hook of Figs. 5/9: it records for a
``with`` block and yields the per-stage self seconds of exactly that block.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Mapping, Optional

#: Canonical pipeline stages in paper order (Figs. 5/9 terminology); see
#: docs/OBSERVABILITY.md for the span-to-paper mapping.
PIPELINE_STAGES = ("candidates", "features", "model", "routing", "decode")

_TRUTHY_OFF = ("", "0", "false", "no", "off")


def _env_enabled(value: str) -> bool:
    """Interpret the ``REPRO_TELEMETRY`` environment value."""
    return value.strip().lower() not in _TRUTHY_OFF


_enabled: bool = _env_enabled(os.environ.get("REPRO_TELEMETRY", ""))
#: stage name -> accumulated self seconds
_totals: Dict[str, float] = {}
#: the spans entered and not yet exited, innermost last
_open: List["_Span"] = []


def _forget() -> None:
    # A forked engine worker inherits the parent's totals and open spans;
    # it must ship only what it records itself, and never exits the parent's
    # spans.  Fork is the parallel engine's default start method on Linux.
    _totals.clear()
    _open.clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch - always true on posix
    os.register_at_fork(after_in_child=_forget)


def enabled() -> bool:
    """Whether spans currently record anything."""
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def stage_totals() -> Dict[str, float]:
    """Self seconds recorded so far, by stage name (a copy)."""
    return dict(_totals)


def take_totals() -> Dict[str, float]:
    """Return the recorded self seconds and start again from none."""
    totals = dict(_totals)
    _totals.clear()
    return totals


def add_totals(totals: Mapping[str, float]) -> None:
    """Fold self seconds recorded elsewhere (an engine worker) in."""
    for name, seconds in totals.items():
        _totals[name] = _totals.get(name, 0.0) + seconds


class _NullSpan:
    """Shared do-nothing span used whenever recording is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_name", "_start", "_children")

    def __init__(self, name: str) -> None:
        self._name = name

    def __enter__(self) -> "_Span":
        self._children = 0.0
        _open.append(self)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        elapsed = perf_counter() - self._start
        _open.pop()
        if _open:
            _open[-1]._children += elapsed
        name = self._name
        _totals[name] = _totals.get(name, 0.0) + elapsed - self._children
        return False


def span(name: str):
    """Context manager timing a named stage (no-op when disabled).

    >>> from repro import telemetry
    >>> with telemetry.span("demo"):
    ...     pass
    """
    if not _enabled:
        return _NULL_SPAN
    return _Span(name)


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
    """Record for the block; yield its stage breakdown.

    The breakdown is the growth of the totals across the block, so totals
    recorded before it are untouched; the prior enabled/disabled state is
    restored on exit.
    """
    global _enabled
    before = dict(_totals)
    previous = _enabled
    capture = StageCapture()
    _enabled = True
    start = perf_counter()
    try:
        yield capture
    finally:
        capture.window_seconds = perf_counter() - start
        _enabled = previous
    for name, seconds in _totals.items():
        delta = seconds - before.get(name, 0.0)
        if delta > 0.0:
            capture.stages[name] = delta


def render_stage_table(
    stages: Optional[Dict[str, float]] = None,
    window_seconds: Optional[float] = None,
) -> str:
    """Stage-breakdown table (canonical pipeline stages first)."""
    if stages is None:
        stages = stage_totals()
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
