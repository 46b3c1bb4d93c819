"""Span statistics and the registry that holds them.

Everything here is plain-Python and dependency-free.  A
:class:`MetricsRegistry` is a passive container of span timings — the
hot-path guards live in :mod:`repro.telemetry.state` /
:mod:`repro.telemetry.spans`, which only touch a registry when telemetry is
enabled.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation.

    Returns 0.0 for an empty sequence, so timing reports degrade gracefully
    when a stage never ran.
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    lower = int(rank)
    frac = rank - lower
    if lower + 1 >= len(ordered):
        return float(ordered[-1])
    return float(ordered[lower] * (1.0 - frac) + ordered[lower + 1] * frac)


#: Per-span-path cap on retained duration samples (percentile estimation
#: stays O(1) memory on paths hit millions of times, e.g. route planning).
MAX_SPAN_SAMPLES = 4096


class SpanStats:
    """Accumulated durations of one span path in the trace tree."""

    __slots__ = ("path", "count", "total", "max", "samples")

    def __init__(self, path: Tuple[str, ...]) -> None:
        self.path = path
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.samples: List[float] = []

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds
        if len(self.samples) < MAX_SPAN_SAMPLES:
            self.samples.append(seconds)

    def p50(self) -> float:
        return percentile(self.samples, 50.0)

    def p95(self) -> float:
        return percentile(self.samples, 95.0)


class MetricsRegistry:
    """Process-wide container of span timings, keyed by span path."""

    def __init__(self) -> None:
        self.spans: Dict[Tuple[str, ...], SpanStats] = {}

    def record_span(self, path: Tuple[str, ...], seconds: float) -> None:
        stats = self.spans.get(path)
        if stats is None:
            stats = self.spans[path] = SpanStats(path)
        stats.record(seconds)

    def span_children(self, path: Tuple[str, ...]) -> List[SpanStats]:
        n = len(path)
        return [
            stats
            for p, stats in self.spans.items()
            if len(p) == n + 1 and p[:n] == path
        ]

    def self_seconds(self, path: Tuple[str, ...]) -> float:
        """Span total minus direct-children totals (own work only)."""
        stats = self.spans.get(path)
        if stats is None:
            return 0.0
        return max(
            0.0,
            stats.total - sum(c.total for c in self.span_children(path)),
        )

    def stage_totals(self) -> Dict[str, float]:
        """Self-time seconds aggregated by span *leaf name*.

        Because every path contributes exactly its self time, the values sum
        to the total of the root spans — a per-stage decomposition of the
        instrumented wall clock with no double counting of nested spans.
        """
        totals: Dict[str, float] = {}
        for path in self.spans:
            name = path[-1]
            totals[name] = totals.get(name, 0.0) + self.self_seconds(path)
        return totals

    # ----------------------------------------------------- state (de)merging

    def export_state(self) -> Dict:
        """Snapshot the span stats as a plain picklable dict.

        The parallel engine's workers export their registry after every
        chunk and ship the state back over the result queue; the parent
        folds it in with :meth:`merge_state`.
        """
        return {
            "spans": {
                s.path: {
                    "count": s.count,
                    "total": s.total,
                    "max": s.max,
                    "samples": list(s.samples),
                }
                for s in self.spans.values()
            },
        }

    def merge_state(
        self, state: Dict, span_prefix: Tuple[str, ...] = ()
    ) -> None:
        """Fold an :meth:`export_state` snapshot into this registry.

        ``span_prefix`` re-roots the snapshot's span paths (e.g.
        ``("worker:3",)``) so per-worker trees stay distinguishable in the
        merged render while ``stage_totals`` — which aggregates by leaf
        name — still folds worker stage time into the parent's breakdown.
        Span counts and totals add.
        """
        for path, data in state.get("spans", {}).items():
            full = span_prefix + tuple(path)
            stats = self.spans.get(full)
            if stats is None:
                stats = self.spans[full] = SpanStats(full)
            stats.count += data["count"]
            stats.total += data["total"]
            stats.max = max(stats.max, data["max"])
            room = MAX_SPAN_SAMPLES - len(stats.samples)
            if room > 0:
                stats.samples.extend(data["samples"][:room])

    def reset(self) -> None:
        self.spans.clear()
