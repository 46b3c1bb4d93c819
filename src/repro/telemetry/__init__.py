"""``repro.telemetry`` — dependency-free tracing and profiling.

The paper's headline claim is efficiency, so the repo needs to know *where*
time goes, not just how long an experiment took.  This package provides:

* span-based tracing (:func:`span` / :func:`traced`) whose nested spans
  form a tree via :mod:`contextvars`, held in a process-global
  :class:`~repro.telemetry.metrics.MetricsRegistry`,
* a central cache registry reporting every LRU/memo hit rate at once,
* reports: the span tree and the per-stage breakdown tables of
  Figs. 5/9 (:func:`capture_stages`).

Disabled by default — every call site pays only a flag check.  Enable with
``REPRO_TELEMETRY=1`` or :func:`enable`.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from . import log
from .caches import (
    CacheProbe,
    all_cache_info,
    cache_report,
    clear_cache_registry,
    register_cache,
    size_probe,
    unregister_cache,
)
from .exporters import (
    PIPELINE_STAGES,
    StageCapture,
    capture_stages,
    render_span_tree,
    render_stage_table,
)
from .metrics import MetricsRegistry, SpanStats
from .spans import current_path, span, traced
from .state import (
    disable,
    enable,
    enabled,
    enabled_scope,
    get_registry,
    reset,
)

__all__ = [
    "CacheProbe", "MetricsRegistry", "PIPELINE_STAGES", "SpanStats",
    "StageCapture", "all_cache_info", "cache_report", "capture_stages",
    "clear_cache_registry", "current_path", "disable", "enable", "enabled",
    "enabled_scope", "get_registry", "log", "register_cache",
    "render_span_tree", "render_stage_table", "reset", "size_probe", "span",
    "traced", "unregister_cache",
]
