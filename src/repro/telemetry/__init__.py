"""``repro.telemetry`` — the per-stage self-time recorder and the logger.

The paper's efficiency claims (Figs. 5 and 9) are claims about where
inference time goes.  :func:`span` attributes time to the pipeline stages
(candidates, features, model, routing, decode) as self seconds;
:func:`capture_stages` yields the breakdown of one block and
:func:`render_stage_table` prints it.  Engine workers ship their totals
back with every share (:func:`take_totals` / :func:`add_totals`).

Disabled by default — every call site pays only a flag check.  Enable with
``REPRO_TELEMETRY=1`` or :func:`enable`.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from . import log
from .spans import (
    PIPELINE_STAGES,
    StageCapture,
    add_totals,
    capture_stages,
    disable,
    enable,
    enabled,
    render_stage_table,
    span,
    stage_totals,
    take_totals,
)

__all__ = [
    "PIPELINE_STAGES", "StageCapture", "add_totals", "capture_stages",
    "disable", "enable", "enabled", "log", "render_stage_table", "span",
    "stage_totals", "take_totals",
]
