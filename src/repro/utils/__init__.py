"""Shared utilities: seeded RNG, timing, table rendering."""

from .rng import DEFAULT_SEED, make_rng, sample_without_replacement, spawn_rng
from .ascii_map import AsciiCanvas, render_network
from .tables import (
    best_in_column,
    emit_table,
    render_metric_table,
    render_series,
    render_table,
)
from .timing import time_call

__all__ = [
    "DEFAULT_SEED", "make_rng", "spawn_rng", "sample_without_replacement",
    "render_table", "render_metric_table", "render_series", "best_in_column",
    "emit_table",
    "time_call",
    "AsciiCanvas", "render_network",
]
