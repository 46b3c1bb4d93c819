"""Execution engines: in-process serial and multi-process parallel.

The engines share one batch-first interface — ``match_points`` / ``match``
/ ``recover`` / ``match_and_recover`` — and are interchangeable:
:class:`ParallelEngine` is bit-exact with :class:`SerialEngine` by
construction (same batched inference code in every worker, submission-order
reassembly).  :func:`build_engine` picks the implementation from an
:class:`~repro.config.EngineConfig`.
"""

from __future__ import annotations

from typing import Optional, Union

from ..config import EngineConfig
from ..matching.base import MapMatcher
from ..recovery.trmma.recoverer import TRMMARecoverer
from .parallel import ParallelEngine
from .payload import (
    pack_matched,
    pack_trajectories,
    unpack_matched,
    unpack_trajectories,
)
from .serial import SerialEngine

__all__ = [
    "EngineConfig",
    "ParallelEngine",
    "SerialEngine",
    "build_engine",
    "pack_matched",
    "pack_trajectories",
    "unpack_matched",
    "unpack_trajectories",
]


def build_engine(
    matcher: MapMatcher,
    recoverer: Optional[TRMMARecoverer] = None,
    config: Optional[EngineConfig] = None,
) -> Union[SerialEngine, ParallelEngine]:
    """Engine for ``config``: serial when it resolves to 0 workers."""
    config = config or EngineConfig()
    workers = config.resolve_workers()
    if workers <= 0:
        return SerialEngine(matcher, recoverer, config)
    return ParallelEngine(matcher, recoverer, config, workers=workers)
