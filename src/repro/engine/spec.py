"""Worker-side runtime recipe: how a process rebuilds the inference stack.

A :class:`WorkerSpec` is the message a :class:`ParallelEngine` hands each
worker at startup.  It carries plain objects: the road network, the
transition statistics, the model configs and the trained weights as state
dicts.  Under ``fork`` (the Linux default) a worker inherits them from the
parent without a copy; under ``spawn`` they are pickled once per worker.

:func:`build_worker_spec` extracts the spec from a live matcher/recoverer
pair; :func:`build_worker_runtime` is its inverse, run inside each worker.
The rebuilt runtime is bit-exact: the same network, identical weights and
identical planner parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..config import MMAConfig, TRMMAConfig
from ..matching.mma.matcher import MMAMatcher
from ..network.road_network import RoadNetwork
from ..network.routing import DARoutePlanner, TransitionStatistics
from ..recovery.trmma.recoverer import TRMMARecoverer


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild the inference runtime."""

    network: RoadNetwork
    mma_config: MMAConfig
    mma_state: Dict[str, np.ndarray]
    planner_tau: float
    planner_cache_capacity: int
    detour_tolerance: float
    statistics: Optional[TransitionStatistics] = None
    trmma_config: Optional[TRMMAConfig] = None
    trmma_state: Optional[Dict[str, np.ndarray]] = None
    trmma_name: Optional[str] = None
    telemetry_enabled: bool = False
    #: Test-only fault injection: ``(worker_id, chunk_id)`` pairs on which a
    #: worker hard-exits mid-task, simulating a crash for the retry tests.
    fault_crashes: Tuple[Tuple[int, int], ...] = field(default_factory=tuple)


@dataclass
class WorkerRuntime:
    """The rebuilt per-process inference stack."""

    network: RoadNetwork
    matcher: MMAMatcher
    recoverer: Optional[TRMMARecoverer]


def build_worker_spec(
    matcher: MMAMatcher,
    recoverer: Optional[TRMMARecoverer] = None,
    telemetry_enabled: bool = False,
    fault_crashes: Tuple[Tuple[int, int], ...] = (),
) -> WorkerSpec:
    """Extract the spec from a trained matcher (and optional recoverer)."""
    trmma_config = trmma_state = trmma_name = None
    if recoverer is not None:
        if recoverer.matcher is not matcher:
            raise ValueError(
                "recoverer must wrap the same matcher instance given to the "
                "engine (Algorithm 2 line 1 runs through that matcher)"
            )
        trmma_config = recoverer.config
        trmma_state = recoverer.model.state_dict()
        trmma_name = recoverer.name

    planner = matcher.planner
    return WorkerSpec(
        network=matcher.network,
        mma_config=matcher.rebuild_config(),
        mma_state=matcher.model.state_dict(),
        planner_tau=planner.tau,
        planner_cache_capacity=planner._cache.capacity,
        detour_tolerance=matcher.detour_tolerance,
        statistics=planner.statistics,
        trmma_config=trmma_config,
        trmma_state=trmma_state,
        trmma_name=trmma_name,
        telemetry_enabled=telemetry_enabled,
        fault_crashes=tuple(fault_crashes),
    )


def build_worker_runtime(spec: WorkerSpec) -> WorkerRuntime:
    """Rebuild the inference stack from a spec (runs inside the worker)."""
    network = spec.network
    planner = DARoutePlanner(
        network,
        statistics=spec.statistics,
        tau=spec.planner_tau,
        route_cache_capacity=spec.planner_cache_capacity,
    )
    matcher = MMAMatcher.from_config(network, spec.mma_config, planner=planner)
    matcher.model.load_state_dict(spec.mma_state)
    matcher.detour_tolerance = spec.detour_tolerance

    recoverer = None
    if spec.trmma_config is not None and spec.trmma_state is not None:
        recoverer = TRMMARecoverer.from_config(
            network, matcher, spec.trmma_config, name=spec.trmma_name
        )
        recoverer.model.load_state_dict(spec.trmma_state)
    return WorkerRuntime(network=network, matcher=matcher, recoverer=recoverer)
