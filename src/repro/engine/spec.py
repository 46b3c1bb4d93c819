"""Worker-side runtime recipe: how a process rebuilds the inference stack.

A :class:`WorkerSpec` is the picklable message a :class:`ParallelEngine`
hands each worker at startup.  Heavy state never rides in it — the road
network and the trained model weights travel as shared-memory manifests
(:mod:`repro.network.shared`); the spec carries only configs, planner
scalars and the transition-statistics counts.

:func:`build_worker_spec` extracts the spec (plus the owning shared-memory
bundles) from a live matcher/recoverer pair; :func:`build_worker_runtime`
is its inverse, run inside each worker.  The rebuilt runtime is bit-exact:
identical weights, identical shared arrays, identical planner parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import MMAConfig, TRMMAConfig
from ..matching.mma.matcher import MMAMatcher
from ..network.road_network import RoadNetwork
from ..network.routing import DARoutePlanner, TransitionStatistics
from ..network.shared import (
    BundleManifest,
    NetworkManifest,
    SharedArrayBundle,
    attach_network,
    attach_state_dict,
    share_network,
    share_state_dict,
)
from ..recovery.trmma.recoverer import TRMMARecoverer


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild the inference runtime."""

    network: NetworkManifest
    mma_config: MMAConfig
    mma_weights: BundleManifest
    planner_tau: float
    planner_cache_capacity: int
    detour_tolerance: float
    trmma_config: Optional[TRMMAConfig] = None
    trmma_weights: Optional[BundleManifest] = None
    trmma_name: Optional[str] = None
    statistics: Optional[Dict] = None
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
) -> Tuple[WorkerSpec, List[SharedArrayBundle]]:
    """Extract the spec and the shared-memory bundles backing it.

    The returned bundles are owned by the caller (the engine): they must
    stay alive while workers run and be ``close()``d + ``unlink()``ed on
    shutdown.
    """
    bundles: List[SharedArrayBundle] = []
    net_bundle, net_manifest = share_network(matcher.network)
    bundles.append(net_bundle)
    mma_bundle, mma_manifest = share_state_dict(matcher.model.state_dict())
    bundles.append(mma_bundle)

    trmma_config = trmma_manifest = trmma_name = None
    if recoverer is not None:
        if recoverer.matcher is not matcher:
            raise ValueError(
                "recoverer must wrap the same matcher instance given to the "
                "engine (Algorithm 2 line 1 runs through that matcher)"
            )
        trmma_config = recoverer.config
        trmma_bundle, trmma_manifest = share_state_dict(
            recoverer.model.state_dict()
        )
        bundles.append(trmma_bundle)
        trmma_name = recoverer.name

    planner = matcher.planner
    statistics = (
        planner.statistics.to_payload() if planner.statistics is not None else None
    )
    spec = WorkerSpec(
        network=net_manifest,
        mma_config=matcher.rebuild_config(),
        mma_weights=mma_manifest,
        planner_tau=planner.tau,
        planner_cache_capacity=planner._cache.capacity,
        detour_tolerance=matcher.detour_tolerance,
        trmma_config=trmma_config,
        trmma_weights=trmma_manifest,
        trmma_name=trmma_name,
        statistics=statistics,
        telemetry_enabled=telemetry_enabled,
        fault_crashes=tuple(fault_crashes),
    )
    return spec, bundles


def build_worker_runtime(spec: WorkerSpec) -> WorkerRuntime:
    """Rebuild the inference stack from a spec (runs inside the worker)."""
    network = attach_network(spec.network)
    statistics = (
        TransitionStatistics.from_payload(network, spec.statistics)
        if spec.statistics is not None
        else None
    )
    planner = DARoutePlanner(
        network,
        statistics=statistics,
        tau=spec.planner_tau,
        route_cache_capacity=spec.planner_cache_capacity,
    )
    matcher = MMAMatcher.from_config(network, spec.mma_config, planner=planner)
    state, bundle = attach_state_dict(spec.mma_weights)
    matcher.model.load_state_dict(state)  # copies out of the shared block
    bundle.close()
    matcher.detour_tolerance = spec.detour_tolerance

    recoverer = None
    if spec.trmma_config is not None and spec.trmma_weights is not None:
        recoverer = TRMMARecoverer.from_config(
            network, matcher, spec.trmma_config, name=spec.trmma_name
        )
        state, bundle = attach_state_dict(spec.trmma_weights)
        recoverer.model.load_state_dict(state)
        bundle.close()
    return WorkerRuntime(network=network, matcher=matcher, recoverer=recoverer)
