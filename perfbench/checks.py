"""Output validation and Table III/V quality of a replayed stream."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.data.trajectory import MatchedTrajectory, TrajectorySample
from repro.eval.metrics import matching_metrics, recovery_metrics
from repro.network.distances import NetworkDistance
from repro.network.road_network import RoadNetwork


def recovered_is_valid(
    recovered: MatchedTrajectory, sample: TrajectorySample, epsilon: float
) -> bool:
    """On the epsilon grid, ratios in [0, 1), and as long as the truth."""
    return (
        len(recovered) == len(sample.dense)
        and recovered.validates_epsilon(epsilon)
        and all(0.0 <= p.ratio < 1.0 for p in recovered)
    )


def failed_trajectories(
    network: RoadNetwork,
    epsilon: float,
    samples: Sequence[TrajectorySample],
    output: Optional[tuple],
    reference: Optional[tuple] = None,
) -> int:
    """Trajectories of one request whose output is missing or invalid.

    ``output`` is ``(routes, recovered)`` with ``None`` for the part the
    call does not return, or ``None`` when the call raised.  Every route
    must be a connected path and every recovered trajectory valid; when a
    ``reference`` output of the same request is given, each trajectory's
    output must also equal it bit for bit.
    """
    n = len(samples)
    if output is None or any(
        part is not None and len(part) != n for part in output
    ):
        return n
    routes, recovered = output
    failed = 0
    for i, sample in enumerate(samples):
        ok = True
        if routes is not None:
            ok = bool(routes[i]) and network.route_is_path(routes[i])
        if recovered is not None:
            ok = ok and recovered_is_valid(recovered[i], sample, epsilon)
        if reference is not None:
            ok = ok and all(
                mine is None or theirs is None or mine[i] == theirs[i]
                for mine, theirs in zip(output, reference)
            )
        failed += not ok
    return failed


def route_f1_pct(
    routes: Sequence[List[int]], samples: Sequence[TrajectorySample]
) -> float:
    """Mean Table V route F1 (%) against the true routes."""
    rows = [matching_metrics(r, s.route)["f1"] for r, s in zip(routes, samples)]
    return 100.0 * sum(rows) / len(rows)


def recovery_quality(
    network: RoadNetwork,
    recovered: Sequence[MatchedTrajectory],
    samples: Sequence[TrajectorySample],
) -> Dict[str, float]:
    """Mean Table III F1 (%) and MAE (m) against the dense truth."""
    distance = NetworkDistance(network)
    rows = [
        recovery_metrics(out, s.dense, distance)
        for out, s in zip(recovered, samples)
    ]
    return {
        "recovery_f1_pct": 100.0 * sum(r["f1"] for r in rows) / len(rows),
        "recovery_mae_m": sum(r["mae"] for r in rows) / len(rows),
    }

