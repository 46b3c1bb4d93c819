"""Candidate segment sets (Definition 8) and the Fig. 2 empirical analysis.

MMA's key formulation decision: the segment of a GPS point is found by
classification over its top-``k_c`` *nearest* segments instead of all of
``G``.  :func:`candidate_hit_ratio` reproduces the analysis justifying this
— the fraction of GPS points whose ground-truth segment appears among their
top-``k_c`` nearest segments, as ``k_c`` grows (Fig. 2: ≈0.7 at k=1, ≈1 at
k=10 on all four datasets).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ...config import MMAConfig
from ...data.trajectory import Trajectory, TrajectorySample
from ...network.road_network import RoadNetwork


def _pad_candidates(
    hits: List[Tuple[int, float]], k_c: int, point_index: int
) -> List[Tuple[int, float]]:
    """Pad a candidate list to width ``k_c`` by repeating the last hit.

    The duplicate rows carry identical features and cannot change the argmax.
    """
    if not hits:
        raise RuntimeError(
            f"cannot build candidate set for GPS point {point_index}: "
            "road network has no segments"
        )
    if len(hits) < k_c:
        hits = hits + [hits[-1]] * (k_c - len(hits))
    return hits


def candidate_sets_batch(
    network: RoadNetwork,
    trajectories: Sequence[Trajectory],
    k_c: int = MMAConfig.k_c,
) -> List[List[List[Tuple[int, float]]]]:
    """Top-``k_c`` nearest segments (id, distance) for every GPS point of
    every trajectory, via one bulk k-NN pass.

    Concatenates every GPS point across ``trajectories`` into a single
    ``(N, 2)`` query, answers it with
    :meth:`~repro.network.road_network.RoadNetwork.nearest_segments_batch`
    (bit-identical per-point results), then splits the answers back per
    trajectory.  When the network has fewer than ``k_c`` segments near a
    point the last candidate is repeated so downstream tensors keep a fixed
    width.
    """
    trajectories = list(trajectories)
    lengths = [len(t) for t in trajectories]
    total = sum(lengths)
    if total == 0:
        return [[] for _ in trajectories]
    xy = np.empty((total, 2), dtype=np.float64)
    pos = 0
    for trajectory in trajectories:
        for p in trajectory:
            xy[pos, 0] = p.x
            xy[pos, 1] = p.y
            pos += 1
    flat = network.nearest_segments_batch(xy, k=k_c)
    out: List[List[List[Tuple[int, float]]]] = []
    pos = 0
    for n in lengths:
        out.append(
            [_pad_candidates(flat[pos + i], k_c, i) for i in range(n)]
        )
        pos += n
    return out


def candidate_hit_ratio(
    network: RoadNetwork,
    samples: Sequence[TrajectorySample],
    kc_values: Sequence[int] = tuple(range(1, 11)),
) -> Dict[int, float]:
    """Fraction of GPS points whose true segment is in their top-k set.

    Reproduces the Fig. 2 curves.  One k-NN query at ``max(kc_values)`` per
    point; smaller k values reuse its prefix.
    """
    k_max = max(kc_values)
    hits_at: Dict[int, int] = {k: 0 for k in kc_values}
    total = 0
    ranked_sets = candidate_sets_batch(
        network, [sample.sparse for sample in samples], k_max
    )
    for sample, sets in zip(samples, ranked_sets):
        for gt_edge, hits in zip(sample.gt_segments, sets):
            ranked = [e for e, _ in hits]
            total += 1
            for k in kc_values:
                if gt_edge in ranked[:k]:
                    hits_at[k] += 1
    if total == 0:
        return {k: 0.0 for k in kc_values}
    return {k: hits_at[k] / total for k in kc_values}


def mean_distance_to_rank(
    network: RoadNetwork, samples: Sequence[TrajectorySample], rank: int
) -> float:
    """Average distance from GPS points to their ``rank``-th nearest segment
    (the paper reports ~82-122 m for rank 10 to argue k_c = 10 suffices)."""
    points = [p for sample in samples for p in sample.sparse]
    if not points:
        return 0.0
    xy = np.array([[p.x, p.y] for p in points])
    distances = [
        hits[rank - 1][1]
        for hits in network.nearest_segments_batch(xy, k=rank)
        if len(hits) >= rank
    ]
    return float(np.mean(distances)) if distances else 0.0
