"""Evaluation metrics (Section VI-A).

For *trajectory recovery*, with ``S`` the distinct segments of the recovered
points and ``S_hat`` those of the ground truth (the paper's notation):

* ``Recall = |S ∩ S_hat| / |S|`` and ``Precision = |S ∩ S_hat| / |S_hat|``
  — implemented exactly as printed in the paper,
* F1 of the two, Accuracy = pointwise segment agreement,
* MAE / RMSE of the road-network distance between corresponding points.

For *map matching*, the same set metrics over the returned route vs the
ground-truth route, plus Jaccard similarity.

All metrics are computed per trajectory and averaged over the evaluation
set, as the paper does.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..data.trajectory import MatchedTrajectory
from ..network.distances import NetworkDistance

RECOVERY_METRICS = ("recall", "precision", "f1", "accuracy", "mae", "rmse")
MATCHING_METRICS = ("precision", "recall", "f1", "jaccard")


def _set_overlap(predicted: set, truth: set) -> Dict[str, float]:
    intersection = len(predicted & truth)
    recall = intersection / len(predicted) if predicted else 0.0
    precision = intersection / len(truth) if truth else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    union = len(predicted | truth)
    jaccard = intersection / union if union else 0.0
    return {"recall": recall, "precision": precision, "f1": f1, "jaccard": jaccard}


def recovery_metrics(
    predicted: MatchedTrajectory,
    truth: MatchedTrajectory,
    distance: NetworkDistance,
) -> Dict[str, float]:
    """All six Table III metrics for one trajectory."""
    if len(predicted) != len(truth):
        raise ValueError(
            f"length mismatch: recovered {len(predicted)} vs truth {len(truth)}"
        )
    pred_segments = [p.edge_id for p in predicted]
    true_segments = [p.edge_id for p in truth]
    overlap = _set_overlap(set(pred_segments), set(true_segments))

    matches = sum(int(a == b) for a, b in zip(pred_segments, true_segments))
    accuracy = matches / len(truth) if len(truth) else 0.0

    errors = [
        distance.point_distance(p.edge_id, p.ratio, t.edge_id, t.ratio)
        for p, t in zip(predicted, truth)
    ]
    mae = float(np.mean(errors)) if errors else 0.0
    rmse = float(math.sqrt(np.mean(np.square(errors)))) if errors else 0.0
    return {
        "recall": overlap["recall"],
        "precision": overlap["precision"],
        "f1": overlap["f1"],
        "accuracy": accuracy,
        "mae": mae,
        "rmse": rmse,
    }


def matching_metrics(
    predicted_route: Sequence[int], true_route: Sequence[int]
) -> Dict[str, float]:
    """All four Table V metrics for one trajectory."""
    overlap = _set_overlap(set(predicted_route), set(true_route))
    return {
        "precision": overlap["precision"],
        "recall": overlap["recall"],
        "f1": overlap["f1"],
        "jaccard": overlap["jaccard"],
    }


def aggregate(per_trajectory: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Mean of each metric over trajectories (the paper's reporting)."""
    rows: List[Dict[str, float]] = list(per_trajectory)
    if not rows:
        return {}
    keys = rows[0].keys()
    return {k: float(np.mean([r[k] for r in rows])) for k in keys}


def as_percentages(metrics: Dict[str, float]) -> Dict[str, float]:
    """Scale the ratio metrics to percent, leave MAE/RMSE in metres."""
    scaled = {}
    for key, value in metrics.items():
        if key in ("mae", "rmse"):
            scaled[key] = value
        else:
            scaled[key] = 100.0 * value
    return scaled
