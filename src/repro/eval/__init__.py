"""Evaluation: the paper's metrics, harness, and efficiency probes."""

from .efficiency import (
    efficiency_report,
    inference_time,
    training_time_per_epoch,
)
from .evaluate import evaluate_matching, evaluate_recovery, train_method
from .metrics import (
    MATCHING_METRICS,
    RECOVERY_METRICS,
    aggregate,
    as_percentages,
    matching_metrics,
    recovery_metrics,
)

__all__ = [
    "recovery_metrics", "matching_metrics", "aggregate", "as_percentages",
    "RECOVERY_METRICS", "MATCHING_METRICS",
    "evaluate_recovery", "evaluate_matching", "train_method",
    "inference_time", "training_time_per_epoch", "efficiency_report",
]
