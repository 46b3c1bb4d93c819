"""MMA — the paper's map-matching method (Section IV)."""

from .candidates import candidate_hit_ratio, candidate_sets_batch, mean_distance_to_rank
from .features import EncodedTrajectory, MMAFeatureEncoder
from .matcher import MMAMatcher
from .model import MMAModel

__all__ = [
    "candidate_sets_batch", "candidate_hit_ratio",
    "mean_distance_to_rank",
    "EncodedTrajectory", "MMAFeatureEncoder", "MMAModel", "MMAMatcher",
]
