# reprolint: module=repro.network.road_network.fixture_parity
"""RL001 fixture: scalar math in a module claiming the vectorised surface."""

import math
from math import sqrt as scalar_sqrt

import numpy as np


def nearest_distance(xs: np.ndarray, ys: np.ndarray, px: float, py: float) -> float:
    best = math.inf  # constant access: allowed
    for x, y in zip(xs, ys):
        d = math.hypot(x - px, y - py)  # banned: last-ulp drift vs np.hypot
        best = min(best, d)
    return best


def norm(x: float, y: float) -> float:
    return scalar_sqrt(x * x + y * y)  # banned via from-import alias
