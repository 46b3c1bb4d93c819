# reprolint: module=repro.network.road_network.fixture_badsupp
"""RL000 fixture: suppressions must carry a reason (and parse)."""

import math


def helper(x: float, y: float) -> float:
    return math.hypot(x, y)  # reprolint: allow[RL001]


def other(x: float) -> float:
    return math.sqrt(x)  # reprolint: allom[RL001] reason=typo in directive
