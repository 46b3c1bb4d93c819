# reprolint: module=repro.network.road_network.fixture_parity_ok
"""RL001 fixture: the escape hatch silences a justified scalar call."""

import math


def diagnostic_only(x: float, y: float) -> float:
    return math.hypot(x, y)  # reprolint: allow[RL001] reason=debug-only helper, never on the batched parity path
