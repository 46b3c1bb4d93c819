"""Wall-clock timing for the efficiency experiments.

The paper reports inference time per 1000 trajectories (Figs. 5 and 9) and
training time per epoch (Figs. 6 and 10).  :func:`time_call` is the
measurement primitive used by ``repro.eval.efficiency``.
"""

from __future__ import annotations

import time
from typing import Callable


def time_call(fn: Callable[[], object]) -> float:
    """Run ``fn`` once and return its wall-clock duration in seconds."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
