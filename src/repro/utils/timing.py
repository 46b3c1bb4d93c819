"""Wall-clock timing utilities for the efficiency experiments.

The paper reports inference time per 1000 trajectories (Figs. 5 and 9) and
training time per epoch (Figs. 6 and 10).  :class:`Timer` and
:func:`time_call` provide the measurement primitives used by
``repro.eval.efficiency``.
"""

from __future__ import annotations

import time
from typing import Callable, List


class Timer:
    """Re-entrant, reusable context-manager stopwatch.

    Each completed ``with`` block appends a lap to :attr:`laps`;
    :attr:`elapsed` is the most recent lap (backwards compatible) and
    :attr:`total` the sum of all laps.  Entries may nest on the same
    instance — starts are kept on a stack — so a timer can wrap both an
    outer loop and its body without losing measurements.

    >>> t = Timer()
    >>> for _ in range(2):
    ...     with t:
    ...         _ = sum(range(1000))
    >>> len(t.laps) == 2 and t.total >= t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.laps: List[float] = []
        self._starts: List[float] = []

    @property
    def total(self) -> float:
        """Sum of all completed laps."""
        return sum(self.laps)

    def reset(self) -> None:
        self.elapsed = 0.0
        self.laps.clear()
        self._starts.clear()

    def __enter__(self) -> "Timer":
        self._starts.append(time.perf_counter())
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._starts, "Timer.__exit__ without a matching __enter__"
        self.elapsed = time.perf_counter() - self._starts.pop()
        self.laps.append(self.elapsed)


def time_call(fn: Callable[[], object]) -> float:
    """Run ``fn`` once and return its wall-clock duration in seconds."""
    with Timer() as timer:
        fn()
    return timer.elapsed

