"""Efficiency measurements (Figs. 5, 6, 9, 10).

* inference time per 1000 trajectory recoveries / map matchings,
* training time per epoch.

Wall-clock times on this NumPy substrate are not comparable to the paper's
GPU numbers in absolute terms; the *ratios* between methods are the claim
under test (TRMMA/MMA fastest, whole-network decoders orders of magnitude
slower).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from ..data.datasets import Dataset
from ..data.trajectory import Trajectory, TrajectorySample
from ..telemetry import span
from ..utils.timing import time_call


def inference_time(
    run: Callable[[List[Trajectory]], object],
    samples: Sequence[TrajectorySample],
) -> float:
    """Seconds per 1000 trajectories of ``run(trajectories)`` over the
    sparse trajectories of ``samples``.

    ``run`` is any inference entry: a per-trajectory loop
    (``lambda ts: [m.match(t) for t in ts]``), a batched call
    (``m.match_many``) or an engine (``engine.match``).  Start a parallel
    engine (``warm_up()``) before timing it, so the window measures
    steady-state throughput.
    """
    if not samples:
        raise ValueError("no samples to time")
    trajectories = [sample.sparse for sample in samples]

    def timed() -> None:
        with span("inference"):
            run(trajectories)

    return time_call(timed) * 1000.0 / len(samples)


def training_time_per_epoch(method, dataset: Dataset) -> float:
    """Wall-clock seconds of one training epoch of ``method``."""

    def run() -> None:
        with span("train_epoch"):
            method.fit_epoch(dataset)

    return time_call(run)


def efficiency_report(times: Dict[str, float], best_key: str) -> Dict[str, float]:
    """Augment raw times with speedup factors relative to ``best_key``."""
    base = times[best_key]
    return {
        name: (t / base if base > 0 else float("inf")) for name, t in times.items()
    }
