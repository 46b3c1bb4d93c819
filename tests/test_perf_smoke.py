"""Tiny timing sanity checks for the batched engine (``-m perf_smoke``).

Batched paths exist to be faster; these tests assert that at small-but-real
scale the batched MMA inference path beats the sequential one while
producing identical matches, and that the route cache actually absorbs
repeat planning work.  Thresholds are deliberately loose — the hard speedup
numbers live in ``benchmarks/`` (BENCH_PR1.json), not in tier-1.
"""

from __future__ import annotations

import gc
import os
import time

import pytest

from repro.config import MMAConfig
from repro.data.datasets import build_dataset
from repro.matching.mma.matcher import MMAMatcher
from repro.network.node2vec import Node2VecConfig
from repro.network.routing import DARoutePlanner


@pytest.fixture(scope="module")
def perf_setup():
    dataset = build_dataset("PT", n_trips=40, seed=23)
    matcher = MMAMatcher(
        dataset.network,
        MMAConfig(
            d0=16, d2=16, ffn_hidden=32,
            node2vec=Node2VecConfig(
                dimensions=16, walk_length=8, walks_per_node=2, window=3,
                negatives=2, epochs=1,
            ),
        ),
        seed=5,
    )
    matcher.fit_epoch(dataset)
    return dataset, matcher


def _timed_without_gc(run):
    """``(result, seconds)`` of ``run()`` with cyclic GC collected beforehand
    and paused inside the window: the batched window is ~0.02 s, so a single
    generation-2 pass over earlier tests' garbage would otherwise decide the
    comparison."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run()
        return result, time.perf_counter() - start
    finally:
        gc.enable()


@pytest.mark.perf_smoke
def test_batched_matching_is_faster_and_identical(perf_setup):
    dataset, matcher = perf_setup
    trajectories = [s.sparse for s in dataset.test] + [
        s.sparse for s in dataset.val
    ]
    # warm both paths once (index/cache construction out of the timings)
    matcher.match_points(trajectories[0])
    matcher.match_points_many(trajectories[:2], batch_size=2)

    sequential, sequential_s = _timed_without_gc(
        lambda: [matcher.match_points(t) for t in trajectories]
    )
    batched, batched_s = _timed_without_gc(
        lambda: matcher.match_points_many(trajectories, batch_size=32)
    )

    assert batched == sequential  # bit-identical matches, not just close
    # Sequential re-pays per-point encoding + per-trajectory model overhead;
    # batched amortises both.  Generous margin to stay robust on slow CI.
    # Like the BENCH_PR3 speedup assertion, the timing bound is gated on
    # core count: on a 1-core container the two paths contend with each
    # other (and the OS) and the comparison is noise, not signal.
    if (os.cpu_count() or 1) >= 2:
        assert batched_s < sequential_s, (
            f"batched path slower than sequential: {batched_s:.3f}s vs "
            f"{sequential_s:.3f}s over {len(trajectories)} trajectories"
        )


@pytest.mark.perf_smoke
def test_route_cache_absorbs_repeat_planning(perf_setup):
    dataset, _ = perf_setup
    planner = DARoutePlanner(dataset.network)
    pairs = [(a, b) for a in range(0, 40, 4) for b in range(1, 41, 4)]
    for a, b in pairs:
        planner.plan(a, b)
    assert planner.cache_info().hits == 0
    start = time.perf_counter()
    for a, b in pairs:
        planner.plan(a, b)
    cached_s = time.perf_counter() - start
    info = planner.cache_info()
    assert info.hits == len(pairs)
    assert info.hit_rate > 0.0
    # cached replans are pure dict lookups; sub-millisecond apiece
    assert cached_s < 0.5
