"""Parallel-engine throughput probe → ``benchmarks/results/BENCH_PR3.json``.

Times Fig. 5 (recovery) and Fig. 9 (matching) end-to-end inference through
the serial batched engine and through :class:`ParallelEngine` with 4
workers at bench scale, asserting the parallel outputs are bit-exact with
serial before recording anything.

The speedup assertion (≥ 2.5× with 4 workers) only runs on machines with
at least 4 CPU cores: on fewer cores the workers time-slice one another and
IPC overhead dominates, so the recorded numbers stay honest but the
multi-core claim is untestable.  ``cpu_count`` is recorded alongside the
timings so a reader can tell which regime produced them.
"""

from __future__ import annotations

import json
import os

from repro.config import EngineConfig
from repro.engine import ParallelEngine, SerialEngine
from repro.eval.efficiency import inference_time
from repro.experiments.common import (
    BENCH_BATCH_SIZE,
    get_dataset,
    mma_config,
    trmma_config,
)
from repro.matching.mma.matcher import MMAMatcher
from repro.recovery.trmma.recoverer import TRMMARecoverer

from ._shared import RESULTS_DIR, SWEEP_SCALE

BENCH_PR3_JSON = RESULTS_DIR / "BENCH_PR3.json"
WORKERS = 4


def _recovered_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for ta, tb in zip(a, b):
        if len(ta.points) != len(tb.points):
            return False
        for pa, pb in zip(ta.points, tb.points):
            if (pa.edge_id, pa.ratio, pa.t) != (pb.edge_id, pb.ratio, pb.t):
                return False
    return True


def test_parallel_engine_throughput(benchmark):
    scale = SWEEP_SCALE  # bench scale, PT
    dataset = get_dataset("PT", scale)
    matcher = MMAMatcher(dataset.network, mma_config(scale), seed=scale.seed)
    from repro.matching import attach_planner_statistics

    attach_planner_statistics(matcher, dataset.transition_statistics())
    recoverer = TRMMARecoverer(
        dataset.network, matcher, trmma_config(scale), seed=scale.seed
    )
    # One epoch each: throughput does not depend on model quality.
    matcher.fit_epoch(dataset)
    recoverer.fit_epoch(dataset)

    trajectories = [s.sparse for s in dataset.test]
    config = EngineConfig(
        engine="parallel", workers=WORKERS, batch_size=BENCH_BATCH_SIZE
    )
    serial = SerialEngine(matcher, recoverer, config)

    def match_time(engine):
        return inference_time(engine.match, dataset.test)

    def recover_time(engine):
        return inference_time(
            lambda ts: engine.recover(ts, dataset.epsilon), dataset.test
        )

    def measure():
        results = {}
        results["serial_match_s_per_1000"] = match_time(serial)
        results["serial_recover_s_per_1000"] = recover_time(serial)
        with ParallelEngine(matcher, recoverer, config) as parallel:
            parallel.warm_up()
            results["workers"] = parallel.workers
            results["match_parity"] = parallel.match(
                trajectories
            ) == serial.match(trajectories)
            results["recover_parity"] = _recovered_equal(
                parallel.recover(trajectories, dataset.epsilon),
                serial.recover(trajectories, dataset.epsilon),
            )
            results["parallel_match_s_per_1000"] = match_time(parallel)
            results["parallel_recover_s_per_1000"] = recover_time(parallel)
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Parity is unconditional: parallelism must never change outputs.
    assert results["match_parity"]
    assert results["recover_parity"]

    cpu_count = os.cpu_count() or 1
    entry = {
        "cpu_count": cpu_count,
        "workers": results["workers"],
        "batch_size": BENCH_BATCH_SIZE,
        "n_trajectories": len(trajectories),
        "bit_exact": True,
        "fig5_recovery": {
            "serial_s_per_1000": round(results["serial_recover_s_per_1000"], 6),
            "parallel_s_per_1000": round(
                results["parallel_recover_s_per_1000"], 6
            ),
            "speedup": round(
                results["serial_recover_s_per_1000"]
                / results["parallel_recover_s_per_1000"],
                4,
            ),
        },
        "fig9_matching": {
            "serial_s_per_1000": round(results["serial_match_s_per_1000"], 6),
            "parallel_s_per_1000": round(
                results["parallel_match_s_per_1000"], 6
            ),
            "speedup": round(
                results["serial_match_s_per_1000"]
                / results["parallel_match_s_per_1000"],
                4,
            ),
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_PR3_JSON.write_text(
        json.dumps({"parallel_engine": entry}, indent=2, sort_keys=True) + "\n"
    )

    # The multi-core throughput claim needs actual cores to run on.
    if cpu_count >= WORKERS:
        assert entry["fig5_recovery"]["speedup"] >= 2.5
