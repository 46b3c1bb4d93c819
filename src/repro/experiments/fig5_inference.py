"""Fig. 5: inference time per 1000 trajectory recoveries (seconds).

Expected shape: TRMMA fastest among the learned methods; the whole-network
decoders (RNTrajRec in particular, with its per-point subgraph processing)
orders of magnitude slower.  The extra ``TRMMA (batched)`` row times TRMMA
through its batched pipeline (batched matcher stage + route-cache-amortised
stitching); the report also surfaces the planner's route-cache hit rate,
which the stitching stage leans on across the whole test split.
"""

from __future__ import annotations

from typing import Dict

from ..eval.efficiency import inference_time
from ..telemetry import capture_stages, render_stage_table
from ..utils.tables import render_metric_table
from .common import (
    BENCH,
    BENCH_BATCH_SIZE,
    ExperimentScale,
    engine_config,
    get_dataset,
    trained_recoverers,
)

#: Key carrying the TRMMA planner's route-cache hit rate in ``run`` results.
#: Underscore-prefixed entries are report footnotes, not method rows.
ROUTE_CACHE_KEY = "_trmma_route_cache_hit_rate"
STAGES_KEY = "_stages"
STAGE_WINDOW_KEY = "_stage_window_seconds"


def run(scale: ExperimentScale = BENCH) -> Dict[str, Dict[str, object]]:
    """{dataset: {method: seconds per 1000 recoveries, plus footnotes}}."""
    results: Dict[str, Dict[str, object]] = {}
    for name in scale.datasets:
        dataset = get_dataset(name, scale)
        eps = dataset.epsilon
        recoverers = trained_recoverers(name, scale)
        times: Dict[str, object] = {
            method: inference_time(
                lambda ts, m=rec: [m.recover(t, eps) for t in ts], dataset.test
            )
            for method, rec in recoverers.items()
        }
        trmma = recoverers.get("TRMMA")
        if trmma is not None:
            with capture_stages() as capture:
                times["TRMMA (batched)"] = inference_time(
                    lambda ts: trmma.recover_many(
                        ts, eps, batch_size=BENCH_BATCH_SIZE
                    ),
                    dataset.test,
                )
            times[STAGES_KEY] = dict(capture.stages)
            times[STAGE_WINDOW_KEY] = capture.window_seconds
            matcher = getattr(trmma, "matcher", None)
            if matcher is not None:
                times[ROUTE_CACHE_KEY] = matcher.planner.cache_info().hit_rate
            if scale.workers > 0:
                from ..engine import ParallelEngine

                with ParallelEngine(
                    trmma.matcher, trmma,
                    engine_config(scale, BENCH_BATCH_SIZE),
                ) as engine:
                    engine.warm_up()
                    times[f"TRMMA (parallel x{engine.workers})"] = (
                        inference_time(
                            lambda ts: engine.recover(ts, eps), dataset.test
                        )
                    )
        results[name] = times
    return results


def report(results: Dict[str, Dict[str, float]]) -> str:
    blocks = []
    for name, times in results.items():
        rows = {m: t for m, t in times.items() if not m.startswith("_")}
        table = {method: {"s/1000": t} for method, t in rows.items()}
        block = render_metric_table(
            table, ("s/1000",),
            title=f"Fig. 5 ({name}) — recovery inference time per 1000",
        )
        hit_rate = times.get(ROUTE_CACHE_KEY)
        if hit_rate is not None:
            block += (
                f"\nTRMMA planner route-cache hit rate: {hit_rate:.1%} "
                f"(batch size {BENCH_BATCH_SIZE})"
            )
        stages = times.get(STAGES_KEY)
        if stages:
            block += (
                "\n\nTRMMA (batched) stage breakdown:\n"
                + render_stage_table(stages, times.get(STAGE_WINDOW_KEY))
            )
        blocks.append(block)
    return "\n\n".join(blocks)
