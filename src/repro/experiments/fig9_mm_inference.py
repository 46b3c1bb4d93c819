"""Fig. 9: map-matching inference time per 1000 trajectories (seconds).

Expected shape: MMA fastest or near-fastest among learned methods (Nearest
is trivially cheap but inaccurate); DeepMM/GraphMM/RNTrajRec markedly
slower.  The extra ``MMA (batched)`` row times the same matcher through its
batched inference path (bulk k-NN + vectorised encoding + stacked model
forward); its matches are bit-identical to the sequential MMA row.

The batched row also runs under :func:`repro.telemetry.capture_stages`, so
the report carries a per-stage time breakdown (candidates / features /
model / routing) of the measured window — the Fig. 9 stage accounting the
paper discusses but never tabulates.
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
    trained_matchers,
)

#: Footnote keys (underscore-prefixed entries are not method rows).
STAGES_KEY = "_stages"
STAGE_WINDOW_KEY = "_stage_window_seconds"


def run(scale: ExperimentScale = BENCH) -> Dict[str, Dict[str, object]]:
    """{dataset: {method: seconds per 1000 matchings, plus stage footnotes}}."""
    results: Dict[str, Dict[str, object]] = {}
    for name in scale.datasets:
        dataset = get_dataset(name, scale)
        matchers = trained_matchers(name, scale)
        times: Dict[str, object] = {
            method: inference_time(
                lambda ts, m=matcher: [m.match(t) for t in ts], dataset.test
            )
            for method, matcher in matchers.items()
        }
        if "MMA" in matchers:
            mma = matchers["MMA"]
            with capture_stages() as capture:
                times["MMA (batched)"] = inference_time(
                    lambda ts: mma.match_many(ts, batch_size=BENCH_BATCH_SIZE),
                    dataset.test,
                )
            times[STAGES_KEY] = dict(capture.stages)
            times[STAGE_WINDOW_KEY] = capture.window_seconds
            if scale.workers > 0:
                from ..engine import ParallelEngine

                with ParallelEngine(
                    mma, config=engine_config(scale, BENCH_BATCH_SIZE)
                ) as engine:
                    engine.warm_up()
                    times[f"MMA (parallel x{engine.workers})"] = (
                        inference_time(engine.match, dataset.test)
                    )
        results[name] = times
    return results


def report(results: Dict[str, Dict[str, object]]) -> str:
    blocks = []
    for name, times in results.items():
        rows = {m: t for m, t in times.items() if not m.startswith("_")}
        table = {method: {"s/1000": t} for method, t in rows.items()}
        block = render_metric_table(
            table, ("s/1000",),
            title=f"Fig. 9 ({name}) — matching inference time per 1000",
        )
        sequential = times.get("MMA")
        batched = times.get("MMA (batched)")
        if sequential and batched and batched > 0:
            block += (
                f"\nMMA batched speedup: {sequential / batched:.2f}x "
                f"(batch size {BENCH_BATCH_SIZE}, identical matches)"
            )
        stages = times.get(STAGES_KEY)
        if stages:
            block += "\n\nMMA (batched) stage breakdown:\n" + render_stage_table(
                stages, times.get(STAGE_WINDOW_KEY)
            )
        blocks.append(block)
    return "\n\n".join(blocks)
