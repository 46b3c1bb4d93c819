"""Shared benchmark plumbing.

Each benchmark module regenerates one paper artefact (table or figure) at
``BENCH`` scale, times the regeneration with pytest-benchmark, prints the
paper-style report through the structured logger, and writes it to
``benchmarks/results/<id>.txt``.  For the efficiency figures (Figs. 5/9)
the report carries the per-stage time breakdown (candidates / features /
model / routing / decode seconds) captured by ``repro.telemetry`` around
the batched-inference measurement.

Same-machine, noise-aware speed measurements of the trained stack live in
``perfbench/`` (``python3 perfbench/run.py``), not here.

The heavyweight sweep experiments (Figs. 7, 8, 11 retrain per setting) run
on a reduced dataset list to keep the suite practical; pass ``--scale`` via
``python -m repro.experiments`` for full runs.
"""

from __future__ import annotations

import pathlib
from dataclasses import replace

from repro.experiments import BENCH, EXPERIMENTS, ExperimentScale
from repro.utils.tables import emit_table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Reduced scale for the experiments that retrain per sweep setting.
SWEEP_SCALE = replace(BENCH, datasets=("PT",))


def run_and_report(
    benchmark, experiment_id: str, scale: ExperimentScale = BENCH
):
    """Run one experiment under pytest-benchmark and persist its report."""
    experiment = EXPERIMENTS[experiment_id]
    results = benchmark.pedantic(
        experiment.run, args=(scale,), rounds=1, iterations=1
    )
    report = experiment.report(results)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(report + "\n")
    emit_table("\n" + report)
    return results
