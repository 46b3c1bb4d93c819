"""Extra ablation studies beyond the paper's Table IV.

DESIGN.md §7 calls out the design choices worth quantifying:

* **k_c sweep** — the paper fixes the candidate-set size at 10 after the
  Fig. 2 analysis; here we measure MMA's point-matching accuracy as k_c
  varies, exposing the coverage/ambiguity trade-off directly.
* **route planner** — the DA planner's history weighting (``tau``) against
  plain shortest-path stitching, measured by route F1 when stitching the
  *ground-truth* matched segments (isolates the planner).
* **distance feature** — this reproduction adds the perpendicular distance
  to MMA's candidate features (a scale adaptation, see EXPERIMENTS.md);
  this ablation quantifies what it buys.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Sequence

from ..eval.metrics import aggregate, matching_metrics
from ..matching import MMAMatcher, attach_planner_statistics
from ..network.routing import DARoutePlanner
from ..network.shortest_path import concatenate_routes
from ..utils.tables import render_series
from .common import BENCH, ExperimentScale, fit_matcher, get_dataset, mma_config

KC_VALUES = (1, 2, 5, 10)
TAU_VALUES = (0.0, 10.0, 30.0)


def _point_accuracy(matcher, samples) -> float:
    hits = total = 0
    for sample in samples:
        predicted = matcher.match_points(sample.sparse)
        hits += sum(p == g for p, g in zip(predicted, sample.gt_segments))
        total += len(predicted)
    return hits / max(total, 1)


def run_kc_sweep(
    scale: ExperimentScale = BENCH, kc_values: Sequence[int] = KC_VALUES
) -> Dict[str, Dict[int, float]]:
    """{dataset: {k_c: MMA test point accuracy}}."""
    results: Dict[str, Dict[int, float]] = {}
    for name in scale.datasets:
        dataset = get_dataset(name, scale)
        stats = dataset.transition_statistics()
        curve: Dict[int, float] = {}
        for k_c in kc_values:
            config = replace(
                mma_config(scale), k_c=k_c, ffn_hidden=4 * scale.d_h
            )
            matcher = MMAMatcher(dataset.network, config, seed=scale.seed)
            attach_planner_statistics(matcher, stats)
            fit_matcher(matcher, dataset, scale.matcher_epochs)
            curve[k_c] = _point_accuracy(matcher, dataset.test)
        results[name] = curve
    return results


def run_planner_ablation(
    scale: ExperimentScale = BENCH, tau_values: Sequence[float] = TAU_VALUES
) -> Dict[str, Dict[float, float]]:
    """{dataset: {tau: stitched route F1 (%) from ground-truth anchors}}.

    Stitching ground-truth matched segments isolates the planner's
    contribution from matcher errors.
    """
    results: Dict[str, Dict[float, float]] = {}
    for name in scale.datasets:
        dataset = get_dataset(name, scale)
        stats = dataset.transition_statistics()
        curve: Dict[float, float] = {}
        for tau in tau_values:
            planner = DARoutePlanner(dataset.network, stats, tau=tau)
            rows = []
            for sample in dataset.test:
                legs = [
                    planner.plan(a, b)
                    for a, b in zip(sample.gt_segments, sample.gt_segments[1:])
                ]
                route = (
                    concatenate_routes(legs) if legs else list(sample.gt_segments)
                )
                rows.append(matching_metrics(route, sample.route))
            curve[tau] = 100.0 * aggregate(rows)["f1"]
        results[name] = curve
    return results


def run_distance_feature_ablation(
    scale: ExperimentScale = BENCH,
) -> Dict[str, Dict[str, float]]:
    """{dataset: {variant: MMA test point accuracy}}."""
    results: Dict[str, Dict[str, float]] = {}
    for name in scale.datasets:
        dataset = get_dataset(name, scale)
        stats = dataset.transition_statistics()
        row: Dict[str, float] = {}
        for label, use_distance in (
            ("with-distance", True),
            ("paper-faithful", False),
        ):
            config = replace(
                mma_config(scale),
                ffn_hidden=4 * scale.d_h,
                use_distance_feature=use_distance,
            )
            matcher = MMAMatcher(dataset.network, config, seed=scale.seed)
            attach_planner_statistics(matcher, stats)
            fit_matcher(matcher, dataset, scale.matcher_epochs)
            row[label] = _point_accuracy(matcher, dataset.test)
        results[name] = row
    return results


def report_kc(results: Dict[str, Dict[int, float]]) -> str:
    series = {
        name: [curve[k] for k in sorted(curve)] for name, curve in results.items()
    }
    ks = sorted(next(iter(results.values())))
    return render_series(
        "k_c", ks, series, title="Extra — MMA point accuracy vs k_c"
    )


def report_planner(results: Dict[str, Dict[float, float]]) -> str:
    taus = sorted(next(iter(results.values())))
    series = {
        name: [curve[t] for t in taus] for name, curve in results.items()
    }
    return render_series(
        "tau", taus, series,
        title="Extra — stitched route F1 (%) vs planner history weight",
        precision=2,
    )
