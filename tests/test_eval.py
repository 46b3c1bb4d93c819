"""Evaluation metrics, harness, and efficiency probes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.trajectory import MapMatchedPoint, MatchedTrajectory
from repro.eval.efficiency import (
    efficiency_report,
    inference_time,
    training_time_per_epoch,
)
from repro.eval.evaluate import evaluate_matching, evaluate_recovery
from repro.eval.metrics import (
    aggregate,
    as_percentages,
    matching_metrics,
    recovery_metrics,
)
from repro.matching import NearestMatcher
from repro.network.distances import NetworkDistance
from repro.recovery.linear_interp import LinearInterpolationRecoverer


def mt(specs):
    return MatchedTrajectory(
        [MapMatchedPoint(e, r, 15.0 * i) for i, (e, r) in enumerate(specs)]
    )


class TestRecoveryMetrics:
    def test_perfect_recovery(self, square_network):
        dist = NetworkDistance(square_network)
        truth = mt([(0, 0.2), (0, 0.6), (4, 0.3)])
        m = recovery_metrics(truth, truth, dist)
        assert m["accuracy"] == 1.0
        assert m["f1"] == 1.0
        assert m["mae"] == 0.0
        assert m["rmse"] == 0.0

    def test_length_mismatch_raises(self, square_network):
        dist = NetworkDistance(square_network)
        with pytest.raises(ValueError):
            recovery_metrics(mt([(0, 0.2)]), mt([(0, 0.2), (0, 0.5)]), dist)

    def test_partial_overlap(self, square_network):
        dist = NetworkDistance(square_network)
        pred = mt([(0, 0.2), (2, 0.5)])
        truth = mt([(0, 0.2), (4, 0.5)])
        m = recovery_metrics(pred, truth, dist)
        assert m["accuracy"] == 0.5
        assert m["recall"] == 0.5  # |{0}| / |{0, 2}|
        assert m["precision"] == 0.5
        assert m["mae"] > 0

    def test_mae_rmse_ordering(self, square_network):
        dist = NetworkDistance(square_network)
        pred = mt([(0, 0.0), (0, 0.0)])
        truth = mt([(0, 0.0), (0, 0.9)])
        m = recovery_metrics(pred, truth, dist)
        assert m["rmse"] >= m["mae"]


class TestMatchingMetrics:
    def test_perfect_route(self):
        m = matching_metrics([1, 2, 3], [3, 2, 1])
        assert m == {"precision": 1.0, "recall": 1.0, "f1": 1.0, "jaccard": 1.0}

    def test_disjoint_routes(self):
        m = matching_metrics([1, 2], [3, 4])
        assert m["f1"] == 0.0 and m["jaccard"] == 0.0

    def test_paper_definitions(self):
        # Recall divides by |predicted|, precision by |truth| (Section VI-A).
        m = matching_metrics([1, 2, 3, 4], [1, 2])
        assert m["recall"] == pytest.approx(0.5)
        assert m["precision"] == pytest.approx(1.0)
        assert m["jaccard"] == pytest.approx(0.5)

    @given(
        pred=st.sets(st.integers(0, 20), min_size=1, max_size=10),
        truth=st.sets(st.integers(0, 20), min_size=1, max_size=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_symmetry_of_jaccard(self, pred, truth):
        m = matching_metrics(sorted(pred), sorted(truth))
        for v in m.values():
            assert 0.0 <= v <= 1.0
        swapped = matching_metrics(sorted(truth), sorted(pred))
        assert m["jaccard"] == pytest.approx(swapped["jaccard"])
        assert m["f1"] == pytest.approx(swapped["f1"])


class TestAggregation:
    def test_aggregate_means(self):
        rows = [{"a": 1.0, "b": 0.0}, {"a": 3.0, "b": 1.0}]
        assert aggregate(rows) == {"a": 2.0, "b": 0.5}

    def test_aggregate_empty(self):
        assert aggregate([]) == {}

    def test_percent_scaling_skips_metres(self):
        out = as_percentages({"f1": 0.5, "mae": 42.0, "rmse": 50.0})
        assert out == {"f1": 50.0, "mae": 42.0, "rmse": 50.0}


class TestHarness:
    def test_evaluate_matching_keys(self, tiny_dataset):
        metrics = evaluate_matching(NearestMatcher(tiny_dataset.network), tiny_dataset)
        assert set(metrics) == {"precision", "recall", "f1", "jaccard"}
        assert all(0 <= v <= 100 for v in metrics.values())

    def test_evaluate_recovery_keys(self, tiny_dataset):
        rec = LinearInterpolationRecoverer(
            tiny_dataset.network, NearestMatcher(tiny_dataset.network)
        )
        metrics = evaluate_recovery(rec, tiny_dataset)
        assert set(metrics) == {
            "recall", "precision", "f1", "accuracy", "mae", "rmse",
        }

    def test_evaluate_on_subset(self, tiny_dataset):
        rec = LinearInterpolationRecoverer(
            tiny_dataset.network, NearestMatcher(tiny_dataset.network)
        )
        metrics = evaluate_recovery(rec, tiny_dataset, samples=tiny_dataset.test[:2])
        assert metrics["accuracy"] >= 0


class TestEfficiency:
    def test_matching_inference_time_positive(self, tiny_dataset):
        matcher = NearestMatcher(tiny_dataset.network)
        t = inference_time(
            lambda ts: [matcher.match(t) for t in ts], tiny_dataset.test[:3]
        )
        assert t > 0

    def test_recovery_inference_time_positive(self, tiny_dataset):
        rec = LinearInterpolationRecoverer(
            tiny_dataset.network, NearestMatcher(tiny_dataset.network)
        )
        eps = tiny_dataset.epsilon
        t = inference_time(
            lambda ts: [rec.recover(t, eps) for t in ts], tiny_dataset.test[:3]
        )
        assert t > 0

    def test_empty_samples_raise(self, tiny_dataset):
        with pytest.raises(ValueError):
            inference_time(NearestMatcher(tiny_dataset.network).match_many, [])

    def test_training_time(self, tiny_dataset):
        from repro.matching import LHMMMatcher

        t = training_time_per_epoch(
            LHMMMatcher(tiny_dataset.network, seed=0), tiny_dataset
        )
        assert t > 0

    def test_efficiency_report_ratios(self):
        report = efficiency_report({"a": 1.0, "b": 4.0}, best_key="a")
        assert report == {"a": 1.0, "b": 4.0}
