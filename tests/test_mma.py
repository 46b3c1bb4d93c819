"""MMA: candidate sets, features, model, matcher (Section IV)."""

import numpy as np
import pytest

from repro.data.trajectory import GPSPoint, Trajectory
from repro.matching.mma import (
    MMAFeatureEncoder,
    MMAMatcher,
    MMAModel,
    candidate_hit_ratio,
    candidate_sets,
    mean_distance_to_rank,
)
from repro.matching import attach_planner_statistics
from repro.network.node2vec import Node2VecConfig

FAST_N2V = Node2VecConfig(
    dimensions=16, walk_length=8, walks_per_node=1, window=2, negatives=2, epochs=1
)


class TestCandidates:
    def test_candidate_set_size_and_padding(self, square_network):
        traj = Trajectory([GPSPoint(50.0, 2.0, 0.0)])
        sets = candidate_sets(square_network, traj, k_c=10)
        # Network has only 8 segments; set padded to k_c.
        assert len(sets[0]) == 10

    def test_candidates_sorted_by_distance(self, tiny_dataset):
        s = tiny_dataset.test[0]
        sets = candidate_sets(tiny_dataset.network, s.sparse, k_c=10)
        for hits in sets:
            dists = [d for _, d in hits]
            assert dists == sorted(dists)

    def test_hit_ratio_monotone_in_k(self, tiny_dataset):
        curve = candidate_hit_ratio(
            tiny_dataset.network, tiny_dataset.test, kc_values=(1, 3, 5, 10)
        )
        values = [curve[k] for k in (1, 3, 5, 10)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert curve[10] > 0.9  # the Fig. 2 claim

    def test_hit_ratio_empty(self, tiny_dataset):
        assert candidate_hit_ratio(tiny_dataset.network, [], (1,)) == {1: 0.0}

    def test_mean_distance_grows_with_rank(self, tiny_dataset):
        d1 = mean_distance_to_rank(tiny_dataset.network, tiny_dataset.test, 1)
        d10 = mean_distance_to_rank(tiny_dataset.network, tiny_dataset.test, 10)
        assert d10 > d1


class TestFeatureEncoder:
    def test_shapes(self, tiny_dataset):
        enc = MMAFeatureEncoder(tiny_dataset.network, k_c=10)
        s = tiny_dataset.test[0]
        encoded = enc.encode(s.sparse)
        l = len(s.sparse)
        assert encoded.point_features.shape == (l, 3)
        assert encoded.candidate_ids.shape == (l, 10)
        assert encoded.candidate_directions.shape == (l, 10, 5)
        assert encoded.candidate_distances.shape == (l, 10)

    def test_point_features_normalised(self, tiny_dataset):
        enc = MMAFeatureEncoder(tiny_dataset.network)
        feats = enc.normalise_points(tiny_dataset.test[0].sparse)
        assert feats[:, 2].min() == 0.0
        assert feats[:, 2].max() == pytest.approx(1.0)

    def test_labels_one_hot_at_most(self, tiny_dataset):
        enc = MMAFeatureEncoder(tiny_dataset.network)
        s = tiny_dataset.test[0]
        encoded = enc.encode(s.sparse)
        labels = enc.labels(encoded, s.gt_segments)
        assert set(np.unique(labels)) <= {0.0, 1.0}
        assert (labels.sum(axis=1) <= 1.0).all()

    def test_faithful_variant_has_four_features(self, tiny_dataset):
        enc = MMAFeatureEncoder(tiny_dataset.network, use_distance_feature=False)
        encoded = enc.encode(tiny_dataset.test[0].sparse)
        assert encoded.candidate_directions.shape[-1] == 4


class TestModel:
    def test_forward_shapes(self, tiny_dataset):
        enc = MMAFeatureEncoder(tiny_dataset.network, k_c=10)
        model = MMAModel(tiny_dataset.network.n_segments, d0=16, d2=16, seed=0)
        encoded = enc.encode(tiny_dataset.test[0].sparse)
        logits = model(encoded)
        assert logits.shape == (len(tiny_dataset.test[0].sparse), 10)

    def test_predicted_segments_among_candidates(self, tiny_dataset):
        enc = MMAFeatureEncoder(tiny_dataset.network, k_c=10)
        model = MMAModel(tiny_dataset.network.n_segments, d0=16, d2=16, seed=0)
        encoded = enc.encode(tiny_dataset.test[0].sparse)
        predicted = model.predict_segments(encoded)
        for row, pred in zip(encoded.candidate_ids, predicted):
            assert pred in row

    def test_ablation_flags_change_output(self, tiny_dataset):
        enc = MMAFeatureEncoder(tiny_dataset.network, k_c=10)
        encoded = enc.encode(tiny_dataset.test[0].sparse)
        full = MMAModel(tiny_dataset.network.n_segments, d0=16, d2=16, seed=0)
        no_ctx = MMAModel(
            tiny_dataset.network.n_segments, d0=16, d2=16, seed=0, use_context=False
        )
        assert not np.allclose(full(encoded).data, no_ctx(encoded).data)


class TestMatcher:
    @pytest.fixture(scope="class")
    def trained(self, tiny_dataset):
        matcher = MMAMatcher(
            tiny_dataset.network, d0=16, d2=16, node2vec_config=FAST_N2V, seed=0
        )
        attach_planner_statistics(matcher, tiny_dataset.transition_statistics())
        matcher.fit(tiny_dataset, epochs=4)
        return matcher

    def test_training_reduces_loss(self, tiny_dataset):
        matcher = MMAMatcher(
            tiny_dataset.network, d0=16, d2=16, use_node2vec=False, seed=0
        )
        first = matcher.fit_epoch(tiny_dataset)
        for _ in range(3):
            last = matcher.fit_epoch(tiny_dataset)
        assert last < first

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_fit_epoch_rejects_non_positive_batch_size(
        self, tiny_dataset, batch_size
    ):
        matcher = MMAMatcher(
            tiny_dataset.network, d0=16, d2=16, use_node2vec=False, seed=0
        )
        with pytest.raises(ValueError, match="batch_size"):
            matcher.fit_epoch(tiny_dataset, batch_size=batch_size)

    def test_accuracy_beats_nearest(self, tiny_dataset, trained):
        from repro.matching import NearestMatcher

        def acc(m):
            hits = total = 0
            for s in tiny_dataset.test:
                pred = m.match_points(s.sparse)
                hits += sum(p == g for p, g in zip(pred, s.gt_segments))
                total += len(pred)
            return hits / total

        assert acc(trained) > acc(NearestMatcher(tiny_dataset.network))

    def test_route_connected(self, tiny_dataset, trained):
        route = trained.match(tiny_dataset.test[0].sparse)
        assert tiny_dataset.network.route_is_path(route)

    def test_validation_accuracy_in_unit_interval(self, tiny_dataset, trained):
        acc = trained.validation_accuracy(tiny_dataset)
        assert 0.0 <= acc <= 1.0
