"""MMA: candidate sets, features, model, matcher (Section IV)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import MMAConfig
from repro.data.trajectory import GPSPoint, Trajectory
from repro.matching.mma import (
    MMAFeatureEncoder,
    MMAMatcher,
    MMAModel,
    candidate_hit_ratio,
    candidate_sets_batch,
    mean_distance_to_rank,
)
from repro.matching.mma.features import stack_encoded
from repro.matching import attach_planner_statistics
from repro.network.node2vec import Node2VecConfig

FAST_N2V = Node2VecConfig(
    dimensions=16, walk_length=8, walks_per_node=1, window=2, negatives=2, epochs=1
)
SMALL = MMAConfig(d0=16, d2=16, node2vec=FAST_N2V)


def _model(n_segments, **overrides):
    """An MMA model at the ``SMALL`` widths."""
    settings = dict(
        d0=SMALL.d0, d2=SMALL.d2, ffn_hidden=SMALL.ffn_hidden,
        use_context=True, use_directional=True, seed=0,
    )
    settings.update(overrides)
    return MMAModel(n_segments, **settings)


def _encode(encoder, trajectory):
    """One trajectory's encoding, stacked as a batch of one."""
    return stack_encoded(encoder.encode_batch([trajectory]))


class TestCandidates:
    def test_candidate_set_size_and_padding(self, square_network):
        traj = Trajectory([GPSPoint(50.0, 2.0, 0.0)])
        (sets,) = candidate_sets_batch(square_network, [traj], k_c=10)
        # Network has only 8 segments; set padded to k_c.
        assert len(sets[0]) == 10

    def test_candidates_sorted_by_distance(self, tiny_dataset):
        s = tiny_dataset.test[0]
        (sets,) = candidate_sets_batch(tiny_dataset.network, [s.sparse], k_c=10)
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
        (encoded,) = enc.encode_batch([s.sparse])
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
        (encoded,) = enc.encode_batch([s.sparse])
        labels = enc.labels(encoded, s.gt_segments)
        assert set(np.unique(labels)) <= {0.0, 1.0}
        assert (labels.sum(axis=1) <= 1.0).all()

    def test_faithful_variant_has_four_features(self, tiny_dataset):
        enc = MMAFeatureEncoder(tiny_dataset.network, use_distance_feature=False)
        (encoded,) = enc.encode_batch([tiny_dataset.test[0].sparse])
        assert encoded.candidate_directions.shape[-1] == 4


class TestModel:
    def test_forward_shapes(self, tiny_dataset):
        enc = MMAFeatureEncoder(tiny_dataset.network, k_c=10)
        model = _model(tiny_dataset.network.n_segments)
        batch = _encode(enc, tiny_dataset.test[0].sparse)
        logits = model(batch)
        assert logits.shape == (1, len(tiny_dataset.test[0].sparse), 10)

    def test_predicted_segments_among_candidates(self, tiny_dataset):
        enc = MMAFeatureEncoder(tiny_dataset.network, k_c=10)
        model = _model(tiny_dataset.network.n_segments)
        batch = _encode(enc, tiny_dataset.test[0].sparse)
        (predicted,) = model.predict_segments_batch(batch)
        for row, pred in zip(batch.candidate_ids[0], predicted):
            assert pred in row

    def test_ablation_flags_change_output(self, tiny_dataset):
        enc = MMAFeatureEncoder(tiny_dataset.network, k_c=10)
        batch = _encode(enc, tiny_dataset.test[0].sparse)
        full = _model(tiny_dataset.network.n_segments)
        no_ctx = _model(tiny_dataset.network.n_segments, use_context=False)
        assert not np.allclose(full(batch).data, no_ctx(batch).data)


class TestMatcher:
    @pytest.fixture(scope="class")
    def trained(self, tiny_dataset):
        matcher = MMAMatcher(tiny_dataset.network, SMALL, seed=0)
        attach_planner_statistics(matcher, tiny_dataset.transition_statistics())
        matcher.fit(tiny_dataset, epochs=4)
        return matcher

    def test_training_reduces_loss(self, tiny_dataset):
        matcher = MMAMatcher(
            tiny_dataset.network, replace(SMALL, use_node2vec=False), seed=0
        )
        first = matcher.fit_epoch(tiny_dataset)
        for _ in range(3):
            last = matcher.fit_epoch(tiny_dataset)
        assert last < first

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
        acc = trained.validation_point_accuracy(tiny_dataset)
        assert 0.0 <= acc <= 1.0
