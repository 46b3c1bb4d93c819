"""TRMMA: DualFormer encoder, decoder, model, recoverer, ablations."""

import numpy as np
import pytest

from repro.matching import FMMMatcher, NearestMatcher
from repro.recovery.trmma import (
    ABLATION_VARIANTS,
    TRMMARecoverer,
    build_example,
    make_trmma,
)
from repro.recovery.trmma.decoder import RecoveryDecoder
from repro.recovery.trmma.encoder import (
    DualFormerEncoder,
    build_point_features,
    route_attributes,
)
from repro.recovery.trmma.model import (
    TRMMAModel,
    _local_ratio,
    _point_offsets,
    interpolate_expected_offsets,
)
from repro.nn import Tensor


@pytest.fixture(scope="module")
def example(tiny_dataset):
    return build_example(tiny_dataset.network, tiny_dataset.train[0])


class TestEncoder:
    def test_point_features_shape(self, tiny_dataset):
        s = tiny_dataset.train[0]
        feats = build_point_features(
            tiny_dataset.network, s.sparse, s.gt_point_matches
        )
        assert feats.shape == (len(s.sparse), 4)
        assert (feats[:, 3] >= 0).all() and (feats[:, 3] <= 1).all()

    def test_route_attributes_shape(self, tiny_dataset):
        s = tiny_dataset.train[0]
        attrs = route_attributes(tiny_dataset.network, s.route)
        assert attrs.shape == (len(s.route), 2)
        assert set(np.unique(attrs[:, 0])) <= {0.0, 1.0}

    def test_fused_shape_one_row_per_route_segment(self, tiny_dataset, example):
        enc = DualFormerEncoder(tiny_dataset.network.n_segments, d_h=16, seed=0)
        ((rows, fused),) = enc(
            [example.point_features],
            [example.point_segments],
            [example.route],
            [example.route_attributes],
        )
        assert list(rows) == [0]
        assert fused.shape == (1, len(example.route), 16)

    def test_fusion_ablation_returns_route_encoding(self, tiny_dataset, example):
        enc = DualFormerEncoder(
            tiny_dataset.network.n_segments, d_h=16, use_fusion=False, seed=0
        )
        ((_, fused),) = enc(
            [example.point_features], [example.point_segments], [example.route]
        )
        route_only = enc.encode_route(example.route)
        np.testing.assert_allclose(fused.data[0], route_only.data)

    def test_encoder_backprop(self, tiny_dataset, example):
        enc = DualFormerEncoder(tiny_dataset.network.n_segments, d_h=16, seed=0)
        ((_, out),) = enc(
            [example.point_features], [example.point_segments], [example.route]
        )
        (out * out).mean().backward()
        assert enc.segment_embedding.weight.grad is not None


class TestDecoder:
    def test_step_shapes(self):
        dec = RecoveryDecoder(d_h=16, seed=0)
        fused = Tensor(np.random.default_rng(0).normal(size=(2, 7, 16)))
        hidden = dec.initial_state(fused)
        assert hidden.shape == (2, 1, 16)
        scores, ratio = dec.step(
            hidden, fused, np.zeros((2, 7, 3)), np.array([0.5, 0.5])
        )
        assert scores.shape == (2, 7)
        assert ratio.shape == (2,)

    def test_advance_changes_state(self):
        dec = RecoveryDecoder(d_h=16, seed=0)
        fused = Tensor(np.random.default_rng(0).normal(size=(1, 5, 16)))
        h0 = dec.initial_state(fused)
        h1 = dec.advance(h0, fused[:, 2:3], np.array([0.4]), np.array([0.1]))
        assert not np.allclose(h0.data, h1.data)

    def test_residual_ratio_stays_near_prior(self):
        dec = RecoveryDecoder(d_h=16, seed=0)
        fused = Tensor(np.random.default_rng(0).normal(size=(1, 5, 16)))
        hidden = dec.initial_state(fused)
        scores = dec.scores(hidden, fused, np.zeros((1, 5, 3)))
        readout = dec.readout(fused, scores)
        ratio = dec.ratio(hidden, readout, prior_ratio=np.array([0.6])).data[0]
        assert abs(ratio - 0.6) <= dec.MAX_RATIO_CORRECTION + 1e-9

    def test_faithful_variant_uses_sigmoid(self):
        dec = RecoveryDecoder(d_h=16, use_prior=False, seed=0)
        fused = Tensor(np.random.default_rng(0).normal(size=(1, 5, 16)))
        hidden = dec.initial_state(fused)
        scores, ratio = dec.step(hidden, fused)
        assert 0.0 < ratio.data[0] < 1.0


class TestPriorHelpers:
    def test_point_offsets(self):
        cum = np.array([0.0, 100.0, 250.0])
        offsets = _point_offsets(cum, [0, 1], [0.5, 0.2])
        np.testing.assert_allclose(offsets, [50.0, 130.0])

    def test_expected_offsets_interpolates_linearly(self):
        times = np.array([0.0, 15.0, 30.0])
        observed = np.array([True, False, True])
        expected = interpolate_expected_offsets(
            times, observed, np.array([0.0, 300.0])
        )
        np.testing.assert_allclose(expected, [0.0, 150.0, 300.0])

    def test_local_ratio(self):
        cum = np.array([0.0, 100.0, 250.0])
        idx, ratio = _local_ratio(cum, 175.0)
        assert idx == 1
        assert ratio == pytest.approx(0.5)

    def test_segment_priors_bump_peaks_at_expected(self):
        cum = np.array([0.0, 100.0, 200.0, 300.0])
        priors = TRMMAModel._segment_priors(cum, 150.0)
        assert priors.shape == (3, 3)
        assert priors[1, 2] == priors.max(axis=0)[2]  # bump max at middle seg


class TestModelTraining:
    def test_training_loss_positive_and_decreases(self, tiny_dataset):
        model = TRMMAModel(
            tiny_dataset.network.n_segments, d_h=16, ffn_hidden=32, seed=0
        )
        from repro.nn import Adam

        opt = Adam(model.parameters(), lr=1e-3)
        examples = [
            build_example(tiny_dataset.network, s) for s in tiny_dataset.train[:6]
        ]
        first = float(np.mean([model.training_loss(e).item() for e in examples]))
        for _ in range(4):
            for e in examples:
                loss = model.training_loss(e)
                opt.zero_grad()
                loss.backward()
                opt.step()
        last = float(np.mean([model.training_loss(e).item() for e in examples]))
        assert last < first

    def test_decode_respects_route_order(self, tiny_dataset):
        model = TRMMAModel(
            tiny_dataset.network.n_segments, d_h=16, ffn_hidden=32, seed=0
        )
        s = tiny_dataset.test[0]
        (out,) = model.decode(
            tiny_dataset.network,
            [s.sparse],
            [s.gt_point_matches],
            [s.route],
            tiny_dataset.epsilon,
        )
        assert len(out) == len(s.dense)
        # All emitted segments must lie on the route.
        assert set(p.edge_id for p in out) <= set(s.route)


class TestRecoverer:
    @pytest.fixture(scope="class")
    def trained(self, tiny_dataset):
        matcher = FMMMatcher(tiny_dataset.network)
        rec = TRMMARecoverer(
            tiny_dataset.network, matcher, d_h=16, ffn_hidden=32, seed=0
        )
        rec.fit(tiny_dataset, epochs=3)
        return rec

    def test_recover_aligns_with_ground_truth_grid(self, tiny_dataset, trained):
        for s in tiny_dataset.test[:5]:
            out = trained.recover(s.sparse, tiny_dataset.epsilon)
            assert len(out) == len(s.dense)
            for a, b in zip(out, s.dense):
                assert a.t == pytest.approx(b.t)

    def test_validation_loss_finite(self, tiny_dataset, trained):
        assert np.isfinite(trained.validation_loss(tiny_dataset))

    def test_snapshot_roundtrip(self, tiny_dataset, trained):
        snap = trained.snapshot()
        before = trained.validation_loss(tiny_dataset)
        trained.fit_epoch(tiny_dataset)
        trained.restore(snap)
        assert trained.validation_loss(tiny_dataset) == pytest.approx(before)

    def test_quality_beats_untrained(self, tiny_dataset, trained):
        from repro.eval import evaluate_recovery
        from repro.network.distances import NetworkDistance

        dist = NetworkDistance(tiny_dataset.network)
        fresh = TRMMARecoverer(
            tiny_dataset.network,
            FMMMatcher(tiny_dataset.network),
            d_h=16,
            ffn_hidden=32,
            seed=1,
        )
        trained_metrics = evaluate_recovery(trained, tiny_dataset, distance=dist)
        fresh_metrics = evaluate_recovery(fresh, tiny_dataset, distance=dist)
        assert trained_metrics["accuracy"] >= fresh_metrics["accuracy"] - 5.0


class TestAblationFactory:
    @pytest.mark.parametrize("variant", ABLATION_VARIANTS)
    def test_every_variant_builds_and_runs(self, tiny_dataset, variant):
        rec = make_trmma(
            tiny_dataset.network,
            tiny_dataset.transition_statistics(),
            variant,
            d_h=16,
            ffn_hidden=32,
            seed=0,
        )
        assert rec.name == variant
        matcher = getattr(rec, "matcher", None)
        if matcher is not None and matcher.requires_training:
            matcher.fit_epoch(tiny_dataset)
        rec.fit_epoch(tiny_dataset)
        s = tiny_dataset.test[0]
        out = rec.recover(s.sparse, tiny_dataset.epsilon)
        assert len(out) == len(s.dense)

    def test_unknown_variant_raises(self, tiny_dataset):
        with pytest.raises(KeyError):
            make_trmma(tiny_dataset.network, None, "TRMMA-XX")

    def test_df_variant_disables_fusion(self, tiny_dataset):
        rec = make_trmma(tiny_dataset.network, None, "TRMMA-DF", seed=0)
        assert not rec.model.encoder.use_fusion

    def test_near_variant_uses_nearest(self, tiny_dataset):
        rec = make_trmma(tiny_dataset.network, None, "TRMMA-Near", seed=0)
        assert isinstance(rec.matcher, NearestMatcher)
