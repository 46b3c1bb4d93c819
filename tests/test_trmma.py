"""TRMMA: DualFormer encoder, decoder, model, recoverer, ablations."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import TRMMAConfig
from repro.data.trajectory import MatchedTrajectory, TrajectorySample
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
    _ratio_within,
    interpolate_expected_offsets,
)
from repro.nn import Tensor, bce_with_logits

SMALL = TRMMAConfig(d_h=16, ffn_hidden=32)


def _model(n_segments, config=SMALL, seed=0):
    """A TRMMA model built from ``config``."""
    return TRMMAModel(
        n_segments,
        d_h=config.d_h,
        n_layers=config.n_layers,
        n_heads=config.n_heads,
        ffn_hidden=config.ffn_hidden,
        ratio_weight=config.ratio_weight,
        use_fusion=config.use_fusion,
        seed=seed,
    )


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
        model = _model(tiny_dataset.network.n_segments)
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
        model = _model(tiny_dataset.network.n_segments)
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


def training_loss_per_step(model, example):
    """Teacher-forced Eq. 21 loss, one missing point at a time: the GRU
    advances through every point and each missing point runs its own
    classifier, readout, ratio head, BCE and MAE.  The reference the
    two-phase :meth:`TRMMAModel.training_loss` must reproduce up to
    floating-point summation order."""
    ((_, fused),) = model.encoder(
        [example.point_features],
        [example.point_segments],
        [example.route],
        [example.route_attributes],
    )
    hidden = model.decoder.initial_state(fused)
    l_route = len(example.route)
    seg_losses, ratio_losses = [], []
    for j in range(len(example.dense_route_indices)):
        idx = int(example.dense_route_indices[j])
        ratio = float(example.dense_ratios[j])
        t_norm = float(example.dense_times_norm[j])
        if j > 0 and not example.dense_observed[j]:
            expected = example.dense_expected_offsets[j : j + 1]
            priors = model._segment_priors(example.route_cum, expected)
            prior_ratio = _ratio_within(example.route_cum, idx, expected)
            scores, predicted_ratio = model.decoder.step(
                hidden, fused, priors, prior_ratio
            )
            labels = np.zeros(l_route)
            labels[idx] = 1.0
            seg_losses.append(bce_with_logits(scores.reshape(l_route), labels))
            ratio_losses.append((predicted_ratio - ratio).abs().reshape(1).sum())
        hidden = model.decoder.advance(
            hidden, fused[:, idx : idx + 1], np.array([ratio]), np.array([t_norm])
        )
    if not seg_losses:
        return Tensor(np.zeros(()))
    total_seg, total_ratio = seg_losses[0], ratio_losses[0]
    for seg, ratio in zip(seg_losses[1:], ratio_losses[1:]):
        total_seg, total_ratio = total_seg + seg, total_ratio + ratio
    n = float(len(seg_losses))
    return total_seg * (1.0 / n) + total_ratio * (model.ratio_weight / n)


def _thinned(sample, n_missing):
    """``sample`` with only its first ``n_missing`` missing points left in
    the dense ground truth (the sparse input is unchanged)."""
    observed = set(sample.observed_indices)
    missing = [i for i in range(len(sample.dense)) if i not in observed]
    keep = sorted(observed | set(missing[:n_missing]))
    return TrajectorySample(
        sparse=sample.sparse,
        route=sample.route,
        dense=MatchedTrajectory([sample.dense[i] for i in keep]),
        observed_indices=[keep.index(i) for i in sample.observed_indices],
    )


def _loss_and_grads(model, loss_fn, example):
    model.zero_grad()
    loss = loss_fn(model, example)
    loss.backward()
    grads = [
        np.zeros_like(p.data) if p.grad is None else p.grad.copy()
        for p in model.parameters()
    ]
    return loss.item(), grads


class TestTrainingParity:
    @pytest.mark.parametrize(
        "config",
        [TRMMAConfig(d_h=16, ffn_hidden=32), TRMMAConfig()],
        ids=["d_h16", "defaults"],
    )
    def test_training_loss_matches_per_step_oracle(self, tiny_dataset, config):
        model = _model(tiny_dataset.network.n_segments, config)
        first = tiny_dataset.train[0]
        samples = tiny_dataset.train + [_thinned(first, 1), _thinned(first, 0)]
        examples = [build_example(tiny_dataset.network, s) for s in samples]
        assert (~examples[-2].dense_observed).sum() == 1
        assert examples[-1].dense_observed.all()
        for example in examples:
            expected, oracle_grads = _loss_and_grads(
                model, training_loss_per_step, example
            )
            loss, grads = _loss_and_grads(
                model, TRMMAModel.training_loss, example
            )
            assert loss == pytest.approx(expected, rel=1e-12, abs=0.0)
            for got, want in zip(grads, oracle_grads):
                assert np.allclose(got, want, rtol=1e-9, atol=1e-12)
        assert loss == 0.0 and not any(g.any() for g in grads)

    def test_fit_epoch_without_missing_points_takes_no_step(self, tiny_dataset):
        rec = TRMMARecoverer(
            tiny_dataset.network, NearestMatcher(tiny_dataset.network), SMALL,
            seed=0,
        )
        before = [p.data.copy() for p in rec.model.parameters()]
        split = SimpleNamespace(train=[_thinned(tiny_dataset.train[0], 0)])
        assert rec.fit_epoch(split) == 0.0
        assert rec.optimizer._t == 0
        for p, old in zip(rec.model.parameters(), before):
            np.testing.assert_array_equal(p.data, old)

    def test_training_builds_few_tensors(self, tiny_dataset, monkeypatch):
        """Deterministic guard against the per-point heads creeping back:
        Tensors built by loss + backward over the training split."""
        model = _model(tiny_dataset.network.n_segments)
        examples = [
            build_example(tiny_dataset.network, s) for s in tiny_dataset.train
        ]
        created = [0]
        init = Tensor.__init__

        def counted(self, *args, **kwargs):
            created[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counted)
        counts = []
        for loss_fn in (training_loss_per_step, TRMMAModel.training_loss):
            created[0] = 0
            for example in examples:
                loss_fn(model, example).backward()
            counts.append(created[0])
        per_step, two_phase = counts
        assert two_phase <= 0.6 * per_step


class TestRecoverer:
    @pytest.fixture(scope="class")
    def trained(self, tiny_dataset):
        matcher = FMMMatcher(tiny_dataset.network)
        rec = TRMMARecoverer(tiny_dataset.network, matcher, SMALL, seed=0)
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
            tiny_dataset.network, FMMMatcher(tiny_dataset.network), SMALL, seed=1
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
