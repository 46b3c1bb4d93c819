"""Extra autograd coverage: composite models, edge shapes, numerics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    GRU,
    MLP,
    Adam,
    LayerNorm,
    Linear,
    Tensor,
    TransformerEncoder,
    bce_with_logits,
    bce_with_logits_sum,
    concat,
    mae_loss,
    softmax,
)
from repro.nn.tensor import _unbroadcast, gradcheck


class TestUnbroadcast:
    def test_identity_shape(self):
        g = np.ones((3, 4))
        assert _unbroadcast(g, (3, 4)).shape == (3, 4)

    def test_leading_axis_summed(self):
        g = np.ones((5, 3))
        out = _unbroadcast(g, (3,))
        np.testing.assert_allclose(out, np.full(3, 5.0))
        g = np.arange(12.0).reshape(1, 4, 3)  # a batch of one
        np.testing.assert_array_equal(_unbroadcast(g, (4, 3)), g[0])
        np.testing.assert_array_equal(_unbroadcast(g, (3,)), g[0].sum(axis=0))

    def test_keepdim_axis_summed(self):
        g = np.ones((3, 4))
        out = _unbroadcast(g, (3, 1))
        np.testing.assert_allclose(out, np.full((3, 1), 4.0))

    @given(
        rows=st.integers(1, 5), cols=st.integers(1, 5),
    )
    @settings(max_examples=20, deadline=None)
    def test_gradient_of_broadcast_add_matches_fd(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        b_val = rng.normal(size=(cols,))
        assert gradcheck(
            lambda t: (t + Tensor(b_val)).sum(), rng.normal(size=(rows, cols))
        )


class TestCompositeGradients:
    def test_two_layer_network_gradcheck(self):
        rng = np.random.default_rng(0)
        mlp = MLP(3, 5, 2, seed=1)

        def fn(t):
            return (mlp(t) ** 2.0).sum()

        assert gradcheck(fn, rng.normal(size=(4, 3)))

    def test_layernorm_then_linear(self):
        rng = np.random.default_rng(1)
        ln = LayerNorm(4)
        lin = Linear(4, 2, seed=0)
        assert gradcheck(lambda t: lin(ln(t)).sum(), rng.normal(size=(3, 4)))

    def test_attention_softmax_chain(self):
        rng = np.random.default_rng(2)
        v = Tensor(rng.normal(size=(4, 3)))

        def fn(t):
            weights = softmax(t.matmul(t.T), axis=-1)
            return weights.matmul(v).sum()

        assert gradcheck(fn, rng.normal(size=(4, 3)) * 0.3)

    def test_concat_of_transformed_branches(self):
        rng = np.random.default_rng(3)
        l1 = Linear(3, 2, seed=0)
        l2 = Linear(3, 2, seed=1)

        def fn(t):
            return concat([l1(t), l2(t)], axis=-1).relu().sum()

        assert gradcheck(fn, rng.normal(size=(4, 3)))


class TestLossNumerics:
    def test_bce_sum_is_n_times_mean(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(6,)))
        targets = (rng.random(6) > 0.5).astype(float)
        mean = bce_with_logits(logits, targets).item()
        total = bce_with_logits_sum(logits, targets).item()
        assert total == pytest.approx(6 * mean)

    def test_mae_is_translation_invariant(self):
        preds = Tensor(np.array([1.0, 2.0, 3.0]))
        a = mae_loss(preds, np.array([0.0, 1.0, 2.0])).item()
        b = mae_loss(preds + 5.0, np.array([5.0, 6.0, 7.0])).item()
        assert a == pytest.approx(b)

    def test_bce_gradcheck(self):
        rng = np.random.default_rng(4)
        targets = (rng.random(5) > 0.5).astype(float)
        assert gradcheck(
            lambda t: bce_with_logits(t, targets), rng.normal(size=(5,))
        )


class TestTrainingDynamics:
    def test_transformer_can_overfit_sequence_task(self):
        """Predict whether the first element of a sequence is positive —
        needs attention to move information across positions."""
        rng = np.random.default_rng(5)
        enc = TransformerEncoder(8, n_layers=1, n_heads=2, ffn_hidden=16, seed=0)
        head = Linear(8, 1, seed=0)
        opt = Adam(enc.parameters() + head.parameters(), lr=3e-3)
        sequences = [rng.normal(size=(5, 8)) for _ in range(24)]
        labels = [float(s[0, 0] > 0) for s in sequences]
        for _ in range(60):
            opt.zero_grad()
            losses = []
            for seq, label in zip(sequences, labels):
                out = enc(Tensor(seq))
                # Read the answer from the LAST position.
                logit = head(out[4].reshape(1, 8)).reshape(1)
                losses.append(bce_with_logits(logit, np.array([label])))
            total = losses[0]
            for extra in losses[1:]:
                total = total + extra
            (total * (1.0 / len(losses))).backward()
            opt.step()
        correct = 0
        for seq, label in zip(sequences, labels):
            out = enc(Tensor(seq))
            logit = head(out[4].reshape(1, 8)).data[0, 0]
            correct += int((logit > 0) == bool(label))
        assert correct >= 20  # > 83% on train: attention moved the bit

    def test_gru_can_memorise_first_input(self):
        rng = np.random.default_rng(6)
        gru = GRU(2, 8, seed=0)
        head = Linear(8, 1, seed=0)
        opt = Adam(gru.parameters() + head.parameters(), lr=5e-3)
        sequences = [rng.normal(size=(4, 2)) for _ in range(16)]
        labels = [float(s[0, 0] > 0) for s in sequences]
        for _ in range(80):
            opt.zero_grad()
            losses = []
            for seq, label in zip(sequences, labels):
                _, final = gru(Tensor(seq))
                logit = head(final.reshape(1, 8)).reshape(1)
                losses.append(bce_with_logits(logit, np.array([label])))
            total = losses[0]
            for extra in losses[1:]:
                total = total + extra
            (total * (1.0 / len(losses))).backward()
            opt.step()
        correct = 0
        for seq, label in zip(sequences, labels):
            _, final = gru(Tensor(seq))
            logit = head(final.reshape(1, 8)).data[0, 0]
            correct += int((logit > 0) == bool(label))
        assert correct >= 13
