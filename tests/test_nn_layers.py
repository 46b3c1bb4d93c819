"""Layers, attention, transformer, GRU, losses, optimisers, module tree."""

import numpy as np
import pytest

from repro.nn import (
    GRU,
    MLP,
    SGD,
    Adam,
    BiGRU,
    Dropout,
    Embedding,
    GRUCell,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    MultiHeadAttention,
    Sequential,
    Tensor,
    TransformerEncoder,
    TransformerEncoderLayer,
    bce_with_logits,
    cross_entropy,
    cross_entropy_sequence,
    mae_loss,
    scaled_dot_product_attention,
    sinusoidal_positions,
)
from repro.nn.tensor import gradcheck

rng = np.random.default_rng(0)


class TestLinear:
    def test_shapes(self):
        layer = Linear(4, 7, seed=0)
        out = layer(Tensor(rng.normal(size=(3, 4))))
        assert out.shape == (3, 7)

    def test_no_bias(self):
        layer = Linear(4, 2, bias=False, seed=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients_flow_to_weights(self):
        layer = Linear(3, 2, seed=1)
        out = layer(Tensor(rng.normal(size=(5, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(10, 4, seed=0)
        out = emb(np.array([1, 1, 3]))
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out.data[0], out.data[1])

    def test_from_pretrained(self):
        table = rng.normal(size=(6, 3))
        emb = Embedding.from_pretrained(table)
        np.testing.assert_allclose(emb(np.array([2])).data[0], table[2])
        assert emb.weight.requires_grad

    def test_gradient_scatter(self):
        emb = Embedding(5, 2, seed=0)
        emb(np.array([1, 1])).sum().backward()
        np.testing.assert_allclose(emb.weight.grad[1], [2.0, 2.0])


class TestLayerNorm:
    def test_normalises_last_axis(self):
        ln = LayerNorm(8)
        out = ln(Tensor(rng.normal(size=(4, 8)) * 10 + 5))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_gradcheck(self):
        ln = LayerNorm(4)
        assert gradcheck(lambda t: (ln(t) ** 2.0).sum(), rng.normal(size=(3, 4)))


class TestDropout:
    def test_eval_mode_is_identity(self):
        drop = Dropout(0.5, seed=0)
        drop.eval()
        x = Tensor(rng.normal(size=(10, 10)))
        np.testing.assert_allclose(drop(x).data, x.data)

    def test_train_mode_scales(self):
        drop = Dropout(0.5, seed=0)
        x = Tensor(np.ones((200, 200)))
        out = drop(x).data
        # Inverted dropout preserves the mean.
        assert out.mean() == pytest.approx(1.0, abs=0.05)
        assert set(np.unique(out)) <= {0.0, 2.0}

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestAttention:
    def test_scaled_dot_product_shapes(self):
        q = Tensor(rng.normal(size=(3, 8)))
        kv = Tensor(rng.normal(size=(5, 8)))
        out = scaled_dot_product_attention(q, kv, kv)
        assert out.shape == (3, 8)

    def test_mask_blocks_attention(self):
        q = Tensor(rng.normal(size=(1, 4)))
        k = Tensor(rng.normal(size=(2, 4)))
        v = Tensor(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))
        mask = np.array([[0.0, -1e9]])
        out = scaled_dot_product_attention(q, k, v, mask=mask)
        np.testing.assert_allclose(out.data, [[1.0, 0, 0, 0]], atol=1e-6)

    def test_mha_shapes_and_grads(self):
        mha = MultiHeadAttention(16, 4, seed=0)
        x = Tensor(rng.normal(size=(6, 16)), requires_grad=True)
        out = mha(x, x, x)
        assert out.shape == (6, 16)
        out.sum().backward()
        assert x.grad is not None and np.isfinite(x.grad).all()

    def test_mha_rejects_bad_heads(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3)


class TestTransformer:
    def test_positional_encoding_shape_and_range(self):
        enc = sinusoidal_positions(20, 16)
        assert enc.shape == (20, 16)
        assert np.abs(enc).max() <= 1.0

    def test_positions_distinguish_order(self):
        enc = sinusoidal_positions(10, 8)
        assert not np.allclose(enc[0], enc[5])

    def test_layer_roundtrip(self):
        layer = TransformerEncoderLayer(16, 4, 32, seed=0)
        out = layer(Tensor(rng.normal(size=(5, 16))))
        assert out.shape == (5, 16)

    def test_encoder_stacks_and_backprops(self):
        enc = TransformerEncoder(16, n_layers=2, n_heads=4, ffn_hidden=32, seed=0)
        x = Tensor(rng.normal(size=(7, 16)), requires_grad=True)
        out = enc(x)
        (out * out).mean().backward()
        assert np.isfinite(x.grad).all()
        assert len(enc.parameters()) > 10

    def test_encoder_is_order_sensitive(self):
        enc = TransformerEncoder(8, n_layers=1, n_heads=2, ffn_hidden=16, seed=0)
        x = rng.normal(size=(4, 8))
        a = enc(Tensor(x)).data
        b = enc(Tensor(x[::-1].copy())).data
        assert not np.allclose(a, b[::-1])


class TestGRU:
    def test_cell_shapes(self):
        cell = GRUCell(5, 8, seed=0)
        h = cell(Tensor(rng.normal(size=(1, 5))), Tensor(np.zeros((1, 8))))
        assert h.shape == (1, 8)

    def test_cell_stacked_rows_match_separate_calls(self):
        # TRMMA's decoder width: the concatenated input is 2 * 64 + 2 wide.
        cell = GRUCell(66, 64, seed=0)
        x = rng.normal(size=(7, 1, 66))
        h = rng.normal(size=(7, 1, 64))
        stacked = cell(Tensor(x), Tensor(h)).data
        assert stacked.shape == (7, 1, 64)
        for i in range(7):
            single = cell(Tensor(x[i]), Tensor(h[i])).data
            assert (stacked[i] == single).all()

    def test_sequence_output(self):
        gru = GRU(3, 6, seed=0)
        outs, final = gru(Tensor(rng.normal(size=(4, 3))))
        assert outs.shape == (4, 6)
        np.testing.assert_allclose(outs.data[-1], final.data)

    def test_state_carries_information(self):
        gru = GRU(2, 4, seed=0)
        x1 = np.zeros((3, 2))
        x2 = np.zeros((3, 2))
        x2[0] = 5.0
        a, _ = gru(Tensor(x1))
        b, _ = gru(Tensor(x2))
        assert not np.allclose(a.data[-1], b.data[-1])

    def test_bigru_concatenates_directions(self):
        bi = BiGRU(3, 5, seed=0)
        out = bi(Tensor(rng.normal(size=(4, 3))))
        assert out.shape == (4, 10)

    def test_gru_backprop(self):
        gru = GRU(3, 4, seed=0)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        outs, _ = gru(x)
        outs.sum().backward()
        assert np.isfinite(x.grad).all()


class TestLosses:
    def test_bce_matches_manual(self):
        logits = Tensor(np.array([0.0, 2.0]))
        targets = np.array([1.0, 0.0])
        loss = bce_with_logits(logits, targets).item()
        manual = np.mean(
            [-np.log(0.5), -np.log(1 - 1 / (1 + np.exp(-2.0)))]
        )
        assert loss == pytest.approx(manual)

    def test_bce_stable_extreme_logits(self):
        loss = bce_with_logits(Tensor(np.array([500.0, -500.0])), np.array([1.0, 0.0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_mae(self):
        loss = mae_loss(Tensor(np.array([1.0, 2.0])), np.array([0.0, 4.0]))
        assert loss.item() == pytest.approx(1.5)

    def test_cross_entropy_prefers_target(self):
        good = cross_entropy(Tensor(np.array([5.0, 0.0, 0.0])), 0).item()
        bad = cross_entropy(Tensor(np.array([5.0, 0.0, 0.0])), 1).item()
        assert good < bad

    def test_cross_entropy_sequence(self):
        logits = Tensor(rng.normal(size=(4, 6)))
        loss = cross_entropy_sequence(logits, np.array([0, 1, 2, 3]))
        assert loss.item() > 0


class TestOptimisers:
    def _quadratic_descent(self, optimiser_factory):
        w = Tensor(np.array([5.0]), requires_grad=True)
        opt = optimiser_factory([w])
        for _ in range(200):
            opt.zero_grad()
            loss = (w * w).sum()
            loss.backward()
            opt.step()
        return abs(w.data[0])

    def test_sgd_converges(self):
        assert self._quadratic_descent(lambda p: SGD(p, lr=0.1)) < 1e-3

    def test_sgd_momentum_converges(self):
        assert self._quadratic_descent(lambda p: SGD(p, lr=0.05, momentum=0.9)) < 1e-2

    def test_adam_converges(self):
        assert self._quadratic_descent(lambda p: Adam(p, lr=0.3)) < 1e-2

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)

    def test_clip_grad_norm(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        w.grad = np.array([10.0])
        opt = SGD([w], lr=0.1)
        norm = opt.clip_grad_norm(1.0)
        assert norm == pytest.approx(10.0)
        assert abs(w.grad[0]) == pytest.approx(1.0)


class TestModuleTree:
    def test_nested_parameter_discovery(self):
        model = Sequential(Linear(3, 4, seed=0), Linear(4, 2, seed=0))
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == 4
        assert any("steps.0" in n for n in names)

    def test_state_dict_roundtrip(self):
        a = MLP(3, 8, 2, seed=0)
        b = MLP(3, 8, 2, seed=99)
        b.load_state_dict(a.state_dict())
        x = Tensor(rng.normal(size=(2, 3)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_state_dict_mismatch_raises(self):
        a = MLP(3, 8, 2, seed=0)
        b = Linear(3, 2, seed=0)
        with pytest.raises(KeyError):
            b.load_state_dict(a.state_dict())

    def test_train_eval_propagates(self):
        model = Sequential(Dropout(0.5), Linear(2, 2))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_module_list(self):
        ml = ModuleList([Linear(2, 2), Linear(2, 2)])
        assert len(ml) == 2
        assert isinstance(ml[0], Linear)

    def test_zero_grad(self):
        layer = Linear(2, 2, seed=0)
        layer(Tensor(rng.normal(size=(1, 2)))).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_n_parameters(self):
        layer = Linear(3, 4, seed=0)
        assert layer.n_parameters() == 3 * 4 + 4
