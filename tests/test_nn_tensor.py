"""Autograd engine: gradients verified against finite differences."""

import gc
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import MLP
from repro.nn.tensor import (
    Tensor,
    concat,
    gradcheck,
    log_softmax,
    softmax,
    softplus,
    stack,
)

rng = np.random.default_rng(42)


def randn(*shape):
    return np.random.default_rng(abs(hash(shape)) % 2**31).normal(size=shape)


class TestBasics:
    def test_shape_properties(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3) and t.ndim == 2 and t.size == 6

    def test_item_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            t.backward()

    def test_detach_breaks_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad

    def test_gradient_accumulates_over_multiple_uses(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        out = t * 3.0 + t * 4.0
        out.sum().backward()
        assert t.grad[0] == pytest.approx(7.0)

    def test_tensor_pickles(self):
        t = Tensor(randn(3, 2), requires_grad=True)
        copy = pickle.loads(pickle.dumps(t))
        assert np.array_equal(copy.data, t.data)
        assert copy.requires_grad
        (copy * 2.0).sum().backward()
        assert np.array_equal(copy.grad, np.full((3, 2), 2.0))

    def test_module_pickles(self):
        mlp = MLP(4, 8, 2, seed=0)
        copy = pickle.loads(pickle.dumps(mlp))
        state, copied = mlp.state_dict(), copy.state_dict()
        assert state.keys() == copied.keys()
        for name in state:
            assert np.array_equal(state[name], copied[name])
        x = Tensor(randn(5, 4))
        assert np.array_equal(copy(x).data, mlp(x).data)

    def test_graph_is_freed_without_cyclic_gc(self):
        """A dropped graph is freed by reference counting: no op leaves a
        reference cycle for the cyclic collector to find."""
        x = Tensor(randn(4, 3), requires_grad=True)
        gc.collect()
        gc.disable()
        try:
            rows = concat([x, stack([x[0], x[1]])], axis=0)
            loss = softmax(rows.matmul(Tensor(randn(3, 2))).tanh()).sum()
            loss.backward()
            del rows, loss
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestElementwiseGradients:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda t: (t * t).sum(),
            lambda t: (t + 2.0).mean(),
            lambda t: (t - 0.5).pow(3.0).sum(),
            lambda t: t.exp().sum(),
            lambda t: t.tanh().sum(),
            lambda t: t.sigmoid().sum(),
            lambda t: t.relu().sum(),
            lambda t: softplus(t).sum(),
            lambda t: (1.0 / (t + 5.0)).sum(),
        ],
    )
    def test_gradcheck(self, fn):
        assert gradcheck(fn, randn(4, 3) * 0.5)

    def test_log_gradient(self):
        assert gradcheck(lambda t: t.log().sum(), np.abs(randn(5)) + 1.0)

    def test_abs_gradient_away_from_zero(self):
        x = randn(6)
        x[np.abs(x) < 0.1] = 0.5
        assert gradcheck(lambda t: t.abs().sum(), x)

    def test_sqrt(self):
        assert gradcheck(lambda t: t.sqrt().sum(), np.abs(randn(4)) + 1.0)


class TestBroadcasting:
    def test_add_broadcast_gradient(self):
        a = Tensor(randn(3, 4), requires_grad=True)
        b = Tensor(randn(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_mul_broadcast_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.array([[2.0], [3.0]]), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, [[3.0], [3.0]])

    def test_scalar_broadcast(self):
        a = Tensor(randn(3), requires_grad=True)
        (a * 2.0 + 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(3, 2.0))


class TestMatmul:
    def test_2d_gradcheck(self):
        W = Tensor(randn(4, 3))
        assert gradcheck(lambda t: t.matmul(W).sum(), randn(5, 4))

    def test_2d_weight_gradient(self):
        x = randn(5, 4)
        assert gradcheck(lambda t: Tensor(x).matmul(t).sum(), randn(4, 3))

    def test_batched_3d(self):
        a = Tensor(randn(2, 3, 4), requires_grad=True)
        b = Tensor(randn(2, 4, 5), requires_grad=True)
        out = a.matmul(b)
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)

    def test_batched_gradcheck(self):
        B = Tensor(randn(2, 4, 3))
        assert gradcheck(lambda t: t.matmul(B).sum(), randn(2, 5, 4))


class TestReductionsAndShape:
    def test_sum_axis_gradient(self):
        assert gradcheck(lambda t: (t.sum(axis=0) ** 0 * t.sum(axis=0)).sum(), randn(3, 4))

    def test_sum_keepdims(self):
        t = Tensor(randn(3, 4), requires_grad=True)
        out = t.sum(axis=1, keepdims=True)
        assert out.shape == (3, 1)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((3, 4)))

    def test_mean_axis(self):
        t = Tensor(randn(2, 4), requires_grad=True)
        t.mean(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, np.full((2, 4), 0.25))

    def test_reshape_roundtrip(self):
        assert gradcheck(lambda t: t.reshape(12).relu().sum(), randn(3, 4))

    def test_swapaxes(self):
        t = Tensor(randn(2, 5), requires_grad=True)
        out = t.swapaxes(0, 1)
        assert out.shape == (5, 2)
        (out * out).sum().backward()
        assert t.grad.shape == (2, 5)

    def test_getitem_row(self):
        t = Tensor(randn(4, 3), requires_grad=True)
        t[1].sum().backward()
        np.testing.assert_allclose(t.grad[1], np.ones(3))
        np.testing.assert_allclose(t.grad[0], np.zeros(3))

    def test_take_rows_scatter_add(self):
        t = Tensor(randn(5, 2), requires_grad=True)
        out = t.take_rows(np.array([0, 0, 3]))
        assert out.shape == (3, 2)
        out.sum().backward()
        np.testing.assert_allclose(t.grad[0], [2.0, 2.0])
        np.testing.assert_allclose(t.grad[3], [1.0, 1.0])
        np.testing.assert_allclose(t.grad[1], [0.0, 0.0])


class TestCombinators:
    def test_concat_gradients_route_correctly(self):
        a = Tensor(randn(2, 3), requires_grad=True)
        b = Tensor(randn(2, 2), requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * out).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a.data)
        np.testing.assert_allclose(b.grad, 2 * b.data)

    def test_stack(self):
        rows = [Tensor(randn(3), requires_grad=True) for _ in range(4)]
        out = stack(rows, axis=0)
        assert out.shape == (4, 3)
        out.sum().backward()
        for r in rows:
            np.testing.assert_allclose(r.grad, np.ones(3))

    def test_softmax_rows_sum_to_one(self):
        out = softmax(Tensor(randn(5, 7)), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5))

    def test_softmax_stable_for_large_logits(self):
        out = softmax(Tensor(np.array([1000.0, 1000.0])), axis=-1)
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_log_softmax_matches_log_of_softmax(self):
        x = randn(3, 4)
        a = log_softmax(Tensor(x), axis=-1).data
        b = np.log(softmax(Tensor(x), axis=-1).data)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_gradcheck(self):
        assert gradcheck(lambda t: (softmax(t, axis=-1) ** 2.0).sum(), randn(3, 4))

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_softplus_positive_and_monotone(self, seed):
        x = np.random.default_rng(seed).normal(size=8) * 10
        y = softplus(Tensor(np.sort(x))).data
        assert (y > 0).all()
        assert (np.diff(y) >= -1e-12).all()
