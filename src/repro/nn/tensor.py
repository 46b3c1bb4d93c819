"""A small reverse-mode autodiff engine over NumPy arrays.

The paper's models (MMA, TRMMA, and the learned baselines) are built from
linear layers, embeddings, layer normalisation, softmax attention,
transformers, and GRUs.  PyTorch is not available in this environment, so
this module provides the substrate: a :class:`Tensor` that records the
computation graph and back-propagates exact gradients.

Design notes
------------
* Arrays are ``float64`` throughout; model scales in this repo are small
  enough that numerical robustness beats raw speed.
* Broadcasting follows NumPy semantics; gradients are "unbroadcast" (summed
  over broadcast axes) on the way back.
* The graph is built eagerly; ``backward()`` runs a topological sweep.
* Only the operations the models need are implemented — this is a substrate,
  not a framework.
"""

from __future__ import annotations

import math
import os
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the axes that were broadcast to reach ``grad.shape``."""
    if grad.shape == shape:
        return grad
    # Sum leading axes added by broadcasting.  A unit axis is indexed away
    # rather than summed (the sum would only turn -0.0 into +0.0, as
    # accumulating into the gradient does anyway), so a batch-of-one
    # backward costs what a 2-D one does.
    while grad.ndim > len(shape):
        grad = grad[0] if grad.shape[0] == 1 else grad.sum(axis=0)
    # Sum axes that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


#: Global autograd switch — flipped off inside :class:`no_grad` blocks.
_GRAD_ENABLED = [True]


def _reset_grad_after_fork() -> None:
    """Forked engine workers start with autograd on, whatever the parent
    was doing at fork time — a child must not inherit a half-open
    :class:`no_grad` scope whose ``__exit__`` runs only in the parent."""
    _GRAD_ENABLED[0] = True


if hasattr(os, "register_at_fork"):  # pragma: no branch - always true on posix
    os.register_at_fork(after_in_child=_reset_grad_after_fork)


class no_grad:
    """Context manager disabling graph construction (inference fast path).

    Inside the block every produced Tensor has ``requires_grad=False``, no
    backward closure, and no parent references — for the small arrays these
    models use, graph bookkeeping is a large share of wall-clock.
    """

    def __enter__(self) -> "no_grad":
        self._previous = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        _GRAD_ENABLED[0] = self._previous


class Tensor:
    """A NumPy array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: Tuple["Tensor", ...] = (),
        op: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        # Backward closures receive their output tensor as an argument: one
        # that captured it would make every graph a reference cycle, freed
        # only by a full cyclic-GC pass instead of when the loss is dropped.
        self._backward: Callable[["Tensor"], None] = lambda out: None
        self._prev = _prev
        self.op = op

    # ------------------------------------------------------------ properties

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, grad={self.requires_grad})"

    # ------------------------------------------------------------- graph ops

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor (must be scalar unless grad given)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar tensor")
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=np.float64).reshape(self.shape))
        for node in reversed(topo):
            node._backward(node)

    # ------------------------------------------------------------ arithmetic

    @staticmethod
    def _lift(value: Union["Tensor", ArrayLike]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _make(data, requires: bool, prev, op: str) -> "Tensor":
        """Result constructor honouring the global autograd switch."""
        if not _GRAD_ENABLED[0]:
            return Tensor(data, requires_grad=False, op=op)
        return Tensor(data, requires_grad=requires, _prev=prev, op=op)

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out = self._make(
            self.data + other.data,
            self.requires_grad or other.requires_grad,
            (self, other),
            "add",
        )

        def _backward(out: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.shape))

        if out.requires_grad:
            out._backward = _backward
        return out

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out = self._make(
            self.data * other.data,
            self.requires_grad or other.requires_grad,
            (self, other),
            "mul",
        )

        def _backward(out: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        if out.requires_grad:
            out._backward = _backward
        return out

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self * self._lift(other).pow(-1.0)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) * self.pow(-1.0)

    __radd__ = __add__
    __rmul__ = __mul__

    def pow(self, exponent: float) -> "Tensor":
        out = self._make(
            self.data**exponent, self.requires_grad, (self,), "pow"
        )

        def _backward(out: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        if out.requires_grad:
            out._backward = _backward
        return out

    def __pow__(self, exponent: float) -> "Tensor":
        return self.pow(float(exponent))

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product; supports 2-D and batched 3-D operands."""
        other = self._lift(other)
        out = self._make(
            self.data @ other.data,
            self.requires_grad or other.requires_grad,
            (self, other),
            "matmul",
        )

        def _backward(out: "Tensor") -> None:
            a, b, g = self.data, other.data, out.grad
            if self.requires_grad:
                grad_a = g @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(grad_a, self.shape))
            if other.requires_grad:
                if a.ndim == 3 and a.shape[0] == 1 and b.ndim == 2:
                    # A batch of one: the 2-D product, without numpy's
                    # stacked-matmul overhead.
                    grad_b = a[0].T @ g[0]
                else:
                    grad_b = np.swapaxes(a, -1, -2) @ g
                other._accumulate(_unbroadcast(grad_b, other.shape))

        if out.requires_grad:
            out._backward = _backward
        return out

    __matmul__ = matmul

    # ---------------------------------------------------------- elementwise

    def exp(self) -> "Tensor":
        out = self._make(np.exp(self.data), self.requires_grad, (self,), "exp")

        def _backward(out: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(out.grad * out.data)

        if out.requires_grad:
            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make(np.log(self.data), self.requires_grad, (self,), "log")

        def _backward(out: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(out.grad / self.data)

        if out.requires_grad:
            out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        out = self._make(np.tanh(self.data), self.requires_grad, (self,), "tanh")

        def _backward(out: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (1.0 - out.data**2))

        if out.requires_grad:
            out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-self.data))
        out = self._make(value, self.requires_grad, (self,), "sigmoid")

        def _backward(out: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(out.grad * out.data * (1.0 - out.data))

        if out.requires_grad:
            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        out = self._make(np.maximum(self.data, 0.0), self.requires_grad, (self,), "relu")

        def _backward(out: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (self.data > 0.0))

        if out.requires_grad:
            out._backward = _backward
        return out

    def abs(self) -> "Tensor":
        out = self._make(np.abs(self.data), self.requires_grad, (self,), "abs")

        def _backward(out: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(out.grad * np.sign(self.data))

        if out.requires_grad:
            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        return self.pow(0.5)

    # ------------------------------------------------------------ reductions

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out = self._make(
            self.data.sum(axis=axis, keepdims=keepdims),
            self.requires_grad,
            (self,),
            "sum",
        )

        def _backward(out: "Tensor") -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        if out.requires_grad:
            out._backward = _backward
        return out

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max_detached(self, axis: int, keepdims: bool = True) -> np.ndarray:
        """Max values as a constant (used for numerically stable softmax)."""
        return self.data.max(axis=axis, keepdims=keepdims)

    # --------------------------------------------------------------- reshape

    def reshape(self, *shape: int) -> "Tensor":
        out = self._make(self.data.reshape(shape), self.requires_grad, (self,), "reshape")

        def _backward(out: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.shape))

        if out.requires_grad:
            out._backward = _backward
        return out

    def swapaxes(self, a: int, b: int) -> "Tensor":
        out = self._make(np.swapaxes(self.data, a, b), self.requires_grad, (self,), "swap")

        def _backward(out: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(np.swapaxes(out.grad, a, b))

        if out.requires_grad:
            out._backward = _backward
        return out

    @property
    def T(self) -> "Tensor":
        return self.swapaxes(-1, -2)

    def __getitem__(self, key) -> "Tensor":
        out = self._make(self.data[key], self.requires_grad, (self,), "slice")

        def _backward(out: "Tensor") -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data)
                np.add.at(grad, key, out.grad)
                self._accumulate(grad)

        if out.requires_grad:
            out._backward = _backward
        return out

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Row lookup ``self[indices]`` with scatter-add backward (embedding)."""
        indices = np.asarray(indices, dtype=np.int64)
        out = self._make(self.data[indices], self.requires_grad, (self,), "take")

        def _backward(out: "Tensor") -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data)
                np.add.at(grad, indices, out.grad)
                self._accumulate(grad)

        if out.requires_grad:
            out._backward = _backward
        return out


# ------------------------------------------------------------------ helpers


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with exact gradient routing."""
    data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = any(t.requires_grad for t in tensors)
    out = Tensor._make(data, requires, tuple(tensors), "concat")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0, *sizes])

    def _backward(out: "Tensor") -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * data.ndim
                index[axis] = slice(int(start), int(stop))
                t._accumulate(out.grad[tuple(index)])

    if out.requires_grad:
        out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shape tensors along a new axis."""
    data = np.stack([t.data for t in tensors], axis=axis)
    requires = any(t.requires_grad for t in tensors)
    out = Tensor._make(data, requires, tuple(tensors), "stack")

    def _backward(out: "Tensor") -> None:
        grads = np.moveaxis(out.grad, axis, 0)
        for t, g in zip(tensors, grads):
            if t.requires_grad:
                t._accumulate(g)

    if out.requires_grad:
        out._backward = _backward
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    # Adding the negated max equals subtracting it bit-for-bit, and skips
    # the two temporaries ``Tensor.__sub__`` builds for the negation.
    shifted = x + Tensor(-x.max_detached(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.max_detached(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) computed stably as max(x, 0) + log1p(exp(-|x|))."""
    positive = x.relu()
    return positive + ((-x.abs()).exp() + 1.0).log()


def gradcheck(
    fn: Callable[[Tensor], Tensor],
    x: np.ndarray,
    eps: float = 1e-6,
    tol: float = 1e-4,
) -> bool:
    """Finite-difference check of ``fn``'s gradient at ``x`` (testing aid)."""
    x = np.asarray(x, dtype=np.float64)
    t = Tensor(x.copy(), requires_grad=True)
    out = fn(t)
    out.sum().backward()
    analytic = t.grad.copy()
    numeric = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(Tensor(x.copy())).data.sum()
        flat[i] = orig - eps
        down = fn(Tensor(x.copy())).data.sum()
        flat[i] = orig
        numeric.reshape(-1)[i] = (up - down) / (2 * eps)
    denom = max(float(np.abs(analytic).max()), float(np.abs(numeric).max()), 1.0)
    return bool(np.abs(analytic - numeric).max() / denom < tol)
