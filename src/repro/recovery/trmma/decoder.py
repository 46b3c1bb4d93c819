"""TRMMA multitask decoder (Eq. 15-18, Fig. 4 right).

A GRU tracks the decoding state ``h_j``.  For each point to emit:

* **segment classification** (Eq. 15-16): a two-layer MLP scores every route
  segment embedding ``H[k]`` against ``h_j``; sigmoid gives the binary
  probability ``P(e_k | a_j)``.  Prediction restricts the argmax to the
  sub-route from the previously emitted segment onward (Eq. 17).
* **ratio regression** (Eq. 18): softmax over the same scores produces an
  attention readout ``psi_j H``; an MLP with sigmoid head outputs the
  position ratio.

The emitted (segment embedding, ratio, time) triple feeds the GRU to
produce ``h_{j+1}``.

Scale adaptation (documented in EXPERIMENTS.md): both heads additionally
receive a *positional prior* — the signed offset of each route segment from
the missing point's constant-speed interpolated position, and the
interpolated local ratio.  The paper's decoder learns this travel-progress
geometry from millions of trajectories; at repo scale the prior supplies it
directly while the network learns the residual (dwell at signals, speed
variation).  Pass ``use_prior=False`` for the strictly faithful variant.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...nn import MLP, GRUCell, Module, Tensor, concat, softmax
from ...utils.rng import SeedLike, make_rng


class RecoveryDecoder(Module):
    """Sequential decoder over the route segments of ``H``.

    Every method takes stacked rows: hidden states are (b, 1, d_h), so
    the GRU and the ratio head run each row as its own (1, K) matmul
    slice and stay bit-identical to a batch of one.
    """

    #: Bound on the learned correction to the prior ratio (keeps an
    #: undertrained head from doing worse than the prior it refines).
    MAX_RATIO_CORRECTION = 0.15

    def __init__(
        self, d_h: int = 64, use_prior: bool = True, seed: SeedLike = None
    ) -> None:
        super().__init__()
        rng = make_rng(seed)
        self.d_h = d_h
        self.use_prior = use_prior
        # Prior basis per segment: signed offset, absolute offset, and a
        # Gaussian bump peaking at the expected position — the bump makes
        # "prefer the segment nearest the expected travel distance"
        # linearly learnable.
        self.n_prior = 3 if use_prior else 0
        extra = 1 if use_prior else 0
        # GRU input: the emitted point's route-segment embedding, its ratio,
        # and its normalised timestamp (time lets the state model dwell).
        self.gru = GRUCell(d_h + 2, d_h, seed=rng)
        # Eq. 15: w_kj = MLP([H[k] | h_j] (+ positional prior basis)).
        self.classifier = MLP(2 * d_h + self.n_prior, d_h, 1, seed=rng)
        # Eq. 18: ratio = sigmoid(MLP([h_j | psi_j H] (+ prior ratio))).
        self.ratio_head = MLP(2 * d_h + extra, d_h, 1, seed=rng)

    def initial_state(self, fused: Tensor) -> Tensor:
        """``h_0`` of shape (b, 1, d_h): mean pooling over the rows of each
        ``H`` in a (b, l_R, d_h) stack (Algorithm 2 line 6)."""
        return fused.mean(axis=-2, keepdims=True)

    def scores(
        self,
        hidden: Tensor,
        fused: Tensor,
        segment_priors: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Segment scores ``w_{k,j}`` of shape (b, l_R) (Eq. 15).

        ``hidden`` is (b, 1, d_h), ``fused`` a (b, l_R, d_h) stack of equal
        route lengths and ``segment_priors`` (b, l_R, n_prior).  Each row
        runs the classifier as its own (l_R, K) matmul slice, so a row's
        scores do not depend on the other rows in the stack.
        """
        b, l_route = fused.shape[0], fused.shape[1]
        tiled = hidden * Tensor(np.ones((1, l_route, 1)))
        parts = [fused, tiled]
        if self.use_prior:
            prior = (
                segment_priors
                if segment_priors is not None
                else np.zeros((b, l_route, self.n_prior))
            )
            parts.append(Tensor(prior))
        pair = concat(parts, axis=-1)
        return self.classifier(pair).reshape(b, l_route)

    def readout(self, fused: Tensor, scores: Tensor) -> Tensor:
        """Attention readout ``psi_j H`` of shape (b, 1, d_h) (Eq. 18)."""
        b, l_route = scores.shape
        psi = softmax(scores, axis=-1).reshape(b, 1, l_route)
        return psi.matmul(fused)

    def ratio(
        self,
        hidden: Tensor,
        readout: Tensor,
        prior_ratio: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Predicted position ratios of shape (b,) (Eq. 18).

        ``hidden`` and ``readout`` are (b, 1, d_h) stacks of any route
        lengths; ``prior_ratio`` is (b,).  With the positional prior the
        head is *residual*: it predicts a bounded correction ``tanh(.)/2``
        on top of the constant-speed prior ratio, which converges in a
        handful of epochs at repo scale.  The faithful variant
        (``use_prior=False``) is the paper's direct ``sigmoid(MLP(.))``.
        """
        b = hidden.shape[0]
        if not self.use_prior:
            raw = self.ratio_head(concat([hidden, readout], axis=-1))
            return raw.sigmoid().reshape(b)
        prior = Tensor(
            np.zeros((b, 1, 1))
            if prior_ratio is None
            else np.asarray(prior_ratio).reshape(b, 1, 1)
        )
        raw = self.ratio_head(concat([hidden, readout, prior], axis=-1))
        # Not clipped into [0, 1) here: values are clamped at decode time,
        # and training keeps the gradient alive through the pass-through.
        return (raw.tanh() * self.MAX_RATIO_CORRECTION + prior).reshape(b)

    def step(
        self,
        hidden: Tensor,
        fused: Tensor,
        segment_priors: Optional[np.ndarray] = None,
        prior_ratio: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, Tensor]:
        """One decoding step of an equal-``l_R`` stack: (segment scores,
        predicted ratios)."""
        w = self.scores(hidden, fused, segment_priors)
        r = self.ratio(hidden, self.readout(fused, w), prior_ratio)
        return w, r

    def advance(
        self,
        hidden: Tensor,
        emitted: Tensor,
        ratios: np.ndarray,
        t_norms: np.ndarray,
    ) -> Tensor:
        """Next hidden states given the emitted points (Fig. 4's feedback).

        ``emitted`` is the (b, 1, d_h) stack of the emitted segments' rows
        of ``H``; ``ratios`` and ``t_norms`` are (b,).
        """
        b = hidden.shape[0]
        extras = Tensor(np.stack([ratios, t_norms], axis=-1).reshape(b, 1, 2))
        return self.gru(concat([emitted, extras], axis=-1), hidden)
