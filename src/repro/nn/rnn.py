"""Gated recurrent units (Cho et al., 2014).

TRMMA's decoder (Fig. 4) and several baselines (MTrajRec, DeepMM, DHTR) use
GRUs.  :class:`GRUCell` is one step; :class:`GRU` unrolls a sequence;
:class:`BiGRU` concatenates forward/backward passes (DHTR's BiLSTM stand-in).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..utils.rng import SeedLike, make_rng
from .layers import Linear
from .module import Module
from .tensor import Tensor, concat, stack


class GRUCell(Module):
    """One GRU step: ``h' = (1 - z) * h + z * h_tilde``.

    The update (z) and reset (r) gates share one fused projection — half
    the matmuls of the textbook formulation, identical mathematics.  Inputs
    are ``(..., dim)``: a ``(b, 1, dim)`` stack of rows runs each row as its
    own ``(1, dim)`` matmul slice, bit-identical to ``b`` separate calls.
    """

    def __init__(self, input_dim: int, hidden_dim: int, seed: SeedLike = None) -> None:
        super().__init__()
        rng = make_rng(seed)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_zr = Linear(input_dim + hidden_dim, 2 * hidden_dim, seed=rng)
        self.w_h = Linear(input_dim + hidden_dim, hidden_dim, seed=rng)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        xh = concat([x, h], axis=-1)
        gates = self.w_zr(xh).sigmoid()
        z = gates[..., : self.hidden_dim]
        r = gates[..., self.hidden_dim :]
        candidate = self.w_h(concat([x, r * h], axis=-1)).tanh()
        return (1.0 - z) * h + z * candidate


class GRU(Module):
    """Unidirectional GRU over a ``(seq_len, input_dim)`` sequence."""

    def __init__(self, input_dim: int, hidden_dim: int, seed: SeedLike = None) -> None:
        super().__init__()
        self.cell = GRUCell(input_dim, hidden_dim, seed=seed)
        self.hidden_dim = hidden_dim

    def forward(
        self, x: Tensor, h0: Optional[Tensor] = None
    ) -> Tuple[Tensor, Tensor]:
        """Returns (outputs ``(seq_len, hidden)``, final hidden ``(hidden,)``)."""
        seq_len = x.shape[0]
        h = h0 if h0 is not None else Tensor(np.zeros((1, self.hidden_dim)))
        if h.ndim == 1:
            h = h.reshape(1, self.hidden_dim)
        outputs: List[Tensor] = []
        for t in range(seq_len):
            step = x[t].reshape(1, x.shape[1])
            h = self.cell(step, h)
            outputs.append(h.reshape(self.hidden_dim))
        return stack(outputs, axis=0), outputs[-1] if outputs else h.reshape(self.hidden_dim)


class BiGRU(Module):
    """Bidirectional GRU; output is the concatenation of both directions."""

    def __init__(self, input_dim: int, hidden_dim: int, seed: SeedLike = None) -> None:
        super().__init__()
        rng = make_rng(seed)
        self.forward_rnn = GRU(input_dim, hidden_dim, seed=rng)
        self.backward_rnn = GRU(input_dim, hidden_dim, seed=rng)
        self.hidden_dim = hidden_dim

    def forward(self, x: Tensor) -> Tensor:
        """Returns ``(seq_len, 2 * hidden_dim)`` outputs."""
        seq_len = x.shape[0]
        fwd, _ = self.forward_rnn(x)
        reversed_x = x[np.arange(seq_len - 1, -1, -1)]
        bwd, _ = self.backward_rnn(reversed_x)
        bwd = bwd[np.arange(seq_len - 1, -1, -1)]
        return concat([fwd, bwd], axis=-1)
