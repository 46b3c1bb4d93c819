"""The MMA neural model (Fig. 3, Eq. 1-9).

Per GPS point ``p_i`` with candidate set ``C_{p_i}``:

* **Candidate segment embedding** (bottom of Fig. 3): segment ids pass
  through an FC layer initialised with Node2Vec embeddings (Eq. 1); the four
  directional cosine features are concatenated and a two-layer MLP produces
  the candidate embedding ``c_j`` (Eq. 2).
* **Point embedding** (top of Fig. 3): normalised (x, y, t) is projected by
  an FC layer and a 2-layer, 4-head transformer captures the sequential
  patterns of T (Eq. 3); an attention MLP scores each candidate against the
  point (Eq. 7) and the attention-weighted candidate context is added to the
  point representation (Eq. 8).
* **Score**: ``P(c_j | p_i) = sigmoid(c_j · p_i)`` (Eq. 9), trained with
  binary cross-entropy over the candidate labels (Eq. 10).

Ablation switches mirror the paper's Table IV variants: ``use_context``
(TRMMA-C removes the candidate context from the point embedding) and
``use_directional`` (TRMMA-DI removes the directional features).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...nn import (
    MLP,
    Embedding,
    Linear,
    Module,
    Tensor,
    TransformerEncoder,
    concat,
    softmax,
)
from ...telemetry import span
from ...utils.rng import SeedLike, make_rng
from .features import EncodedBatch


class MMAModel(Module):
    """Classification of GPS points over their candidate segment sets."""

    def __init__(
        self,
        n_segments: int,
        *,
        d0: int,
        d2: int,
        ffn_hidden: int,
        use_context: bool,
        use_directional: bool,
        d1: int = 128,
        d3: int = 256,
        n_transformer_layers: int = 2,
        n_heads: int = 4,
        n_geometric_features: int = 5,
        pretrained_segment_embeddings: Optional[np.ndarray] = None,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rng = make_rng(seed)
        self.use_context = use_context
        self.use_directional = use_directional
        self.n_geometric_features = n_geometric_features

        # Eq. 1: FC over one-hot ids == embedding table, Node2Vec-initialised.
        self.segment_embedding = (
            Embedding.from_pretrained(pretrained_segment_embeddings)
            if pretrained_segment_embeddings is not None
            else Embedding(n_segments, d0, seed=rng)
        )
        d0 = self.segment_embedding.dim
        # Eq. 2: candidate MLP over [e_cj | geometric features].
        self.candidate_mlp = MLP(d0 + n_geometric_features, d1, d2, seed=rng)
        # Point pipeline: FC then transformer (Eq. 3).
        self.point_fc = Linear(3, d2, seed=rng)
        self.transformer = TransformerEncoder(
            d2,
            n_layers=n_transformer_layers,
            n_heads=n_heads,
            ffn_hidden=ffn_hidden,
            seed=rng,
        )
        # Eq. 7: attention MLP over [z_i | c_j].
        self.attention_mlp = MLP(2 * d2, d3, 1, seed=rng)
        self.d2 = d2

    # A trajectory is a batch of one.  Larger batches stack a same-length
    # bucket along the leading axis and run every layer once over the stack.
    # Each matmul then sees per-slice operands of exactly the shapes a batch
    # of one uses (batched N-D matmul evaluates per slice), and all
    # reductions keep their per-trajectory extents, so the logits of a row
    # are bit-identical whatever the bucket holds.

    def candidate_embeddings(self, batch: EncodedBatch) -> Tensor:
        """Candidate embeddings ``c_j`` of shape (b, l, k_c, d2) (Eq. 1-2)."""
        b, l, k = batch.candidate_ids.shape
        seg = self.segment_embedding(batch.candidate_ids.reshape(b, l * k))
        directions = batch.candidate_directions.reshape(
            b, l * k, self.n_geometric_features
        )
        if not self.use_directional:
            # TRMMA-DI ablation: drop the four cosine features (keep the
            # distance column — it is a scale adaptation, not paper design).
            directions = directions.copy()
            directions[:, :, :4] = 0.0
        z = concat([seg, Tensor(directions)], axis=-1)
        c = self.candidate_mlp(z)  # (b, l*k, d2)
        return c.reshape(b, l, k, self.d2)

    def point_embeddings(self, batch: EncodedBatch, candidates: Tensor) -> Tensor:
        """Point embeddings ``p_i`` of shape (b, l, d2) (Eq. 3, 7, 8)."""
        b, l, k = batch.candidate_ids.shape
        z1 = self.point_fc(Tensor(batch.point_features))  # (b, l, d2)
        z2 = self.transformer(z1)  # (b, l, d2)
        if not self.use_context:
            return z2
        # Attention of each candidate to its point (Eq. 7).
        z2_tiled = z2.reshape(b, l, 1, self.d2) * Tensor(np.ones((1, 1, k, 1)))
        pair = concat([z2_tiled, candidates], axis=-1)  # (b, l, k, 2*d2)
        scores = self.attention_mlp(pair.reshape(b, l * k, 2 * self.d2))
        alpha = softmax(scores.reshape(b, l, k, 1), axis=2)
        context = (alpha * candidates).sum(axis=2)  # (b, l, d2)
        return z2 + context  # Eq. 8

    def forward(self, batch: EncodedBatch) -> Tensor:
        """Per-candidate logits of shape (b, l, k_c); sigmoid gives Eq. 9.

        Telemetry: recorded as a ``model`` span per call."""
        with span("model"):
            candidates = self.candidate_embeddings(batch)
            points = self.point_embeddings(batch, candidates)
            b, l, k = batch.candidate_ids.shape
            points_tiled = points.reshape(b, l, 1, self.d2)
            return (candidates * points_tiled).sum(axis=-1)  # (b, l, k)

    def predict_segments_batch(self, batch: EncodedBatch) -> np.ndarray:
        """Matched segment ids of shape (b, l): argmax_{c in C} P(c | p)
        (Algorithm 1, line 9)."""
        logits = self.forward(batch).data
        best = logits.argmax(axis=2)
        return np.take_along_axis(batch.candidate_ids, best[..., None], axis=2)[
            ..., 0
        ]
