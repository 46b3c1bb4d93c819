"""MMA map matcher: Algorithm 1 end to end.

Lines 1-9 map every GPS point to a segment with the :class:`MMAModel`
classifier; lines 10-13 stitch consecutive segments into the route with the
DA-based planner.  Training minimises the binary cross-entropy of Eq. 10
with Adam (lr 1e-3, as in the paper's setup).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ...config import MMAConfig
from ...data.trajectory import Trajectory
from ...network.node2vec import Node2VecConfig, train_node2vec
from ...network.road_network import RoadNetwork
from ...network.routing import DARoutePlanner
from ...nn import Adam, bce_with_logits
from ...utils.rng import SeedLike, make_rng
from ..base import MapMatcher
from ...nn.tensor import no_grad
from .features import MMAFeatureEncoder, stack_encoded
from .model import MMAModel

#: Most GPS points one inference forward scores.  The forward's transient
#: arrays grow with the bucket, so a large same-length bucket is cut into
#: calls of at most this many points.
MAX_POINTS_PER_FORWARD = 48


def _length_buckets(lengths: Sequence[int]) -> List[List[int]]:
    """Indices grouped by trajectory length, preserving dataset order within
    each group (same-length bucketing keeps batched runs bit-identical)."""
    buckets: Dict[int, List[int]] = {}
    for i, length in enumerate(lengths):
        buckets.setdefault(length, []).append(i)
    return list(buckets.values())


class MMAMatcher(MapMatcher):
    """The paper's map-matching method."""

    name = "MMA"
    requires_training = True

    def __init__(
        self,
        network: RoadNetwork,
        config: MMAConfig = MMAConfig(),
        planner: Optional[DARoutePlanner] = None,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(network, planner)
        #: The validated hyperparameter record of this instance; the
        #: parallel engine rebuilds matchers from it (see
        #: :meth:`rebuild_config`).
        self.config = config
        rng = make_rng(seed)
        self.encoder = MMAFeatureEncoder(
            network,
            k_c=config.k_c,
            use_distance_feature=config.use_distance_feature,
        )
        pretrained = None
        if config.use_node2vec:
            node2vec = config.node2vec or Node2VecConfig(dimensions=config.d0)
            pretrained = train_node2vec(network, node2vec, seed=rng)
        self.model = MMAModel(
            network.n_segments,
            d0=config.d0,
            d2=config.d2,
            ffn_hidden=config.ffn_hidden,
            use_context=config.use_context,
            use_directional=config.use_directional,
            n_geometric_features=self.encoder.n_geometric_features,
            pretrained_segment_embeddings=pretrained,
            seed=rng,
        )
        self.optimizer = Adam(self.model.parameters(), lr=config.lr)

    def rebuild_config(self) -> MMAConfig:
        """Config that reconstructs this matcher's *architecture* exactly
        (for weight transplantation, e.g. into engine workers).

        Differs from :attr:`config` in two ways: Node2Vec pretraining is
        disabled (the trained embedding arrives via ``load_state_dict``
        instead of being re-learned), and ``d0`` is pinned to the actual
        embedding width, which pretraining may have overridden.
        """
        from dataclasses import replace

        return replace(
            self.config,
            use_node2vec=False,
            node2vec=None,
            d0=self.model.segment_embedding.dim,
        )

    # ---------------------------------------------------------------- training

    def fit_epoch(self, dataset) -> float:
        """One epoch of Eq. 10 over the training split; returns mean loss.

        Per-sample SGD in dataset order: each trajectory is encoded and
        scored as a batch of one, then takes one Adam step.
        """
        self.model.train()
        total, count = 0.0, 0
        for sample in dataset.train:
            (encoded,) = self.encoder.encode_batch([sample.sparse])
            labels = self.encoder.labels(encoded, sample.gt_segments)
            logits = self.model(stack_encoded([encoded]))
            loss = bce_with_logits(logits, labels[None])
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.step()
            total += loss.item()
            count += 1
        return total / max(count, 1)

    def fit(self, dataset, epochs: int = 5) -> "MMAMatcher":
        for _ in range(epochs):
            self.fit_epoch(dataset)
        return self

    # --------------------------------------------------------------- matching

    def match_points(self, trajectory: Trajectory) -> List[int]:
        return self.match_points_many([trajectory])[0]

    def match_points_many(
        self, trajectories: Sequence[Trajectory], batch_size: int = 32
    ) -> List[List[int]]:
        """Algorithm 1 lines 1-9 for many trajectories: one bulk feature
        encoding, then one model forward per same-length chunk of at most
        ``batch_size`` trajectories and :data:`MAX_POINTS_PER_FORWARD`
        points (a trajectory longer than that is a chunk of its own).

        A trajectory's matches do not depend on its chunk: batching only
        removes per-sample overhead (see :meth:`MMAModel.forward`).
        """
        self.model.eval()
        trajectories = list(trajectories)
        encoded = self.encoder.encode_batch(trajectories)
        results: List[List[int]] = [[] for _ in encoded]
        with no_grad():
            for indices in _length_buckets([e.length for e in encoded]):
                points = max(encoded[indices[0]].length, 1)
                rows = max(min(batch_size, MAX_POINTS_PER_FORWARD // points), 1)
                for start in range(0, len(indices), rows):
                    chunk = indices[start : start + rows]
                    batch = stack_encoded([encoded[i] for i in chunk])
                    predictions = self.model.predict_segments_batch(batch)
                    for i, row in zip(chunk, predictions):
                        results[i] = [int(e) for e in row]
        return results
