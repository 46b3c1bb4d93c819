"""MMA map matcher: Algorithm 1 end to end.

Lines 1-9 map every GPS point to a segment with the :class:`MMAModel`
classifier; lines 10-13 stitch consecutive segments into the route with the
DA-based planner.  Training minimises the binary cross-entropy of Eq. 10
with Adam (lr 1e-3, as in the paper's setup).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ...config import MMAConfig
from ...data.trajectory import Trajectory
from ...network.node2vec import Node2VecConfig, train_node2vec
from ...network.road_network import RoadNetwork
from ...network.routing import DARoutePlanner
from ...nn import Adam, bce_with_logits
from ...utils.rng import SeedLike, make_rng
from ..base import MapMatcher
from ...nn.tensor import no_grad
from .candidates import DEFAULT_KC
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
        planner: Optional[DARoutePlanner] = None,
        k_c: int = DEFAULT_KC,
        d0: int = 64,
        d2: int = 64,
        ffn_hidden: int = 512,
        lr: float = 1e-3,
        use_node2vec: bool = True,
        use_context: bool = True,
        use_directional: bool = True,
        use_distance_feature: bool = True,
        node2vec_config: Optional[Node2VecConfig] = None,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(network, planner)
        #: The validated hyperparameter record equivalent to this instance;
        #: the Pipeline facade and the parallel engine rebuild matchers
        #: from it (see :meth:`from_config`).
        self.config = MMAConfig(
            k_c=k_c,
            d0=d0,
            d2=d2,
            ffn_hidden=ffn_hidden,
            lr=lr,
            use_node2vec=use_node2vec,
            use_context=use_context,
            use_directional=use_directional,
            use_distance_feature=use_distance_feature,
            node2vec=node2vec_config,
        )
        rng = make_rng(seed)
        self.encoder = MMAFeatureEncoder(
            network, k_c=k_c, use_distance_feature=use_distance_feature
        )
        pretrained = None
        if use_node2vec:
            config = node2vec_config or Node2VecConfig(dimensions=d0)
            pretrained = train_node2vec(network, config, seed=rng)
        self.model = MMAModel(
            network.n_segments,
            d0=d0,
            d2=d2,
            ffn_hidden=ffn_hidden,
            n_geometric_features=self.encoder.n_geometric_features,
            pretrained_segment_embeddings=pretrained,
            use_context=use_context,
            use_directional=use_directional,
            seed=rng,
        )
        self.optimizer = Adam(self.model.parameters(), lr=lr)

    @classmethod
    def from_config(
        cls,
        network: RoadNetwork,
        config: MMAConfig,
        planner: Optional[DARoutePlanner] = None,
        seed: SeedLike = None,
    ) -> "MMAMatcher":
        """Build a matcher from its :class:`~repro.config.MMAConfig`."""
        return cls(
            network,
            planner=planner,
            k_c=config.k_c,
            d0=config.d0,
            d2=config.d2,
            ffn_hidden=config.ffn_hidden,
            lr=config.lr,
            use_node2vec=config.use_node2vec,
            use_context=config.use_context,
            use_directional=config.use_directional,
            use_distance_feature=config.use_distance_feature,
            node2vec_config=config.node2vec,
            seed=seed,
        )

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

    def fit_epoch(self, dataset, batch_size: int = 1) -> float:
        """One epoch of Eq. 10 over the training split; returns mean loss.

        With ``batch_size=1`` (default) this is classic per-sample SGD, one
        Adam step per trajectory.  With ``batch_size>1`` same-length buckets
        are stacked and each chunk takes a single Adam step over the batched
        forward pass (mini-batch SGD): fewer, larger steps whose per-chunk
        loss is the mean over the chunk's samples.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.model.train()
        if batch_size == 1:
            total, count = 0.0, 0
            for sample in dataset.train:
                encoded = self.encoder.encode(sample.sparse)
                labels = self.encoder.labels(encoded, sample.gt_segments)
                logits = self.model(encoded)
                loss = bce_with_logits(logits, labels)
                self.optimizer.zero_grad()
                loss.backward()
                self.optimizer.step()
                total += loss.item()
                count += 1
            return total / max(count, 1)

        samples = list(dataset.train)
        encoded = self.encoder.encode_batch([s.sparse for s in samples])
        labels = [
            self.encoder.labels(e, s.gt_segments)
            for e, s in zip(encoded, samples)
        ]
        total, count = 0.0, 0
        for indices in _length_buckets([e.length for e in encoded]):
            for start in range(0, len(indices), batch_size):
                chunk = indices[start : start + batch_size]
                batch = stack_encoded([encoded[i] for i in chunk])
                y = np.stack([labels[i] for i in chunk])
                logits = self.model.forward_batch(batch)
                loss = bce_with_logits(logits, y)
                self.optimizer.zero_grad()
                loss.backward()
                self.optimizer.step()
                total += loss.item() * len(chunk)
                count += len(chunk)
        return total / max(count, 1)

    def fit(self, dataset, epochs: int = 5, batch_size: int = 1) -> "MMAMatcher":
        for _ in range(epochs):
            self.fit_epoch(dataset, batch_size=batch_size)
        return self

    def validation_accuracy(self, dataset) -> float:
        """Fraction of validation GPS points matched to their true segment."""
        return self.validation_point_accuracy(dataset)

    # --------------------------------------------------------------- matching

    def match_points(self, trajectory: Trajectory) -> List[int]:
        self.model.eval()
        encoded = self.encoder.encode(trajectory)
        with no_grad():
            return [int(e) for e in self.model.predict_segments(encoded)]

    def match_points_many(
        self, trajectories: Sequence[Trajectory], batch_size: int = 32
    ) -> List[List[int]]:
        """Batched form of :meth:`match_points`: one bulk feature encoding,
        then one model forward per same-length chunk of at most
        ``batch_size`` trajectories and :data:`MAX_POINTS_PER_FORWARD`
        points (a trajectory longer than that is a chunk of its own).

        Matches are bit-identical to per-trajectory :meth:`match_points`
        calls — batching only removes per-sample overhead (see
        :meth:`MMAModel.forward_batch`).
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
