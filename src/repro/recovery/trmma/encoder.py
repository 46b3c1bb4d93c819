"""DualFormer encoding (Eq. 11-14, Fig. 4 left).

Two transformers run in parallel:

* ``Trans_T`` encodes the sparse trajectory: each observed point carries its
  normalised (x, y, t), the position ratio of its map-matched point, and the
  id embedding of its matched segment (Eq. 11);
* ``Trans_R`` encodes the route: per-segment id embeddings (Eq. 12).

A route-to-trajectory attention (Eq. 13) lets every route segment attend to
the observed points, and the fused representation ``H = R + β T`` (Eq. 14)
has one row per route segment — exactly the candidate pool the decoder
classifies over.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...data.trajectory import MapMatchedPoint, Trajectory
from ...matching.mma.matcher import _length_buckets
from ...network.road_network import RoadNetwork
from ...nn import (
    Embedding,
    Linear,
    Module,
    Tensor,
    TransformerEncoder,
    concat,
    softmax,
)
from ...utils.rng import SeedLike, make_rng


class DualFormerEncoder(Module):
    """Produces fused embeddings ``H`` (one row per route segment)."""

    def __init__(
        self,
        n_segments: int,
        d_h: int = 64,
        n_layers: int = 2,
        n_heads: int = 4,
        ffn_hidden: int = 512,
        use_fusion: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rng = make_rng(seed)
        self.d_h = d_h
        #: TRMMA-DF ablation: without fusion, H is just the route encoding R.
        self.use_fusion = use_fusion
        # Shared segment id embedding (W7 in Eq. 12, also the id embedding
        # inside T0 of Eq. 11).
        self.segment_embedding = Embedding(n_segments, d_h, seed=rng)
        # Eq. 11: T0 = [x, y, t, ratio | segment embedding] -> FC -> Trans_T.
        self.point_fc = Linear(4 + d_h, d_h, seed=rng)
        self.trajectory_transformer = TransformerEncoder(
            d_h, n_layers=n_layers, n_heads=n_heads, ffn_hidden=ffn_hidden, seed=rng
        )
        # Eq. 12: R1 = 1_R W7 + b7 -> Trans_R.
        self.route_bias = Tensor(np.zeros(d_h), requires_grad=True)
        # Learned projection of road attributes (signalised exit, road-class
        # speed factor — e.g. OSM highway=traffic_signals / maxspeed) added
        # into the route embeddings; at paper scale the id embeddings absorb
        # these, at repo scale the explicit attributes make dwell and speed
        # patterns learnable.
        self.attribute_fc = Linear(2, d_h, bias=False, seed=rng)
        self.route_transformer = TransformerEncoder(
            d_h, n_layers=n_layers, n_heads=n_heads, ffn_hidden=ffn_hidden, seed=rng
        )

    def encode_trajectory(
        self, point_features: np.ndarray, point_segments: np.ndarray
    ) -> Tensor:
        """``T`` of shape (..., l, d_h) from per-point features and segment ids."""
        seg = self.segment_embedding(point_segments)
        t0 = concat([Tensor(point_features), seg], axis=-1)
        t1 = self.point_fc(t0)
        return self.trajectory_transformer(t1)

    def encode_route(
        self,
        route_ids: np.ndarray,
        attributes: Optional[np.ndarray] = None,
    ) -> Tensor:
        """``R`` of shape (..., l_R, d_h) from segment ids (+ road attributes).

        ``attributes`` is (..., l_R, 2): [exit signalised, speed factor - 1].
        """
        route_ids = np.asarray(route_ids)
        r1 = self.segment_embedding(route_ids) + self.route_bias
        if attributes is not None:
            attrs = np.asarray(attributes, dtype=np.float64)
            r1 = r1 + self.attribute_fc(Tensor(attrs.reshape(*route_ids.shape, 2)))
        return self.route_transformer(r1)

    def fuse(self, trajectory_repr: Tensor, route_repr: Tensor) -> Tensor:
        """Route-to-trajectory attention fusion (Eq. 13-14)."""
        if not self.use_fusion:
            return route_repr
        scores = route_repr.matmul(trajectory_repr.T)  # (..., l_R, l)
        beta = softmax(scores, axis=-1)
        return route_repr + beta.matmul(trajectory_repr)

    def forward(
        self,
        point_features: Sequence[np.ndarray],
        point_segments: Sequence[np.ndarray],
        route_ids: Sequence[np.ndarray],
        route_attributes: Optional[Sequence[np.ndarray]] = None,
    ) -> List[Tuple[np.ndarray, Tensor]]:
        """The fused ``H`` of a batch of trajectories, one bucket per route
        length: ``(rows, H)`` pairs where ``H`` is (len(rows), l_R, d_h) and
        ``rows`` are the trajectories' positions in the batch.

        Nothing is padded, so every row is bit-identical to a batch of one:
        the trajectory side runs in buckets of equal ``l``, the route side
        in buckets of equal ``l_R``, and the fusion in buckets of equal
        ``(l, l_R)``.
        """
        trajectory_slots: Dict[int, Tuple[Tensor, int]] = {}
        for rows in _length_buckets([len(f) for f in point_features]):
            t_repr = self.encode_trajectory(
                np.stack([point_features[i] for i in rows]),
                np.stack([point_segments[i] for i in rows]),
            )
            for position, i in enumerate(rows):
                trajectory_slots[i] = (t_repr, position)

        buckets: List[Tuple[np.ndarray, Tensor]] = []
        for rows in _length_buckets([len(r) for r in route_ids]):
            r_repr = self.encode_route(
                np.stack([route_ids[i] for i in rows]),
                None
                if route_attributes is None
                else np.stack([route_attributes[i] for i in rows]),
            )
            if not self.use_fusion:
                buckets.append((np.asarray(rows), r_repr))
                continue
            order: List[int] = []
            parts: List[Tensor] = []
            for group in _length_buckets([len(point_features[i]) for i in rows]):
                members = [rows[g] for g in group]
                t_repr = trajectory_slots[members[0]][0]
                positions = np.asarray([trajectory_slots[i][1] for i in members])
                parts.append(self.fuse(t_repr[positions], r_repr[np.asarray(group)]))
                order.extend(members)
            fused = parts[0] if len(parts) == 1 else concat(parts, axis=0)
            buckets.append((np.asarray(order), fused))
        return buckets


def build_point_features(
    network: RoadNetwork,
    trajectory: Trajectory,
    matched: List[MapMatchedPoint],
) -> np.ndarray:
    """Normalised (x, y, t, ratio) rows of Eq. 11's ``T0``."""
    xmin, ymin, xmax, ymax = network.bounding_box()
    t0 = trajectory[0].t
    horizon = max(trajectory[-1].t - t0, 1.0)
    rows = []
    for p, a in zip(trajectory, matched):
        rows.append(
            [
                (p.x - xmin) / max(xmax - xmin, 1.0),
                (p.y - ymin) / max(ymax - ymin, 1.0),
                (p.t - t0) / horizon,
                a.ratio,
            ]
        )
    return np.asarray(rows)


def route_attributes(network: RoadNetwork, route) -> np.ndarray:
    """(l_R, 2) road attributes per route segment: [exit signalised,
    speed factor - 1]."""
    return np.asarray(
        [
            [float(network.exit_signalized(e)), network.speed_factor(e) - 1.0]
            for e in route
        ]
    )
