"""Per-sample MMA oracles: the scalar forms the batch-first code must match.

The library runs every MMA operation batch-first (a single trajectory is a
batch of one).  These helpers keep the original per-trajectory formulations
— per-point k-NN queries, the scalar feature loop, and the 2-D model
forward of Eq. 1-9 — so the parity tests can compare each batched path
against an independent computation.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.data.trajectory import Trajectory
from repro.geometry.segments import directional_features
from repro.matching.mma.features import (
    DISTANCE_SCALE_M,
    EncodedTrajectory,
    MMAFeatureEncoder,
)
from repro.matching.mma.model import MMAModel
from repro.network.road_network import RoadNetwork
from repro.nn.tensor import Tensor, concat, no_grad, softmax


def candidate_sets(
    network: RoadNetwork, trajectory: Trajectory, k_c: int
) -> List[List[Tuple[int, float]]]:
    """Top-``k_c`` nearest segments per GPS point, one k-NN query each,
    padded to width ``k_c`` by repeating the last hit."""
    sets = []
    for p in trajectory:
        hits = network.nearest_segments(p.x, p.y, k=k_c)
        sets.append(hits + [hits[-1]] * (k_c - len(hits)))
    return sets


def encode_reference(
    encoder: MMAFeatureEncoder, trajectory: Trajectory
) -> EncodedTrajectory:
    """The scalar per-candidate encoding loop.

    Candidate selection is bit-identical to ``encode_batch``; the cosine
    features may differ by an ulp (``math.hypot`` vs ``np.hypot``).
    """
    network, k_c = encoder.network, encoder.k_c
    sets = candidate_sets(network, trajectory, k_c)
    length = len(trajectory)
    ids = np.zeros((length, k_c), dtype=np.int64)
    dirs = np.zeros((length, k_c, encoder.n_geometric_features))
    dists = np.zeros((length, k_c))
    for i, hits in enumerate(sets):
        p = trajectory[i]
        prev_xy = trajectory[i - 1].xy if i > 0 else None
        next_xy = trajectory[i + 1].xy if i + 1 < length else None
        for j, (edge_id, distance) in enumerate(hits):
            ids[i, j] = edge_id
            dists[i, j] = distance
            geom = network.geometry(edge_id)
            cos = directional_features(geom, p.xy, prev_xy, next_xy)
            if encoder.use_distance_feature:
                dirs[i, j] = (*cos, distance / DISTANCE_SCALE_M)
            else:
                dirs[i, j] = cos
    return EncodedTrajectory(
        point_features=encoder.normalise_points(trajectory),
        candidate_ids=ids,
        candidate_directions=dirs,
        candidate_distances=dists,
    )


def forward(model: MMAModel, encoded: EncodedTrajectory) -> Tensor:
    """Per-candidate logits (l, k_c) of one trajectory with 2-D layer calls
    (Eq. 1-9)."""
    l, k = encoded.candidate_ids.shape
    d2 = model.d2
    # Candidate embeddings c_j (Eq. 1-2).
    seg = model.segment_embedding(encoded.candidate_ids.reshape(-1))
    directions = encoded.candidate_directions.reshape(
        l * k, model.n_geometric_features
    )
    if not model.use_directional:
        directions = directions.copy()
        directions[:, :4] = 0.0
    z = concat([seg, Tensor(directions)], axis=-1)
    candidates = model.candidate_mlp(z).reshape(l, k, d2)
    # Point embeddings p_i (Eq. 3, 7, 8).
    points = model.transformer(model.point_fc(Tensor(encoded.point_features)))
    if model.use_context:
        tiled = points.reshape(l, 1, d2) * Tensor(np.ones((1, k, 1)))
        pair = concat([tiled, candidates], axis=-1)
        scores = model.attention_mlp(pair.reshape(l * k, 2 * d2))
        alpha = softmax(scores.reshape(l, k, 1), axis=1)
        points = points + (alpha * candidates).sum(axis=1)
    return (candidates * points.reshape(l, 1, d2)).sum(axis=-1)


def match_points(matcher, trajectory: Trajectory) -> List[int]:
    """Algorithm 1 lines 1-9 for one trajectory through :func:`forward`."""
    matcher.model.eval()
    (encoded,) = matcher.encoder.encode_batch([trajectory])
    with no_grad():
        best = forward(matcher.model, encoded).data.argmax(axis=1)
    return [int(e) for e in encoded.candidate_ids[np.arange(len(best)), best]]
