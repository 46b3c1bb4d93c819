"""Feature encoding for MMA (Section IV-B).

Per trajectory, MMA consumes:

* ``point_features`` — min-max normalised (lat, lng, t) per GPS point, here
  realised as normalised planar (x, y, t) in the network frame (the paper's
  normalisation makes the two equivalent up to an affine map),
* ``candidate_ids`` — the top-``k_c`` nearest segment ids per point,
* ``candidate_directions`` — the four cosine-similarity features of Fig. 3
  per candidate: segment vs (entrance→point), (point→exit),
  (previous→point), (point→next) — plus, as a scale adaptation, the
  normalised perpendicular distance of the point to the candidate.  The
  paper's feature set (id embedding + 4 cosines) relies on millions of
  trajectories to teach the id embeddings where each segment *is*; at repo
  scale the distance feature supplies that geometry directly (recorded as a
  deviation in EXPERIMENTS.md; disable with ``use_distance_feature=False``
  for the faithful variant).

Encoding is fully vectorised: :meth:`MMAFeatureEncoder.encode_batch` builds
the ``(N, k_c, F)`` feature tensor for *all* points of *all* trajectories in
one NumPy pass over a single bulk k-NN query (no per-candidate Python loop).
One trajectory is a batch of one; the parity tests compare the kernel with a
scalar per-candidate loop kept in ``tests/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ...config import MMAConfig
from ...data.trajectory import Trajectory
from ...network.road_network import RoadNetwork
from ...telemetry import span
from .candidates import candidate_sets_batch


@dataclass
class EncodedTrajectory:
    """Dense arrays feeding the MMA model for one trajectory."""

    point_features: np.ndarray  # (l, 3)
    candidate_ids: np.ndarray  # (l, k_c) int
    candidate_directions: np.ndarray  # (l, k_c, 4)
    candidate_distances: np.ndarray  # (l, k_c) metres

    @property
    def length(self) -> int:
        return self.point_features.shape[0]


@dataclass
class EncodedBatch:
    """A stack of same-length encoded trajectories (leading batch axis).

    Batches are built by *same-length bucketing*, never padding: padded
    reductions regroup floating-point sums and break the bit-exact parity
    between a trajectory scored alone and scored in a bucket.
    """

    point_features: np.ndarray  # (b, l, 3)
    candidate_ids: np.ndarray  # (b, l, k_c) int
    candidate_directions: np.ndarray  # (b, l, k_c, F)
    candidate_distances: np.ndarray  # (b, l, k_c)


def stack_encoded(encoded: Sequence[EncodedTrajectory]) -> EncodedBatch:
    """Stack same-length encodings along a new leading batch axis."""
    lengths = {e.length for e in encoded}
    if len(lengths) != 1:
        raise ValueError(
            f"cannot stack encodings of mixed lengths {sorted(lengths)}; "
            "bucket trajectories by length first"
        )
    return EncodedBatch(
        point_features=np.stack([e.point_features for e in encoded]),
        candidate_ids=np.stack([e.candidate_ids for e in encoded]),
        candidate_directions=np.stack(
            [e.candidate_directions for e in encoded]
        ),
        candidate_distances=np.stack(
            [e.candidate_distances for e in encoded]
        ),
    )


#: Normalisation scale (metres) for the perpendicular-distance feature.
DISTANCE_SCALE_M = 20.0


def _cosine_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorised :func:`repro.geometry.points.cosine_similarity` over the
    trailing (x, y) axis, with the same zero-vector convention."""
    nu = np.hypot(u[..., 0], u[..., 1])
    nv = np.hypot(v[..., 0], v[..., 1])
    dot = u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
    valid = (nu >= 1e-12) & (nv >= 1e-12)
    denom = np.where(valid, nu * nv, 1.0)
    return np.where(valid, dot / denom, 0.0)


class MMAFeatureEncoder:
    """Encodes trajectories into :class:`EncodedTrajectory` arrays."""

    def __init__(
        self,
        network: RoadNetwork,
        k_c: int = MMAConfig.k_c,
        use_distance_feature: bool = MMAConfig.use_distance_feature,
    ) -> None:
        self.network = network
        self.k_c = k_c
        self.use_distance_feature = use_distance_feature
        self._bbox = network.bounding_box()

    @property
    def n_geometric_features(self) -> int:
        """Per-candidate geometric feature count (4 cosines [+ distance])."""
        return 5 if self.use_distance_feature else 4

    def normalise_points(self, trajectory: Trajectory) -> np.ndarray:
        """Min-max normalised (x, y, t) rows."""
        xmin, ymin, xmax, ymax = self._bbox
        t0 = trajectory[0].t
        horizon = max(trajectory[-1].t - t0, 1.0)
        rows = [
            [
                (p.x - xmin) / max(xmax - xmin, 1.0),
                (p.y - ymin) / max(ymax - ymin, 1.0),
                (p.t - t0) / horizon,
            ]
            for p in trajectory
        ]
        return np.asarray(rows)

    def encode_batch(
        self, trajectories: Sequence[Trajectory]
    ) -> List[EncodedTrajectory]:
        """Encode many trajectories in one vectorised pass.

        All candidate features come out of a single bulk k-NN query plus a
        handful of array operations over the flattened ``(N, k_c)`` point ×
        candidate grid, so cost per point is a few vector ops instead of
        ``k_c`` Python-level geometry calls.

        Telemetry: the whole call is a ``features`` span; the bulk k-NN
        inside contributes a nested ``candidates`` span, so stage reports
        separate geometry work from candidate retrieval.
        """
        with span("features"):
            return self._encode_batch(trajectories)

    def _encode_batch(
        self, trajectories: Sequence[Trajectory]
    ) -> List[EncodedTrajectory]:
        trajectories = list(trajectories)
        if not trajectories:
            return []
        sets = candidate_sets_batch(self.network, trajectories, self.k_c)
        lengths = [len(t) for t in trajectories]
        total = sum(lengths)

        xy = np.empty((total, 2))
        incoming = np.zeros((total, 2))  # prev→point, zero at boundaries
        outgoing = np.zeros((total, 2))  # point→next, zero at boundaries
        offset = 0
        for trajectory, n in zip(trajectories, lengths):
            block = np.array([[p.x, p.y] for p in trajectory]).reshape(n, 2)
            xy[offset : offset + n] = block
            if n > 1:
                steps = block[1:] - block[:-1]
                incoming[offset + 1 : offset + n] = steps
                outgoing[offset : offset + n - 1] = steps
            offset += n

        flat_sets = [hits for per_traj in sets for hits in per_traj]
        ids = np.array(
            [[e for e, _ in hits] for hits in flat_sets], dtype=np.int64
        ).reshape(total, self.k_c)
        dists = np.array(
            [[d for _, d in hits] for hits in flat_sets]
        ).reshape(total, self.k_c)

        entrance, exit_ = self.network.segment_endpoints(ids)  # (N, k, 2)
        seg_vec = exit_ - entrance
        to_point = xy[:, None, :] - entrance
        to_exit = exit_ - xy[:, None, :]
        dirs = np.empty((total, self.k_c, self.n_geometric_features))
        dirs[..., 0] = _cosine_rows(seg_vec, to_point)
        dirs[..., 1] = _cosine_rows(seg_vec, to_exit)
        dirs[..., 2] = _cosine_rows(seg_vec, incoming[:, None, :])
        dirs[..., 3] = _cosine_rows(seg_vec, outgoing[:, None, :])
        if self.use_distance_feature:
            dirs[..., 4] = dists / DISTANCE_SCALE_M

        out: List[EncodedTrajectory] = []
        offset = 0
        for trajectory, n in zip(trajectories, lengths):
            out.append(
                EncodedTrajectory(
                    point_features=self.normalise_points(trajectory),
                    candidate_ids=ids[offset : offset + n].copy(),
                    candidate_directions=dirs[offset : offset + n].copy(),
                    candidate_distances=dists[offset : offset + n].copy(),
                )
            )
            offset += n
        return out

    def labels(
        self, encoded: EncodedTrajectory, gt_segments: Sequence[int]
    ) -> np.ndarray:
        """Per-candidate 0/1 class labels (Section IV-A).

        At most one candidate per point is labelled 1; all zeros when the
        ground truth fell outside the candidate set (rare at k_c = 10).
        """
        labels = np.zeros_like(encoded.candidate_ids, dtype=np.float64)
        for i, gt in enumerate(gt_segments):
            matches = np.nonzero(encoded.candidate_ids[i] == gt)[0]
            if len(matches):
                labels[i, matches[0]] = 1.0
        return labels
