"""Array packing of trajectories and results for worker IPC.

Chunks cross the process boundary constantly, so instead of pickling deep
lists of frozen dataclass points, trajectories and matched trajectories are
flattened to a handful of NumPy arrays (which pickle as raw buffers).  All
fields are carried as float64/int64 exactly as stored, so a pack/unpack
round trip is bitwise lossless.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, TypeVar

import numpy as np

from ..data.trajectory import (
    GPSPoint,
    MapMatchedPoint,
    MatchedTrajectory,
    Trajectory,
)

#: Packed trajectories: (per-trajectory lengths, (N, 5) x/y/t/lat/lng rows).
PackedTrajectories = Tuple[np.ndarray, np.ndarray]
#: Packed matched trajectories: (lengths, edge ids, ratios, timestamps).
PackedMatched = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


_T = TypeVar("_T")


def _split(items: List[_T], lengths: np.ndarray) -> List[List[_T]]:
    """Consecutive slices of ``items`` with the given lengths."""
    ends = np.cumsum(lengths).tolist()
    return [items[start:end] for start, end in zip([0] + ends, ends)]


def pack_trajectories(trajectories: Sequence[Trajectory]) -> PackedTrajectories:
    lengths = np.array([len(t) for t in trajectories], dtype=np.int64)
    rows = [(p.x, p.y, p.t, p.lat, p.lng) for t in trajectories for p in t]
    data = np.array(rows, dtype=np.float64).reshape(-1, 5)
    return lengths, data


def unpack_trajectories(packed: PackedTrajectories) -> List[Trajectory]:
    lengths, data = packed
    points = list(map(GPSPoint, *data.T.tolist()))
    return list(map(Trajectory, _split(points, lengths)))


def pack_matched(matched: Sequence[MatchedTrajectory]) -> PackedMatched:
    lengths = np.array([len(m) for m in matched], dtype=np.int64)
    points = [p for m in matched for p in m]
    edges = np.array([p.edge_id for p in points], dtype=np.int64)
    ratios = np.array([p.ratio for p in points], dtype=np.float64)
    times = np.array([p.t for p in points], dtype=np.float64)
    return lengths, edges, ratios, times


def unpack_matched(packed: PackedMatched) -> List[MatchedTrajectory]:
    lengths, edges, ratios, times = packed
    points = list(
        map(MapMatchedPoint, edges.tolist(), ratios.tolist(), times.tolist())
    )
    return list(map(MatchedTrajectory, _split(points, lengths)))
