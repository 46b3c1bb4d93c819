"""Trajectory datatypes (Definitions 2-7).

* :class:`GPSPoint` — a timestamped coordinate (Definition 2).  Points carry
  both the WGS84 (lat, lng) a real device reports and the planar (x, y) the
  algorithms consume; the dataset's projection keeps the two consistent.
* :class:`Trajectory` — a sequence of GPS points (Definition 2).
* :class:`MapMatchedPoint` — a point on a segment at a position ratio
  (Definition 5).
* :class:`MatchedTrajectory` — a map-matched ε-sampling trajectory
  (Definition 6).
* :class:`TrajectorySample` — one supervised example: the sparse trajectory,
  its ground-truth route (Definition 4), the ground-truth dense matched
  trajectory (Definition 7), and the true segment/ratio of each sparse point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from ..network.road_network import RoadNetwork


@dataclass(frozen=True)
class GPSPoint:
    """A GPS observation: planar metres (x, y), WGS84 (lat, lng), time (s)."""

    x: float
    y: float
    t: float
    lat: float = 0.0
    lng: float = 0.0

    @classmethod
    def from_latlng(
        cls, network: RoadNetwork, lat: float, lng: float, t: float
    ) -> "GPSPoint":
        x, y = network.latlng_to_xy(lat, lng)
        return cls(x=x, y=y, t=t, lat=lat, lng=lng)

    @classmethod
    def from_xy(
        cls, network: RoadNetwork, x: float, y: float, t: float
    ) -> "GPSPoint":
        lat, lng = network.xy_to_latlng(x, y)
        return cls(x=x, y=y, t=t, lat=lat, lng=lng)

    @property
    def xy(self) -> Tuple[float, float]:
        return (self.x, self.y)


@dataclass
class Trajectory:
    """A sequence of GPS points ordered by time (Definition 2)."""

    points: List[GPSPoint]

    def __post_init__(self) -> None:
        for i, p in enumerate(self.points):
            if not (math.isfinite(p.x) and math.isfinite(p.y) and math.isfinite(p.t)):
                raise ValueError(
                    f"trajectory point {i} is not finite: "
                    f"x={p.x}, y={p.y}, t={p.t}"
                )
        times = [p.t for p in self.points]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("trajectory points must be ordered by time")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[GPSPoint]:
        return iter(self.points)

    def __getitem__(self, index: int) -> GPSPoint:
        return self.points[index]

    @property
    def duration(self) -> float:
        if len(self.points) < 2:
            return 0.0
        return self.points[-1].t - self.points[0].t

    def mean_interval(self) -> float:
        """Average time between consecutive points (the sampling rate ε)."""
        if len(self.points) < 2:
            return 0.0
        return self.duration / (len(self.points) - 1)


@dataclass(frozen=True, slots=True)
class MapMatchedPoint:
    """A point on segment ``edge_id`` at position ratio ``ratio`` (Def. 5)."""

    edge_id: int
    ratio: float
    t: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.ratio < 1.0 + 1e-12:
            raise ValueError(f"position ratio {self.ratio} outside [0, 1)")

    def xy(self, network: RoadNetwork) -> Tuple[float, float]:
        return network.point_on_segment(self.edge_id, min(self.ratio, 1.0))


@dataclass(slots=True)
class MatchedTrajectory:
    """A map-matched ε-sampling trajectory (Definition 6)."""

    points: List[MapMatchedPoint]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[MapMatchedPoint]:
        return iter(self.points)

    def __getitem__(self, index: int) -> MapMatchedPoint:
        return self.points[index]

    def segments(self) -> List[int]:
        """The (possibly repeating) segment sequence of the matched points."""
        return [p.edge_id for p in self.points]

    def validates_epsilon(self, epsilon: float, tol: float = 1e-6) -> bool:
        """True iff consecutive intervals all equal ``epsilon`` (Def. 6)."""
        return all(
            abs((b.t - a.t) - epsilon) <= tol
            for a, b in zip(self.points, self.points[1:])
        )


@dataclass
class TrajectorySample:
    """One supervised example tying a sparse trajectory to its ground truth.

    Attributes
    ----------
    sparse:
        The low-sampling-rate input trajectory ``T``.
    route:
        Ground-truth route ``R`` of the trip (connected segment ids).
    dense:
        Ground-truth map-matched ε-sampling trajectory ``T_eps`` between the
        first and last observed timestamps.
    observed_indices:
        For each sparse point, the index of its counterpart in ``dense``
        (sparse points are a time-subset of the dense points).
    """

    sparse: Trajectory
    route: List[int]
    dense: MatchedTrajectory
    observed_indices: List[int]

    def __post_init__(self) -> None:
        if len(self.sparse) != len(self.observed_indices):
            raise ValueError("one dense index per sparse point required")
        if self.observed_indices and (
            self.observed_indices[0] != 0
            or self.observed_indices[-1] != len(self.dense) - 1
        ):
            raise ValueError("sparse trajectory must retain first and last points")

    @property
    def gt_point_matches(self) -> List[MapMatchedPoint]:
        """Ground-truth map-matched point of each sparse GPS point."""
        return [self.dense[i] for i in self.observed_indices]

    @property
    def gt_segments(self) -> List[int]:
        """Ground-truth segment id of each sparse GPS point (MMA labels)."""
        return [self.dense[i].edge_id for i in self.observed_indices]

    def epsilon(self) -> float:
        """The dense sampling rate of this sample."""
        if len(self.dense) < 2:
            return 0.0
        return (self.dense[-1].t - self.dense[0].t) / (len(self.dense) - 1)


def route_segment_set(route: Sequence[int]) -> set:
    """Distinct segments of a route (used by the set-based metrics)."""
    return set(route)
