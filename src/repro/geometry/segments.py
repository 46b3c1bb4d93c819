"""Point-to-segment geometry used throughout matching and recovery.

A road segment is a directed straight line between its entrance and exit
nodes (Definition 1).  Map-matched points live on segments at a *position
ratio* ``r`` in [0, 1) measured from the entrance (Definition 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

Vec = Tuple[float, float]


@dataclass(frozen=True)
class SegmentGeometry:
    """Planar geometry of one directed road segment (entrance -> exit)."""

    ax: float
    ay: float
    bx: float
    by: float

    @property
    def entrance(self) -> Vec:
        return (self.ax, self.ay)

    @property
    def exit(self) -> Vec:
        return (self.bx, self.by)

    @property
    def length(self) -> float:
        return math.hypot(self.bx - self.ax, self.by - self.ay)

    @property
    def direction(self) -> Vec:
        """Unit vector from entrance to exit (zero vector if degenerate)."""
        l = self.length
        if l < 1e-12:
            return (0.0, 0.0)
        return ((self.bx - self.ax) / l, (self.by - self.ay) / l)

    def point_at(self, ratio: float) -> Vec:
        """Planar coordinates of the point at position ratio ``ratio``."""
        return (
            self.ax + (self.bx - self.ax) * ratio,
            self.ay + (self.by - self.ay) * ratio,
        )


def project_ratio(seg: SegmentGeometry, x: float, y: float) -> float:
    """Position ratio of the orthogonal projection of (x, y) onto ``seg``.

    The ratio is clamped to [0, 1) so the result is always a valid
    map-matched-point ratio even when the projection falls outside the
    segment (it then snaps to the nearest endpoint; the exit end uses the
    largest representable ratio below 1 to satisfy Definition 5).
    """
    dx, dy = seg.bx - seg.ax, seg.by - seg.ay
    denom = dx * dx + dy * dy
    if denom < 1e-18:
        return 0.0
    t = ((x - seg.ax) * dx + (y - seg.ay) * dy) / denom
    return min(max(t, 0.0), math.nextafter(1.0, 0.0))


def point_segment_distance(seg: SegmentGeometry, x: float, y: float) -> float:
    """Perpendicular distance from (x, y) to the (clamped) segment."""
    r = project_ratio(seg, x, y)
    px, py = seg.point_at(r)
    return math.hypot(x - px, y - py)


def directional_features(
    seg: SegmentGeometry,
    point: Vec,
    prev_point: Vec = None,
    next_point: Vec = None,
) -> Tuple[float, float, float, float]:
    """The four MMA cosine-similarity features for a candidate segment.

    The candidate segment, viewed as the vector entrance -> exit, is compared
    against (Section IV-B):

    1. the vector from the segment entrance to the GPS point,
    2. the vector from the GPS point to the segment exit,
    3. the incoming travel direction ``prev_point -> point``,
    4. the outgoing travel direction ``point -> next_point``.

    Missing neighbours (trajectory boundary) contribute 0.0, matching the
    zero-vector convention of :func:`repro.geometry.points.cosine_similarity`.
    """
    from .points import cosine_similarity

    seg_vec = (seg.bx - seg.ax, seg.by - seg.ay)
    to_point = (point[0] - seg.ax, point[1] - seg.ay)
    to_exit = (seg.bx - point[0], seg.by - point[1])

    incoming = (0.0, 0.0)
    if prev_point is not None:
        incoming = (point[0] - prev_point[0], point[1] - prev_point[1])
    outgoing = (0.0, 0.0)
    if next_point is not None:
        outgoing = (next_point[0] - point[0], next_point[1] - point[1])

    return (
        cosine_similarity(seg_vec, to_point),
        cosine_similarity(seg_vec, to_exit),
        cosine_similarity(seg_vec, incoming),
        cosine_similarity(seg_vec, outgoing),
    )
