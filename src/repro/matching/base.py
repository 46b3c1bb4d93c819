"""Map-matcher interface and shared route-stitching logic.

Every matcher maps the GPS points of a trajectory to segments
(:meth:`MapMatcher.match_points`) and derives the trajectory's route
(:meth:`MapMatcher.match`) by stitching consecutive matched segments with a
route planner (Algorithm 1, lines 10-13).  All methods in the comparison use
the *same* DA-based planner, as the paper does for fairness.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..data.trajectory import MapMatchedPoint, Trajectory
from ..network.road_network import RoadNetwork
from ..network.routing import DARoutePlanner, TransitionStatistics
from ..network.shortest_path import concatenate_routes
from ..nn import Module
from ..telemetry import span


class MapMatcher:
    """Abstract base class of all map-matching methods."""

    #: Human-readable method name used in experiment reports.
    name: str = "base"
    #: Whether :meth:`fit` performs actual training (False for heuristics).
    requires_training: bool = False

    def __init__(
        self, network: RoadNetwork, planner: Optional[DARoutePlanner] = None
    ) -> None:
        self.network = network
        self.planner = planner or DARoutePlanner(network)

    # --------------------------------------------------------------- training

    def fit(self, dataset) -> "MapMatcher":
        """Train on ``dataset`` (no-op for heuristic matchers)."""
        return self

    def fit_epoch(self, dataset) -> float:
        """Run one training epoch; returns the epoch loss (0 if untrained)."""
        return 0.0

    # ------------------------------------------------- validation / snapshot

    def _trainable_modules(self) -> List[Module]:
        """The neural modules whose parameters training updates."""
        return [v for v in vars(self).values() if isinstance(v, Module)]

    def snapshot(self) -> List[dict]:
        """Copy of all trainable parameters (for best-epoch selection)."""
        return [m.state_dict() for m in self._trainable_modules()]

    def restore(self, snapshot: List[dict]) -> None:
        """Restore parameters captured by :meth:`snapshot`."""
        modules = self._trainable_modules()
        if len(modules) != len(snapshot):
            raise ValueError("snapshot does not match this matcher's modules")
        for module, state in zip(modules, snapshot):
            module.load_state_dict(state)

    def validation_point_accuracy(self, dataset) -> float:
        """Fraction of validation GPS points matched to their true segment."""
        samples = list(dataset.val)
        predictions = self.match_points_many([s.sparse for s in samples])
        correct, total = 0, 0
        for sample, predicted in zip(samples, predictions):
            for p, gt in zip(predicted, sample.gt_segments):
                correct += int(p == gt)
                total += 1
        return correct / max(total, 1)

    # --------------------------------------------------------------- matching

    def match_points(self, trajectory: Trajectory) -> List[int]:
        """Segment id for every GPS point of ``trajectory``."""
        raise NotImplementedError

    def match_points_many(
        self, trajectories: Sequence[Trajectory], batch_size: int = 32
    ) -> List[List[int]]:
        """Point matches for many trajectories.

        The base implementation loops; matchers with a batched inference
        path (MMA) override it to amortise encoding and model cost while
        returning the same matches per trajectory.
        """
        return [self.match_points(t) for t in trajectories]

    def match_many(
        self, trajectories: Sequence[Trajectory], batch_size: int = 32
    ) -> List[List[int]]:
        """Routes for many trajectories via :meth:`match_points_many`;
        stitching reuses the planner's route cache across trajectories."""
        return [
            self.stitch(segments)
            for segments in self.match_points_many(
                trajectories, batch_size=batch_size
            )
        ]

    #: Extra travel (metres) a matched segment may add before the stitcher
    #: treats it as an outlier and routes around it.
    detour_tolerance = 300.0

    def match(self, trajectory: Trajectory) -> List[int]:
        """The route (Definition 4) of ``trajectory``."""
        segments = self.match_points(trajectory)
        return self.stitch(segments)

    def stitch(self, segments: Sequence[int]) -> List[int]:
        """Connect consecutive matched segments into one route.

        Interior matched segments whose inclusion would force a detour far
        longer than routing straight past them are dropped as outliers —
        a single mis-matched point otherwise inserts a spurious loop into
        the route, which damages the set-based route metrics much more than
        the point itself.

        Telemetry: recorded as a ``routing`` span (the per-pair planner
        calls nest inside it as further ``routing`` spans).
        """
        with span("routing"):
            if not segments:
                return []
            kept = self._drop_outliers(list(segments))
            legs = []
            for a, b in zip(kept, kept[1:]):
                legs.append(self.planner.plan(a, b))
            return concatenate_routes(legs) if legs else [kept[0]]

    def _drop_outliers(self, segments: List[int]) -> List[int]:
        if len(segments) < 3:
            return segments
        kept = [segments[0]]
        for i in range(1, len(segments) - 1):
            prev, cur, nxt = kept[-1], segments[i], segments[i + 1]
            if cur == prev or cur == nxt:
                kept.append(cur)
                continue
            # Fast path: the matched segment already lies on the direct
            # route between its neighbours — certainly not an outlier.
            if cur in self.planner.plan(prev, nxt):
                kept.append(cur)
                continue
            via = self.planner.travel_distance(
                prev, cur
            ) + self.planner.travel_distance(cur, nxt)
            direct = self.planner.travel_distance(prev, nxt)
            if via > direct + self.detour_tolerance:
                continue
            kept.append(cur)
        kept.append(segments[-1])
        return kept

    def matched_points(self, trajectory: Trajectory) -> List[MapMatchedPoint]:
        """Project every GPS point onto its matched segment (Def. 5)."""
        return project_points(
            self.network, trajectory, self.match_points(trajectory)
        )


def project_points(
    network: RoadNetwork, trajectory: Trajectory, segments: Sequence[int]
) -> List[MapMatchedPoint]:
    """Each GPS point projected onto its segment (Def. 5; Algorithm 2,
    lines 2-4)."""
    return [
        MapMatchedPoint(
            edge_id=edge_id, ratio=network.project_onto(edge_id, p.x, p.y), t=p.t
        )
        for p, edge_id in zip(trajectory, segments)
    ]


def attach_planner_statistics(
    matcher: MapMatcher, statistics: TransitionStatistics
) -> MapMatcher:
    """Give the matcher's planner historical transition counts (DA routing)."""
    matcher.planner.statistics = statistics
    return matcher


def reproject_onto_route(
    network: RoadNetwork,
    trajectory: Trajectory,
    matched: Sequence[MapMatchedPoint],
    route: Sequence[int],
) -> List[MapMatchedPoint]:
    """Re-anchor the observed points on the stitched route.

    Algorithm 2 (lines 2-4) projects each GPS point onto its segment *in R*.
    Once the route is known it carries global information the per-point
    matcher lacked: only one direction of each two-way road appears, and
    side streets off the route are excluded.  This helper assigns every
    observed point to a route segment by a monotone minimum-perpendicular-
    distance dynamic program (points must progress along the route in
    order), which cleans up exactly the twin/side-street anchor errors that
    independent per-point matching leaves behind.

    Telemetry: recorded as a ``reproject`` span.
    """
    if not route or not matched:
        return list(matched)
    with span("reproject"):
        return _reproject_onto_route(network, trajectory, matched, route)


def _reproject_onto_route(
    network: RoadNetwork,
    trajectory: Trajectory,
    matched: Sequence[MapMatchedPoint],
    route: Sequence[int],
) -> List[MapMatchedPoint]:
    n_points = len(matched)
    l_route = len(route)
    xy = np.array([[p.x, p.y] for p in trajectory], dtype=np.float64)
    distances = network.segment_distances(xy, route)
    # cost[i, k]: best total distance matching points 0..i with point i on
    # route position k, positions non-decreasing.
    cost = np.full((n_points, l_route), np.inf)
    back = np.zeros((n_points, l_route), dtype=np.int64)
    cost[0] = distances[0]
    for i in range(1, n_points):
        best_prefix = np.minimum.accumulate(cost[i - 1])
        argbest = np.zeros(l_route, dtype=np.int64)
        running = 0
        for k in range(1, l_route):
            if cost[i - 1, k] < cost[i - 1, running]:
                running = k
            argbest[k] = running
        cost[i] = best_prefix + distances[i]
        back[i] = argbest
    assignment = np.zeros(n_points, dtype=np.int64)
    assignment[-1] = int(cost[-1].argmin())
    for i in range(n_points - 1, 0, -1):
        assignment[i - 1] = back[i, assignment[i]]

    return project_points(
        network, trajectory, [route[k] for k in assignment.tolist()]
    )
