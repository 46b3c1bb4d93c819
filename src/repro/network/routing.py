"""Destination-aware (DA) route planning from historical statistics.

The paper connects the matched segments of consecutive GPS points with the
"DA-based method from [2] that relies on basic statistical counts"
(Algorithm 1, line 12).  Following that reference, the planner here learns
segment-to-segment *transition counts* from historical routes, then plans
each route as the least-cost path under a cost that discounts the turns
drivers most often took.  The search is A* on the edge graph with a
Euclidean heuristic that never overestimates that cost, so every plan is the
exact DA-optimal route and the search needs no bound.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..telemetry import span
from .cache import CacheInfo, LRUCache
from .road_network import RoadNetwork


class TransitionStatistics:
    """Historical segment-transition counts with Laplace smoothing."""

    def __init__(self, network: RoadNetwork, smoothing: float = 1.0) -> None:
        self.network = network
        self.smoothing = smoothing
        self._counts: Dict[Tuple[int, int], float] = {}
        self._totals: Dict[int, float] = {}
        # Per-segment fan-out table: probability() sits inside the planner's
        # Dijkstra loop, so the successor-list length is looked up once here
        # instead of being recomputed on every call.
        self._fanout: List[int] = [
            len(successors) for successors in network.successor_table
        ]

    def fit(self, routes: Iterable[Sequence[int]]) -> "TransitionStatistics":
        """Accumulate transitions from historical routes (segment-id paths)."""
        for route in routes:
            for a, b in zip(route, route[1:]):
                self._counts[(a, b)] = self._counts.get((a, b), 0.0) + 1.0
                self._totals[a] = self._totals.get(a, 0.0) + 1.0
        # Refresh the fan-out table (cheap) in case the caller fitted the
        # statistics against a different-but-compatible network object.
        self._fanout = [
            len(successors) for successors in self.network.successor_table
        ]
        return self

    def probability(self, from_edge: int, to_edge: int) -> float:
        """Smoothed P(to_edge | from_edge) among the successors of from_edge."""
        fanout = self._fanout[from_edge]
        if fanout == 0:
            return 0.0
        count = self._counts.get((from_edge, to_edge), 0.0)
        total = self._totals.get(from_edge, 0.0)
        return (count + self.smoothing) / (total + self.smoothing * fanout)

    def observed_transitions(self) -> int:
        return len(self._counts)


class DARoutePlanner:
    """Destination-aware planner over :class:`TransitionStatistics`.

    Plans the route between two segments as a least-cost path on the *edge
    graph*, where traversing successor ``s`` from segment ``e`` costs

        ``length(s) - tau * log P(s | e)``

    — the physical length discounted by how often drivers historically took
    that turn.  With ``tau = 0`` this is the exact shortest path; with the
    default ``tau`` popular manoeuvres are preferred, reproducing the
    "basic statistical counts" routing of the paper's reference [2].

    The search is A* with ``h(e) = |exit(e) - entry(to)| + length(to)``
    (``h(to) = 0``).  Every remaining transition costs at least the length
    of the segment it enters (``-tau * log P >= 0`` for ``tau >= 0``), and
    the straight chord is no longer than any road path, so ``h`` is
    admissible and consistent: the first time the search settles the
    destination it holds the DA-optimal route.  ``fallbacks`` counts plans
    between segments that no route connects; those return the trivial hop
    ``[from_edge, to_edge]``.
    """

    #: Default capacity of the plan memo (an LRU so city-scale runs stay
    #: bounded; 100k OD pairs cover a BENCH test split many times over).
    ROUTE_CACHE_CAPACITY = 100_000

    def __init__(
        self,
        network: RoadNetwork,
        statistics: Optional[TransitionStatistics] = None,
        tau: float = 30.0,
        route_cache_capacity: int = ROUTE_CACHE_CAPACITY,
    ) -> None:
        if tau < 0:
            # A negative tau makes popular turns cost less than their length,
            # and the A* heuristic would no longer be a lower bound.
            raise ValueError(f"tau must be >= 0, got {tau}")
        self.network = network
        self.statistics = statistics
        self.tau = tau
        self.fallbacks = 0  # number of plans between unconnected segments
        # Node coordinates as plain Python floats: the heuristic runs once per
        # relaxed successor, where numpy scalar indexing would dominate.
        self._node_x = network.node_xy[:, 0].tolist()
        self._node_y = network.node_xy[:, 1].tolist()
        self._exit = [s.v for s in network.segments]
        self._cache = LRUCache(capacity=route_cache_capacity)
        self._cost_cache: dict = {}

    def cache_info(self) -> CacheInfo:
        """Hit/miss counters of the plan memo (Figs. 5/9 efficiency probes)."""
        return self._cache.info()

    def plan(self, from_edge: int, to_edge: int) -> List[int]:
        """Route (connected segment sequence) from ``from_edge`` to ``to_edge``.

        Plans are deterministic and memoised in a bounded LRU — repeated
        stitching of the same segment pairs (common across a test set) hits
        the cache instead of re-running the search.

        Telemetry: every call is a ``routing`` span (cache hits included,
        so the span's p50 reflects the memo's effectiveness).
        """
        with span("routing"):
            key = (from_edge, to_edge)
            cached = self._cache.get(key)
            if cached is not None:
                return list(cached)
            route = self._plan_uncached(from_edge, to_edge)
            self._cache.put(key, tuple(route))
            return route

    def travel_distance(self, from_edge: int, to_edge: int) -> float:
        """Travel distance from the exit of ``from_edge`` to the exit of
        ``to_edge`` along the planned route (0 when identical)."""
        route = self.plan(from_edge, to_edge)
        return sum(self.network.segment_length(e) for e in route[1:])

    def _plan_uncached(self, from_edge: int, to_edge: int) -> List[int]:
        if from_edge == to_edge:
            return [from_edge]
        route = self._astar(from_edge, to_edge)
        if route is not None:
            return route
        # No road connects the pair: return the trivial hop.
        self.fallbacks += 1
        return [from_edge, to_edge]

    # ------------------------------------------------------------------ impl

    def _transition_cost(self, from_edge: int, to_edge: int) -> float:
        key = (from_edge, to_edge)
        cached = self._cost_cache.get(key)
        if cached is not None:
            return cached
        cost = self.network.segment_length(to_edge)
        if self.statistics is not None and self.tau > 0:
            prob = max(self.statistics.probability(from_edge, to_edge), 1e-9)
            cost -= self.tau * math.log(prob)
        cost = max(cost, 1e-6)
        self._cost_cache[key] = cost
        return cost

    def _astar(self, from_edge: int, to_edge: int) -> Optional[List[int]]:
        """DA-optimal route by A* on the edge graph, or None if unreachable."""
        cost, cost_cache = self._transition_cost, self._cost_cache
        successor_table = self.network.successor_table
        node_x, node_y, exit_node = self._node_x, self._node_y, self._exit
        target = self.network.segments[to_edge]
        target_x, target_y = node_x[target.u], node_y[target.u]
        tail = target.length
        hypot = math.hypot

        dist = {from_edge: 0.0}
        parent: dict = {}
        heap: List[Tuple[float, float, int]] = [(0.0, 0.0, from_edge)]
        settled = set()
        while heap:
            _, g, edge = heapq.heappop(heap)
            if edge in settled:
                continue
            settled.add(edge)
            if edge == to_edge:
                route = [to_edge]
                while route[-1] != from_edge:
                    route.append(parent[route[-1]])
                route.reverse()
                return route
            for succ in successor_table[edge]:
                c = cost_cache.get((edge, succ))
                ng = g + (cost(edge, succ) if c is None else c)
                if ng < dist.get(succ, math.inf):
                    dist[succ] = ng
                    parent[succ] = edge
                    if succ == to_edge:
                        h = 0.0
                    else:
                        v = exit_node[succ]
                        h = hypot(node_x[v] - target_x, node_y[v] - target_y) + tail
                    heapq.heappush(heap, (ng + h, ng, succ))
        return None
