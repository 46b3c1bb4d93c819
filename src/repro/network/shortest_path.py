"""Shortest paths on road networks.

Provides the routing primitives shared across the library:

* node-to-node Dijkstra (optionally bounded, for FMM's UBODT precomputation
  and the network distances of :mod:`repro.network.distances`),
* route concatenation (Definition 3: a route is a sequence of connected
  segments), which joins the per-gap legs a matcher plans into one route.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

from .road_network import RoadNetwork

INF = math.inf


def dijkstra(
    network: RoadNetwork,
    source: int,
    target: Optional[int] = None,
    max_cost: float = INF,
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Dijkstra from ``source`` over nodes; edge weight = segment length.

    Returns ``(dist, parent_edge)`` where ``parent_edge[v]`` is the segment
    id used to reach node ``v``.  Stops early when ``target`` is settled or
    when all remaining nodes exceed ``max_cost``.
    """
    dist: Dict[int, float] = {source: 0.0}
    parent_edge: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    settled = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            break
        if d > max_cost:
            break
        for edge_id in network.out_edges[node]:
            seg = network.segments[edge_id]
            nd = d + seg.length
            if nd < dist.get(seg.v, INF) and nd <= max_cost:
                dist[seg.v] = nd
                parent_edge[seg.v] = edge_id
                heapq.heappush(heap, (nd, seg.v))
    return dist, parent_edge


def concatenate_routes(legs: Sequence[Sequence[int]]) -> List[int]:
    """Concatenate per-gap routes into one route, deduplicating the shared
    endpoint segment between consecutive legs (Algorithm 1 lines 10-13)."""
    route: List[int] = []
    for leg in legs:
        for edge_id in leg:
            if route and route[-1] == edge_id:
                continue
            route.append(edge_id)
    return route
