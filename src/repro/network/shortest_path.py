"""Shortest paths on road networks.

Provides the routing primitives used across the library:

* node-to-node Dijkstra (optionally bounded, for FMM's UBODT precomputation),
* node-to-node A* with a Euclidean heuristic,
* segment-to-segment routes (Definition 3: a route is a sequence of
  connected segments), the routine every matcher uses to stitch matched
  segments together and every recovery method uses for ground truth.
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


def reconstruct_edge_path(
    network: RoadNetwork, parent_edge: Dict[int, int], source: int, target: int
) -> Optional[List[int]]:
    """Edge-id path from ``source`` to ``target`` out of a Dijkstra tree."""
    if target == source:
        return []
    if target not in parent_edge:
        return None
    path: List[int] = []
    node = target
    while node != source:
        edge_id = parent_edge[node]
        path.append(edge_id)
        node = network.segments[edge_id].u
    path.reverse()
    return path


def node_shortest_path(
    network: RoadNetwork, source: int, target: int, max_cost: float = INF
) -> Optional[List[int]]:
    """Shortest edge-id path between two nodes, or None if unreachable."""
    _, parent = dijkstra(network, source, target=target, max_cost=max_cost)
    return reconstruct_edge_path(network, parent, source, target)


def astar(
    network: RoadNetwork, source: int, target: int
) -> Optional[List[int]]:
    """A* node-to-node search with the (admissible) Euclidean heuristic."""

    def heuristic(node: int) -> float:
        dx = network.node_xy[node, 0] - network.node_xy[target, 0]
        dy = network.node_xy[node, 1] - network.node_xy[target, 1]
        return math.hypot(dx, dy)

    dist: Dict[int, float] = {source: 0.0}
    parent_edge: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = [(heuristic(source), source)]
    settled = set()
    while heap:
        _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            return reconstruct_edge_path(network, parent_edge, source, target)
        for edge_id in network.out_edges[node]:
            seg = network.segments[edge_id]
            nd = dist[node] + seg.length
            if nd < dist.get(seg.v, INF):
                dist[seg.v] = nd
                parent_edge[seg.v] = edge_id
                heapq.heappush(heap, (nd + heuristic(seg.v), seg.v))
    return None


_CACHE_MISS = object()


def route_between_segments(
    network: RoadNetwork, from_edge: int, to_edge: int, max_cost: float = INF
) -> Optional[List[int]]:
    """A route (connected segment sequence) from ``from_edge`` to ``to_edge``.

    The returned route includes both endpoints: ``[from_edge, ..., to_edge]``.
    Returns ``[from_edge]`` when the two are the same segment, and ``None``
    when no connection exists within ``max_cost`` metres of intermediate
    travel.

    Results are memoised in ``network.route_cache`` (LRU): callers that
    stitch routes on physical length re-query the same OD pairs constantly.
    """
    if from_edge == to_edge:
        return [from_edge]
    cache = network.route_cache
    key = (from_edge, to_edge, max_cost)
    cached = cache.get(key, _CACHE_MISS)
    if cached is not _CACHE_MISS:
        return list(cached) if cached is not None else None
    seg_from = network.segments[from_edge]
    seg_to = network.segments[to_edge]
    if seg_from.v == seg_to.u:
        route: Optional[List[int]] = [from_edge, to_edge]
    else:
        middle = node_shortest_path(
            network, seg_from.v, seg_to.u, max_cost=max_cost
        )
        route = None if middle is None else [from_edge, *middle, to_edge]
    cache.put(key, tuple(route) if route is not None else None)
    return route


def route_gap_distance(
    network: RoadNetwork, from_edge: int, to_edge: int, max_cost: float = INF
) -> float:
    """Network travel distance from the exit of ``from_edge`` to the
    entrance of ``to_edge`` (0 when directly connected, inf when
    unreachable within ``max_cost``)."""
    seg_from = network.segments[from_edge]
    seg_to = network.segments[to_edge]
    if from_edge == to_edge:
        return 0.0
    if seg_from.v == seg_to.u:
        return 0.0
    dist, _ = dijkstra(network, seg_from.v, target=seg_to.u, max_cost=max_cost)
    return dist.get(seg_to.u, INF)


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
