"""Shortest paths, DA route planning, and network distances."""

import heapq
import math

import numpy as np
import pytest

from repro.data.datasets import build_dataset
from repro.network.distances import DirectedNodeDistance, NetworkDistance
from repro.network.road_network import RoadNetwork
from repro.network.routing import DARoutePlanner, TransitionStatistics
from repro.network.shortest_path import concatenate_routes, dijkstra


class TestDijkstra:
    def test_distances_on_square(self, square_network):
        dist, _ = dijkstra(square_network, 0)
        assert dist[0] == 0.0
        assert dist[1] == pytest.approx(100.0)
        assert dist[3] == pytest.approx(200.0)

    def test_early_termination_on_target(self, square_network):
        dist, _ = dijkstra(square_network, 0, target=1)
        assert dist[1] == pytest.approx(100.0)

    def test_max_cost_bound(self, square_network):
        dist, _ = dijkstra(square_network, 0, max_cost=150.0)
        assert 3 not in dist


class TestRoutesBetweenSegments:
    def test_concatenate_dedupes_endpoints(self):
        assert concatenate_routes([[1, 2, 3], [3, 4], [4, 5]]) == [1, 2, 3, 4, 5]

    def test_concatenate_keeps_interior_repeats(self):
        assert concatenate_routes([[1, 2], [2, 3, 2]]) == [1, 2, 3, 2]


class TestTransitionStatistics:
    def test_fit_and_probability(self, square_network):
        e01 = square_network.edge_between(0, 1)
        e13 = square_network.edge_between(1, 3)
        stats = TransitionStatistics(square_network)
        stats.fit([[e01, e13], [e01, e13]])
        alt = [s for s in square_network.successors(e01) if s != e13][0]
        assert stats.probability(e01, e13) > stats.probability(e01, alt)
        assert stats.observed_transitions() == 1

    def test_probabilities_normalise(self, square_network):
        e01 = square_network.edge_between(0, 1)
        stats = TransitionStatistics(square_network)
        total = sum(
            stats.probability(e01, s) for s in square_network.successors(e01)
        )
        assert total == pytest.approx(1.0)


class TestDARoutePlanner:
    def test_plan_reaches_target(self, small_network):
        planner = DARoutePlanner(small_network)
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b = rng.integers(0, small_network.n_segments, 2)
            route = planner.plan(int(a), int(b))
            assert route[0] == a and route[-1] == b
            assert small_network.route_is_path(route)

    def test_plan_is_cached(self, small_network):
        planner = DARoutePlanner(small_network)
        r1 = planner.plan(0, 5)
        r2 = planner.plan(0, 5)
        assert r1 == r2
        assert (0, 5) in planner._cache

    def test_history_prefers_popular_route(self, square_network):
        e01 = square_network.edge_between(0, 1)
        e13 = square_network.edge_between(1, 3)
        e02 = square_network.edge_between(0, 2)
        e23 = square_network.edge_between(2, 3)
        stats = TransitionStatistics(square_network)
        stats.fit([[e02, e23]] * 20)
        planner = DARoutePlanner(square_network, stats, tau=200.0)
        route = planner.plan(e02, e23)
        assert route == [e02, e23]

    def test_travel_distance_zero_for_identity(self, square_network):
        planner = DARoutePlanner(square_network)
        assert planner.travel_distance(0, 0) == 0.0

    @pytest.mark.parametrize("tau", [-1.0, -30.0])
    def test_negative_tau_is_rejected(self, square_network, tau):
        # The A* heuristic is a lower bound on the DA cost only for tau >= 0.
        with pytest.raises(ValueError, match="tau"):
            DARoutePlanner(square_network, tau=tau)

    def test_unconnected_pair_is_a_counted_trivial_hop(self):
        net = RoadNetwork(
            np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 50.0], [100.0, 50.0]]),
            [(0, 1), (2, 3)],
        )
        planner = DARoutePlanner(net)
        assert planner.plan(0, 1) == [0, 1]
        assert planner.fallbacks == 1


def _oracle_route(planner, from_edge, to_edge):
    """Unbounded edge-graph Dijkstra on the planner's DA transition cost."""
    dist = {from_edge: 0.0}
    parent = {}
    heap = [(0.0, from_edge)]
    settled = set()
    while heap:
        d, edge = heapq.heappop(heap)
        if edge in settled:
            continue
        settled.add(edge)
        if edge == to_edge:
            route = [to_edge]
            while route[-1] != from_edge:
                route.append(parent[route[-1]])
            return route[::-1]
        for succ in planner.network.successor_table[edge]:
            nd = d + planner._transition_cost(edge, succ)
            if nd < dist.get(succ, math.inf):
                dist[succ] = nd
                parent[succ] = edge
                heapq.heappush(heap, (nd, succ))
    return None


def _da_cost(planner, route):
    return sum(planner._transition_cost(a, b) for a, b in zip(route, route[1:]))


def _od_pairs(dataset, n_random=200, seed=3):
    """Seeded random OD pairs (stand-ins for mis-ranked candidates) plus the
    consecutive ground-truth segment pairs of the test split."""
    rng = np.random.default_rng(seed)
    n = dataset.network.n_segments
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, n, (n_random, 2))]
    for sample in dataset.test:
        segments = [sample.dense.points[i].edge_id for i in sample.observed_indices]
        pairs += [(a, b) for a, b in zip(segments, segments[1:]) if a != b]
    return [(a, b) for a, b in pairs if a != b]


class TestDAPlannerExactness:
    def test_plans_are_da_optimal_on_the_largest_network(self):
        # BJ has more segments than a bounded search of a few hundred
        # settled segments can cover, so a bounded planner fails here.
        dataset = build_dataset("BJ", n_trips=200, seed=11)
        planner = DARoutePlanner(dataset.network, dataset.transition_statistics())
        pairs = _od_pairs(dataset)
        assert len(pairs) > 300
        for a, b in pairs:
            route = planner.plan(a, b)
            assert route[0] == a and route[-1] == b
            assert dataset.network.route_is_path(route)
            expected = _da_cost(planner, _oracle_route(planner, a, b))
            assert _da_cost(planner, route) == pytest.approx(expected, rel=1e-12)
        assert planner.fallbacks == 0

    def test_routes_equal_the_oracle_routes_on_pt(self):
        dataset = build_dataset("PT", n_trips=200, seed=11)
        planner = DARoutePlanner(dataset.network, dataset.transition_statistics())
        for a, b in _od_pairs(dataset):
            assert planner.plan(a, b) == _oracle_route(planner, a, b)
        assert planner.fallbacks == 0


class TestNetworkDistance:
    def test_same_point_zero(self, square_network):
        nd = NetworkDistance(square_network)
        assert nd.point_distance(0, 0.5, 0, 0.5) == 0.0

    def test_same_segment_offset(self, square_network):
        nd = NetworkDistance(square_network)
        assert nd.point_distance(0, 0.2, 0, 0.7) == pytest.approx(50.0)

    def test_twin_segment_same_location_is_zero(self, square_network):
        # Point at ratio r on edge (0,1) == ratio 1-r on edge (1,0).
        nd = NetworkDistance(square_network)
        assert nd.point_distance(0, 0.3, 1, 0.7) == pytest.approx(0.0)

    def test_cross_block(self, square_network):
        nd = NetworkDistance(square_network)
        e01 = square_network.edge_between(0, 1)
        e23 = square_network.edge_between(2, 3)
        # Entrance-to-entrance via the left street: 100 m apart vertically.
        d = nd.point_distance(e01, 0.0, e23, 0.0)
        assert d == pytest.approx(100.0)

    def test_symmetry(self, small_network):
        nd = NetworkDistance(small_network)
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = rng.integers(0, small_network.n_segments, 2)
            ra, rb = rng.random(2) * 0.99
            d1 = nd.point_distance(int(a), float(ra), int(b), float(rb))
            d2 = nd.point_distance(int(b), float(rb), int(a), float(ra))
            assert d1 == pytest.approx(d2)

    def test_triangle_inequality_vs_euclidean(self, small_network):
        nd = NetworkDistance(small_network)
        rng = np.random.default_rng(4)
        for _ in range(10):
            a, b = rng.integers(0, small_network.n_segments, 2)
            ra, rb = rng.random(2) * 0.99
            d = nd.point_distance(int(a), float(ra), int(b), float(rb))
            xa, ya = small_network.point_on_segment(int(a), float(ra))
            xb, yb = small_network.point_on_segment(int(b), float(rb))
            assert d >= math.hypot(xa - xb, ya - yb) - 1e-6

    def test_directed_distance_respects_direction(self, square_network):
        dd = DirectedNodeDistance(square_network)
        assert dd.node_distance(0, 1) == pytest.approx(100.0)
        assert dd.node_distance(0, 0) == 0.0
