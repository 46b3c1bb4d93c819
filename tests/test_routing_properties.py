"""Property-based tests for routing, planning, and distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.fmm import UBODT
from repro.network.distances import NetworkDistance
from repro.network.generators import CityConfig, generate_city
from repro.network.routing import DARoutePlanner, TransitionStatistics
from repro.network.shortest_path import concatenate_routes, dijkstra


@pytest.fixture(scope="module")
def net():
    return generate_city(
        CityConfig(rows=5, cols=5, spacing=120.0, jitter=8.0,
                   p_missing=0.05, p_oneway=0.15),
        seed=11,
    )


class TestDijkstraProperties:
    @given(seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_triangle_inequality_over_nodes(self, net, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rng.integers(0, net.n_nodes, 3)
        da, _ = dijkstra(net, int(a))
        db, _ = dijkstra(net, int(b))
        assert da[int(c)] <= da[int(b)] + db[int(c)] + 1e-9

    def test_bounded_dijkstra_subset_of_full(self, net):
        full, _ = dijkstra(net, 0)
        bounded, _ = dijkstra(net, 0, max_cost=300.0)
        for node, d in bounded.items():
            assert d == pytest.approx(full[node])


class TestUBODTProperties:
    def test_matches_dijkstra_within_bound(self, net):
        table = UBODT(net, delta=400.0)
        for source in range(0, net.n_nodes, 7):
            dist, _ = dijkstra(net, source, max_cost=400.0)
            for target, d in dist.items():
                if target != source:
                    assert table.lookup(source, target) == pytest.approx(d)


class TestPlannerProperties:
    @given(seed=st.integers(0, 60))
    @settings(max_examples=20, deadline=None)
    def test_planned_route_valid(self, net, seed):
        rng = np.random.default_rng(seed)
        planner = DARoutePlanner(net)
        a, b = rng.integers(0, net.n_segments, 2)
        route = planner.plan(int(a), int(b))
        assert route[0] == a and route[-1] == b
        assert net.route_is_path(route)
        # No segment repeats inside a planned leg (it is a simple path).
        assert len(set(route)) == len(route)

    def test_zero_tau_is_shortest_path(self, net):
        planner = DARoutePlanner(net, tau=0.0)
        rng = np.random.default_rng(1)
        for _ in range(8):
            a, b = rng.integers(0, net.n_segments, 2)
            route = planner.plan(int(a), int(b))
            if a == b:
                continue
            # Exclude the origin segment (its length is not travelled).
            travelled = net.route_length(route[1:])
            dist, _ = dijkstra(net, net.segments[int(a)].v)
            expected = dist[net.segments[int(b)].u] + net.segment_length(int(b))
            assert travelled == pytest.approx(expected)

    @given(seed=st.integers(0, 40))
    @settings(max_examples=15, deadline=None)
    def test_history_bias_never_breaks_connectivity(self, net, seed):
        rng = np.random.default_rng(seed)
        stats = TransitionStatistics(net)
        # Random fake history.
        walk = [int(rng.integers(0, net.n_segments))]
        for _ in range(30):
            succ = net.successors(walk[-1])
            if not succ:
                break
            walk.append(int(rng.choice(succ)))
        stats.fit([walk])
        planner = DARoutePlanner(net, stats, tau=50.0)
        a, b = rng.integers(0, net.n_segments, 2)
        route = planner.plan(int(a), int(b))
        assert net.route_is_path(route)


class TestConcatenation:
    @given(
        legs=st.lists(
            st.lists(st.integers(0, 30), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_concatenation_preserves_order(self, legs):
        # Make legs chain: each leg starts where the previous ended.
        chained = []
        for i, leg in enumerate(legs):
            if i > 0:
                leg = [chained[-1][-1], *leg]
            chained.append(leg)
        flat = concatenate_routes(chained)
        # No immediate duplicates.
        assert all(a != b for a, b in zip(flat, flat[1:]))


class TestNetworkDistanceProperties:
    @given(seed=st.integers(0, 80))
    @settings(max_examples=20, deadline=None)
    def test_identity_and_nonnegativity(self, net, seed):
        rng = np.random.default_rng(seed)
        nd = NetworkDistance(net)
        e = int(rng.integers(0, net.n_segments))
        r = float(rng.random() * 0.99)
        assert nd.point_distance(e, r, e, r) == 0.0
        e2 = int(rng.integers(0, net.n_segments))
        r2 = float(rng.random() * 0.99)
        assert nd.point_distance(e, r, e2, r2) >= 0.0

    def test_distance_caps_at_fallback(self, net):
        nd = NetworkDistance(net, max_cost=1.0)  # nothing reachable
        d = nd.point_distance(0, 0.5, net.n_segments - 1, 0.5)
        x1, y1 = net.point_on_segment(0, 0.5)
        x2, y2 = net.point_on_segment(net.n_segments - 1, 0.5)
        assert d == pytest.approx(np.hypot(x1 - x2, y1 - y2))
