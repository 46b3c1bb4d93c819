"""Trajectory datatypes, simulator, sparsifier, dataset registry."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import DATASET_CONFIGS, DATASET_NAMES, build_dataset
from repro.data.simulate import (
    SimulationConfig,
    segment_speed_factors,
    signal_nodes,
    simulate_trip,
    simulate_trips,
)
from repro.data.sparsify import sparsify_trip, sparsify_trips
from repro.data.trajectory import (
    GPSPoint,
    MapMatchedPoint,
    MatchedTrajectory,
    Trajectory,
    TrajectorySample,
)


class TestDatatypes:
    def test_gps_point_roundtrip(self, small_network):
        p = GPSPoint.from_xy(small_network, 100.0, 200.0, 5.0)
        q = GPSPoint.from_latlng(small_network, p.lat, p.lng, 5.0)
        assert (q.x, q.y) == pytest.approx((100.0, 200.0))

    def test_trajectory_requires_time_order(self):
        pts = [GPSPoint(0, 0, 10.0), GPSPoint(1, 1, 5.0)]
        with pytest.raises(ValueError):
            Trajectory(pts)

    def test_trajectory_duration_and_interval(self):
        pts = [GPSPoint(0, 0, 0.0), GPSPoint(1, 1, 10.0), GPSPoint(2, 2, 30.0)]
        traj = Trajectory(pts)
        assert traj.duration == 30.0
        assert traj.mean_interval() == 15.0
        assert len(traj) == 3
        assert traj[1].t == 10.0

    def test_single_point_trajectory(self):
        traj = Trajectory([GPSPoint(0, 0, 0.0)])
        assert traj.duration == 0.0
        assert traj.mean_interval() == 0.0

    def test_matched_point_ratio_bounds(self):
        with pytest.raises(ValueError):
            MapMatchedPoint(edge_id=0, ratio=1.5, t=0.0)
        MapMatchedPoint(edge_id=0, ratio=0.0, t=0.0)  # ok

    def test_matched_point_xy(self, square_network):
        a = MapMatchedPoint(edge_id=0, ratio=0.5, t=0.0)
        assert a.xy(square_network) == pytest.approx((50.0, 0.0))

    def test_matched_trajectory_epsilon_validation(self):
        pts = [MapMatchedPoint(0, 0.1, t) for t in (0.0, 15.0, 30.0)]
        mt = MatchedTrajectory(pts)
        assert mt.validates_epsilon(15.0)
        assert not mt.validates_epsilon(10.0)
        assert mt.segments() == [0, 0, 0]

    def test_matched_types_are_slotted_and_pickle(self):
        """Recovered outputs are held by the million: no per-object dict."""
        mt = MatchedTrajectory(
            [MapMatchedPoint(3, 0.25, 0.0), MapMatchedPoint(4, 0.5, 15.0)]
        )
        assert not hasattr(mt, "__dict__")
        assert not hasattr(mt.points[0], "__dict__")
        restored = pickle.loads(pickle.dumps(mt))
        assert restored == mt
        assert restored.points[1].edge_id == 4
        with pytest.raises(AttributeError):
            mt.points[0].ratio = 0.75  # still frozen

    def test_sample_invariants(self):
        dense = MatchedTrajectory(
            [MapMatchedPoint(0, 0.1, t) for t in (0.0, 15.0, 30.0)]
        )
        sparse = Trajectory([GPSPoint(0, 0, 0.0), GPSPoint(1, 1, 30.0)])
        sample = TrajectorySample(
            sparse=sparse, route=[0], dense=dense, observed_indices=[0, 2]
        )
        assert sample.gt_segments == [0, 0]
        assert sample.epsilon() == 15.0

    def test_sample_requires_endpoint_observations(self):
        dense = MatchedTrajectory(
            [MapMatchedPoint(0, 0.1, t) for t in (0.0, 15.0, 30.0)]
        )
        sparse = Trajectory([GPSPoint(0, 0, 0.0), GPSPoint(1, 1, 15.0)])
        with pytest.raises(ValueError):
            TrajectorySample(
                sparse=sparse, route=[0], dense=dense, observed_indices=[0, 1]
            )


class TestSimulator:
    def test_trip_structure(self, small_network):
        config = SimulationConfig(min_trip_distance=300.0, min_dense_points=5)
        trip = simulate_trip(small_network, config, seed=1)
        assert trip is not None
        assert small_network.route_is_path(trip.route)
        assert len(trip.dense) == len(trip.gps)
        assert trip.dense.validates_epsilon(config.epsilon)

    def test_dense_points_lie_on_route(self, small_network):
        config = SimulationConfig(min_trip_distance=300.0, min_dense_points=5)
        trip = simulate_trip(small_network, config, seed=2)
        assert set(p.edge_id for p in trip.dense) <= set(trip.route)

    def test_dense_progress_is_monotone(self, small_network):
        config = SimulationConfig(min_trip_distance=300.0, min_dense_points=5)
        trip = simulate_trip(small_network, config, seed=3)
        positions = []
        cursor = 0
        for a in trip.dense:
            idx = trip.route.index(a.edge_id, cursor)
            cursor = idx
            offset = sum(
                small_network.segment_length(e) for e in trip.route[:idx]
            ) + a.ratio * small_network.segment_length(a.edge_id)
            positions.append(offset)
        assert all(b >= a - 1e-9 for a, b in zip(positions, positions[1:]))

    def test_gps_noise_is_bounded_realistically(self, small_network):
        config = SimulationConfig(
            min_trip_distance=300.0, min_dense_points=5,
            gps_noise_std=5.0, outlier_prob=0.0,
        )
        trips = simulate_trips(small_network, config, 5, seed=4)
        errors = []
        for trip in trips:
            for a, p in zip(trip.dense, trip.gps):
                x, y = a.xy(small_network)
                errors.append(np.hypot(p.x - x, p.y - y))
        assert 2.0 < np.mean(errors) < 12.0

    def test_signal_placement_deterministic(self, small_network):
        config = SimulationConfig()
        a = signal_nodes(small_network, config, seed=5)
        b = signal_nodes(small_network, config, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_speed_factors_twins_shared(self, small_network):
        factors = segment_speed_factors(small_network, SimulationConfig(), seed=6)
        for e in range(small_network.n_segments):
            twin = small_network.reverse_of(e)
            if twin is not None:
                assert factors[e] == factors[twin]

    def test_simulate_trips_count(self, small_network):
        config = SimulationConfig(min_trip_distance=300.0, min_dense_points=5)
        trips = simulate_trips(small_network, config, 7, seed=7)
        assert len(trips) == 7


class TestSparsify:
    def _trip(self, small_network, seed=8):
        config = SimulationConfig(min_trip_distance=300.0, min_dense_points=8)
        return simulate_trip(small_network, config, seed=seed)

    def test_keeps_endpoints(self, small_network):
        trip = self._trip(small_network)
        sample = sparsify_trip(trip, gamma=0.2, seed=1)
        assert sample.observed_indices[0] == 0
        assert sample.observed_indices[-1] == len(trip.dense) - 1

    def test_gamma_one_keeps_everything(self, small_network):
        trip = self._trip(small_network)
        sample = sparsify_trip(trip, gamma=1.0, seed=1)
        assert len(sample.sparse) == len(trip.dense)

    def test_invalid_gamma(self, small_network):
        trip = self._trip(small_network)
        with pytest.raises(ValueError):
            sparsify_trip(trip, gamma=0.0)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_sparse_points_subset_of_dense_times(self, small_network, seed):
        trip = self._trip(small_network, seed=3)
        sample = sparsify_trip(trip, gamma=0.3, seed=seed)
        dense_times = {a.t for a in trip.dense}
        assert all(p.t in dense_times for p in sample.sparse)

    def test_smaller_gamma_means_fewer_points(self, small_network):
        trip = self._trip(small_network)
        counts = {
            gamma: np.mean(
                [
                    len(sparsify_trip(trip, gamma, seed=s).sparse)
                    for s in range(30)
                ]
            )
            for gamma in (0.1, 0.5)
        }
        assert counts[0.1] < counts[0.5]

    def test_sparsify_trips_batch(self, small_network):
        config = SimulationConfig(min_trip_distance=300.0, min_dense_points=8)
        trips = simulate_trips(small_network, config, 4, seed=9)
        samples = sparsify_trips(trips, 0.2, seed=1)
        assert len(samples) == 4


class TestDatasets:
    def test_registry_names(self):
        assert set(DATASET_NAMES) == {"PT", "XA", "BJ", "CD"}
        for name, config in DATASET_CONFIGS.items():
            assert config.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            build_dataset("NYC")

    def test_split_sizes(self, tiny_dataset):
        total = len(tiny_dataset.train) + len(tiny_dataset.val) + len(tiny_dataset.test)
        assert total == 24
        assert len(tiny_dataset.train) == pytest.approx(24 * 0.4, abs=1)

    def test_statistics_keys(self, tiny_dataset):
        stats = tiny_dataset.statistics()
        assert stats["n_trajectories"] == 24
        assert stats["epsilon_s"] == 15.0
        assert stats["n_segments"] > 100

    def test_network_carries_attributes(self, tiny_dataset):
        assert tiny_dataset.network.signalized_nodes is not None
        assert tiny_dataset.network.speed_factors is not None

    def test_with_gamma_resparsifies(self, tiny_dataset):
        denser = tiny_dataset.with_gamma(0.5)
        assert denser.gamma == 0.5
        n_before = sum(len(s.sparse) for s in tiny_dataset.test)
        n_after = sum(len(s.sparse) for s in denser.test)
        assert n_after > n_before
        # Dense ground truth unchanged.
        assert len(denser.test[0].dense) == len(tiny_dataset.test[0].dense)

    def test_with_training_fraction(self, tiny_dataset):
        half = tiny_dataset.with_training_fraction(0.5)
        assert len(half.train) == max(1, round(len(tiny_dataset.train) * 0.5))
        assert len(half.test) == len(tiny_dataset.test)

    def test_training_fraction_bounds(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.with_training_fraction(0.0)

    def test_transition_statistics_from_training_routes(self, tiny_dataset):
        stats = tiny_dataset.transition_statistics()
        assert stats.observed_transitions() > 0

    def test_deterministic_rebuild(self):
        a = build_dataset("PT", n_trips=10, seed=123)
        b = build_dataset("PT", n_trips=10, seed=123)
        assert len(a.train[0].sparse) == len(b.train[0].sparse)
        assert a.train[0].route == b.train[0].route
