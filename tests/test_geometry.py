"""Geometry: projections, segment math, directional features."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.points import (
    LocalProjection,
    bearing,
    cosine_similarity,
    euclidean,
    haversine_m,
    interpolate,
)
from repro.geometry.segments import (
    SegmentGeometry,
    directional_features,
    point_segment_distance,
    project_ratio,
)

coords = st.floats(-1000.0, 1000.0)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_m(41.15, -8.62, 41.15, -8.62) == 0.0

    def test_known_degree_of_latitude(self):
        # One degree of latitude is ~111.2 km everywhere.
        d = haversine_m(40.0, 0.0, 41.0, 0.0)
        assert 110_000 < d < 112_500

    def test_symmetry(self):
        a = haversine_m(41.0, -8.0, 41.1, -8.1)
        b = haversine_m(41.1, -8.1, 41.0, -8.0)
        assert a == pytest.approx(b)


class TestLocalProjection:
    @given(
        lat=st.floats(40.0, 42.0), lng=st.floats(-9.0, -7.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, lat, lng):
        proj = LocalProjection(41.0, -8.0)
        x, y = proj.to_xy(lat, lng)
        lat2, lng2 = proj.to_latlng(x, y)
        assert lat2 == pytest.approx(lat, abs=1e-9)
        assert lng2 == pytest.approx(lng, abs=1e-9)

    def test_matches_haversine_locally(self):
        proj = LocalProjection(41.0, -8.0)
        x, y = proj.to_xy(41.01, -8.01)
        planar = math.hypot(x, y)
        geodesic = haversine_m(41.0, -8.0, 41.01, -8.01)
        assert planar == pytest.approx(geodesic, rel=5e-3)

    def test_vectorised_matches_scalar(self):
        proj = LocalProjection(41.0, -8.0)
        latlng = np.array([[41.01, -8.02], [40.99, -7.98]])
        xy = proj.to_xy_array(latlng)
        for row, (lat, lng) in zip(xy, latlng):
            assert tuple(row) == pytest.approx(proj.to_xy(lat, lng))


class TestVectorHelpers:
    def test_euclidean(self):
        assert euclidean((0, 0), (3, 4)) == 5.0

    def test_cosine_parallel(self):
        assert cosine_similarity((1, 0), (2, 0)) == pytest.approx(1.0)

    def test_cosine_antiparallel(self):
        assert cosine_similarity((1, 0), (-3, 0)) == pytest.approx(-1.0)

    def test_cosine_orthogonal(self):
        assert cosine_similarity((1, 0), (0, 5)) == pytest.approx(0.0)

    def test_cosine_zero_vector_convention(self):
        assert cosine_similarity((0, 0), (1, 1)) == 0.0

    def test_interpolate_midpoint(self):
        assert interpolate((0, 0), (10, 20), 0.5) == (5.0, 10.0)

    def test_bearing_east(self):
        assert bearing((0, 0), (1, 0)) == pytest.approx(0.0)

    def test_bearing_north(self):
        assert bearing((0, 0), (0, 1)) == pytest.approx(math.pi / 2)


class TestSegmentGeometry:
    def test_length(self):
        seg = SegmentGeometry(0, 0, 3, 4)
        assert seg.length == 5.0

    def test_direction_unit(self):
        seg = SegmentGeometry(0, 0, 10, 0)
        assert seg.direction == (1.0, 0.0)

    def test_degenerate_direction(self):
        seg = SegmentGeometry(1, 1, 1, 1)
        assert seg.direction == (0.0, 0.0)

    def test_point_at(self):
        seg = SegmentGeometry(0, 0, 10, 0)
        assert seg.point_at(0.3) == (3.0, 0.0)


class TestProjection:
    def test_interior_projection(self):
        seg = SegmentGeometry(0, 0, 10, 0)
        assert project_ratio(seg, 4.0, 3.0) == pytest.approx(0.4)

    def test_clamp_before_entrance(self):
        seg = SegmentGeometry(0, 0, 10, 0)
        assert project_ratio(seg, -5.0, 1.0) == 0.0

    def test_clamp_after_exit_stays_below_one(self):
        seg = SegmentGeometry(0, 0, 10, 0)
        r = project_ratio(seg, 25.0, 1.0)
        assert r < 1.0
        assert r == pytest.approx(1.0)

    def test_distance_perpendicular(self):
        seg = SegmentGeometry(0, 0, 10, 0)
        assert point_segment_distance(seg, 5.0, 7.0) == pytest.approx(7.0)

    def test_distance_to_endpoint(self):
        seg = SegmentGeometry(0, 0, 10, 0)
        assert point_segment_distance(seg, 13.0, 4.0) == pytest.approx(5.0)

    @given(
        ax=coords, ay=coords, bx=coords, by=coords, px=coords, py=coords
    )
    @settings(max_examples=100, deadline=None)
    def test_projected_point_is_closest_on_segment(self, ax, ay, bx, by, px, py):
        seg = SegmentGeometry(ax, ay, bx, by)
        d = point_segment_distance(seg, px, py)
        # No sampled point on the segment may be closer than the projection.
        for t in np.linspace(0, 1, 11):
            x, y = seg.point_at(t)
            assert d <= math.hypot(px - x, py - y) + 1e-6


class TestDirectionalFeatures:
    def test_point_on_forward_heading(self):
        seg = SegmentGeometry(0, 0, 100, 0)
        f = directional_features(
            seg, (50.0, 0.0), prev_point=(0.0, 0.0), next_point=(100.0, 0.0)
        )
        # Travelling along the segment: all four similarities are +1.
        assert all(v == pytest.approx(1.0) for v in f)

    def test_reverse_heading_flips_travel_features(self):
        seg = SegmentGeometry(0, 0, 100, 0)
        f = directional_features(
            seg, (50.0, 0.0), prev_point=(100.0, 0.0), next_point=(0.0, 0.0)
        )
        assert f[2] == pytest.approx(-1.0)
        assert f[3] == pytest.approx(-1.0)

    def test_boundary_slots_are_zero(self):
        seg = SegmentGeometry(0, 0, 100, 0)
        f = directional_features(seg, (50.0, 5.0))
        assert f[2] == 0.0 and f[3] == 0.0

    def test_twin_segments_get_mirrored_features(self):
        seg = SegmentGeometry(0, 0, 100, 0)
        twin = SegmentGeometry(100, 0, 0, 0)
        f = directional_features(seg, (50.0, 1.0), prev_point=(0.0, 1.0))
        g = directional_features(twin, (50.0, 1.0), prev_point=(0.0, 1.0))
        assert f[2] == pytest.approx(-g[2])
