"""Parity tests for the batch-first inference/training paths.

Every batched path (bulk k-NN, vectorised candidate sets and feature
encoding, stacked model forward, batched matching/recovery, training) must
return exactly what a per-sample oracle returns — batching is a pure perf
optimisation, never a semantic change.  The MMA oracles live in
``tests/mma_oracles.py``, the decode oracle in this file.  Plus unit tests
for the LRU caches backing route memoisation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.config import MMAConfig, TRMMAConfig
from repro.data.datasets import build_dataset
from repro.data.trajectory import MapMatchedPoint, MatchedTrajectory, Trajectory
from repro.matching import FMMMatcher
from repro.matching.base import reproject_onto_route
from repro.matching.mma.candidates import candidate_sets_batch
from repro.matching.mma.features import MMAFeatureEncoder, stack_encoded
from repro.matching.mma.matcher import (
    MAX_POINTS_PER_FORWARD,
    MMAMatcher,
    _length_buckets,
)
from repro.network.cache import LRUCache
from repro.network.node2vec import Node2VecConfig
from repro.network.routing import DARoutePlanner
from repro.nn import bce_with_logits
from repro.nn.tensor import Tensor, concat, no_grad, softmax
from repro.recovery.base import missing_point_counts
from repro.recovery.route_utils import (
    route_cumulative_lengths,
    route_index_of_segments,
)
from repro.recovery.trmma.encoder import build_point_features, route_attributes
from repro.recovery.trmma.recoverer import TRMMARecoverer
from repro.spatial.grid import UniformGrid
from repro.spatial.rtree import STRtree

from . import mma_oracles as oracle

TINY_N2V = Node2VecConfig(
    dimensions=16, walk_length=8, walks_per_node=2, window=3, negatives=2,
    epochs=1,
)
TINY_MMA = MMAConfig(d0=16, d2=16, ffn_hidden=32, node2vec=TINY_N2V)
TINY_TRMMA = TRMMAConfig(d_h=16, ffn_hidden=32)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("PT", n_trips=16, seed=13)


@pytest.fixture(scope="module")
def trained_matcher(dataset):
    matcher = MMAMatcher(dataset.network, TINY_MMA, seed=5)
    matcher.fit_epoch(dataset)
    return matcher


# ------------------------------------------------------------- bulk k-NN


def _random_boxes(rng, n):
    centers = rng.uniform(0.0, 1000.0, size=(n, 2))
    sizes = rng.uniform(1.0, 60.0, size=(n, 2))
    return [
        (cx - w, cy - h, cx + w, cy + h)
        for (cx, cy), (w, h) in zip(centers, sizes)
    ]


@pytest.mark.parametrize("k", [1, 3, 7])
def test_rtree_nearest_batch_matches_sequential(k):
    rng = np.random.default_rng(21)
    tree = STRtree(_random_boxes(rng, 120))
    xs = rng.uniform(-100.0, 1100.0, size=40)
    ys = rng.uniform(-100.0, 1100.0, size=40)
    batch = tree.nearest_batch(xs, ys, k=k)
    for x, y, hits in zip(xs, ys, batch):
        assert hits == tree.nearest(float(x), float(y), k=k)


@pytest.mark.parametrize("k", [1, 4])
def test_grid_nearest_batch_matches_sequential(k):
    rng = np.random.default_rng(8)
    grid = UniformGrid(_random_boxes(rng, 80), cell_size=200.0)
    xs = rng.uniform(0.0, 1000.0, size=25)
    ys = rng.uniform(0.0, 1000.0, size=25)
    batch = grid.nearest_batch(xs, ys, k=k)
    for x, y, hits in zip(xs, ys, batch):
        assert hits == grid.nearest(float(x), float(y), k=k)


def test_nearest_batch_respects_max_distance():
    rng = np.random.default_rng(3)
    tree = STRtree(_random_boxes(rng, 60))
    xs = rng.uniform(0.0, 1000.0, size=10)
    ys = rng.uniform(0.0, 1000.0, size=10)
    batch = tree.nearest_batch(xs, ys, k=5, max_distance=50.0)
    for x, y, hits in zip(xs, ys, batch):
        assert hits == tree.nearest(float(x), float(y), k=5, max_distance=50.0)
        assert all(d <= 50.0 for _, d in hits)


def test_network_nearest_segments_batch(small_network):
    rng = np.random.default_rng(17)
    xmin, ymin, xmax, ymax = small_network.bounding_box()
    n = 2 * small_network.KNN_CHUNK + 5  # crosses the query-block boundaries
    xy = np.column_stack(
        [
            rng.uniform(xmin - 50, xmax + 50, size=n),
            rng.uniform(ymin - 50, ymax + 50, size=n),
        ]
    )
    batch = small_network.nearest_segments_batch(xy, k=10)
    for (x, y), hits in zip(xy, batch):
        assert hits == small_network.nearest_segments(float(x), float(y), k=10)


# -------------------------------------------------- candidates & features


def test_candidate_sets_batch_matches_sequential(dataset):
    trajectories = [s.sparse for s in dataset.test]
    batch = candidate_sets_batch(dataset.network, trajectories, 10)
    for trajectory, sets in zip(trajectories, batch):
        assert sets == oracle.candidate_sets(dataset.network, trajectory, 10)


def test_candidate_sets_pads_to_kc(square_network, dataset):
    trajectory = dataset.test[0].sparse
    (sets,) = candidate_sets_batch(square_network, [trajectory], k_c=20)
    assert sets == oracle.candidate_sets(square_network, trajectory, 20)
    for hits in sets:
        assert len(hits) == 20
        # 8 real segments, then the last candidate repeated.
        assert hits[8:] == [hits[7]] * 12


def test_empty_network_error_names_point_index(dataset):
    from repro.network.road_network import RoadNetwork

    empty = RoadNetwork(np.array([[0.0, 0.0], [1.0, 1.0]]), [])
    trajectory = dataset.test[0].sparse
    with pytest.raises(RuntimeError, match="GPS point 0"):
        candidate_sets_batch(empty, [trajectory], 10)


def test_encode_matches_reference(dataset):
    encoder = MMAFeatureEncoder(dataset.network, k_c=10)
    for sample in dataset.test[:4]:
        (fast,) = encoder.encode_batch([sample.sparse])
        ref = oracle.encode_reference(encoder, sample.sparse)
        assert (fast.candidate_ids == ref.candidate_ids).all()
        assert (fast.candidate_distances == ref.candidate_distances).all()
        assert (fast.point_features == ref.point_features).all()
        # math.hypot vs np.hypot may differ in the last ulp.
        np.testing.assert_allclose(
            fast.candidate_directions, ref.candidate_directions,
            rtol=1e-12, atol=1e-12,
        )


def test_encode_batch_matches_encode(dataset):
    encoder = MMAFeatureEncoder(dataset.network, k_c=10)
    trajectories = [s.sparse for s in dataset.test]
    batch = encoder.encode_batch(trajectories)
    for trajectory, fast in zip(trajectories, batch):
        (single,) = encoder.encode_batch([trajectory])
        assert (fast.candidate_ids == single.candidate_ids).all()
        assert (fast.candidate_directions == single.candidate_directions).all()
        assert (fast.candidate_distances == single.candidate_distances).all()
        assert (fast.point_features == single.point_features).all()


def test_stack_encoded_rejects_mixed_lengths(dataset):
    encoder = MMAFeatureEncoder(dataset.network, k_c=5)
    encoded = encoder.encode_batch([s.sparse for s in dataset.test])
    by_length = _length_buckets([e.length for e in encoded])
    mixed = [encoded[bucket[0]] for bucket in by_length[:2]]
    if len(mixed) == 2 and mixed[0].length != mixed[1].length:
        with pytest.raises(ValueError, match="mixed lengths"):
            stack_encoded(mixed)


# --------------------------------------------------------- batched model


def test_forward_batch_bitwise_identical(trained_matcher, dataset):
    encoder = trained_matcher.encoder
    encoded = encoder.encode_batch([s.sparse for s in dataset.test])
    checked = 0
    with no_grad():
        for indices in _length_buckets([e.length for e in encoded]):
            if len(indices) < 2:
                continue
            batch = stack_encoded([encoded[i] for i in indices])
            batched = trained_matcher.model(batch).data
            for row, i in enumerate(indices):
                single = oracle.forward(trained_matcher.model, encoded[i]).data
                assert (batched[row] == single).all()
            checked += 1
    assert checked > 0


def test_match_points_many_identical(trained_matcher, dataset):
    trajectories = [s.sparse for s in dataset.test] + [
        s.sparse for s in dataset.val
    ]
    sequential = [oracle.match_points(trained_matcher, t) for t in trajectories]
    assert [trained_matcher.match_points(t) for t in trajectories] == sequential
    for batch_size in (1, 3, 32):
        assert (
            trained_matcher.match_points_many(trajectories, batch_size=batch_size)
            == sequential
        )


def test_match_points_many_caps_points_per_forward(
    trained_matcher, dataset, monkeypatch
):
    trajectories = [s.sparse for s in dataset.test] + [
        s.sparse for s in dataset.val
    ]
    trajectories = trajectories * 8  # same-length buckets above the cap
    sequential = [oracle.match_points(trained_matcher, t) for t in trajectories]
    shapes = []
    predict = trained_matcher.model.predict_segments_batch

    def spy(batch):
        shapes.append(batch.candidate_ids.shape[:2])
        return predict(batch)

    monkeypatch.setattr(trained_matcher.model, "predict_segments_batch", spy)
    assert (
        trained_matcher.match_points_many(trajectories, batch_size=64)
        == sequential
    )
    assert any(b > 1 for b, _ in shapes)
    assert len(shapes) > len({length for _, length in shapes})  # cap splits
    for b, length in shapes:
        assert b * length <= max(MAX_POINTS_PER_FORWARD, length)


def test_match_many_identical(trained_matcher, dataset):
    trajectories = [s.sparse for s in dataset.test]
    sequential = [
        trained_matcher.stitch(oracle.match_points(trained_matcher, t))
        for t in trajectories
    ]
    assert [trained_matcher.match(t) for t in trajectories] == sequential
    assert trained_matcher.match_many(trajectories, batch_size=4) == sequential


def test_fit_epoch_matches_per_sample_oracle(dataset):
    """MMA training (Eq. 10): ``fit_epoch``, which scores each trajectory
    as a batch of one, takes exactly the per-sample oracle's steps."""
    matcher = MMAMatcher(dataset.network, TINY_MMA, seed=9)
    reference = MMAMatcher(dataset.network, TINY_MMA, seed=9)
    model, optimizer = reference.model, reference.optimizer
    for _ in range(2):
        loss = matcher.fit_epoch(dataset)
        model.train()
        losses = []
        for sample in dataset.train:
            (encoded,) = reference.encoder.encode_batch([sample.sparse])
            labels = reference.encoder.labels(encoded, sample.gt_segments)
            step_loss = bce_with_logits(oracle.forward(model, encoded), labels)
            optimizer.zero_grad()
            step_loss.backward()
            optimizer.step()
            losses.append(step_loss.item())
        assert loss.hex() == (sum(losses) / len(losses)).hex()
    state, expected = matcher.model.state_dict(), model.state_dict()
    assert state.keys() == expected.keys()
    for name in state:
        np.testing.assert_array_equal(state[name], expected[name])


def test_recover_many_identical(trained_matcher, dataset):
    recoverer = TRMMARecoverer(dataset.network, trained_matcher, TINY_TRMMA, seed=2)
    recoverer.fit_epoch(dataset)
    trajectories = [s.sparse for s in dataset.test]
    sequential = [recoverer.recover(t, dataset.epsilon) for t in trajectories]
    batched = recoverer.recover_many(trajectories, dataset.epsilon, batch_size=4)
    assert len(sequential) == len(batched)
    for a, b in zip(sequential, batched):
        assert len(a.points) == len(b.points)
        for pa, pb in zip(a.points, b.points):
            assert (pa.edge_id, pa.ratio, pa.t) == (pb.edge_id, pb.ratio, pb.t)


# ------------------------------------------- per-trajectory decode oracle


def decode_per_trajectory(model, network, trajectory, observed, route, epsilon):
    """Greedy recovery (Algorithm 2) of one trajectory, one missing point at
    a time, with unstacked (1, d_h) hidden states and 2-D layer calls: the
    reference the lock-step batched decode must reproduce bit-for-bit."""
    encoder, decoder = model.encoder, model.decoder
    d_h = decoder.d_h
    features = build_point_features(network, trajectory, observed)
    t_repr = encoder.encode_trajectory(
        features, np.asarray([a.edge_id for a in observed])
    )
    r_repr = encoder.encode_route(
        np.asarray(route), route_attributes(network, route)
    )
    fused = encoder.fuse(t_repr, r_repr)
    l_route = len(route)
    route_cum = route_cumulative_lengths(network, route)
    mids = (route_cum[:-1] + route_cum[1:]) / 2.0
    total = max(float(route_cum[-1]), 1.0)

    def step(hidden, expected, lower, upper):
        signed = (mids - expected) / total
        bump = np.exp(-((mids - expected) / model.PRIOR_BANDWIDTH_M) ** 2)
        priors = np.stack([signed, np.abs(signed), bump], axis=1)
        tiled = hidden.reshape(1, d_h) * Tensor(np.ones((l_route, 1)))
        pair = concat([fused, tiled, Tensor(priors)], axis=-1)
        scores = decoder.classifier(pair).reshape(l_route)
        masked = np.full(l_route, -np.inf)
        masked[lower : upper + 1] = scores.data[lower : upper + 1]
        idx = int(masked.argmax())
        length = max(float(route_cum[idx + 1] - route_cum[idx]), 1e-9)
        prior = (expected - float(route_cum[idx])) / length
        prior = float(np.clip(prior, 0.0, np.nextafter(1.0, 0.0)))
        psi = softmax(scores, axis=-1).reshape(1, l_route)
        readout = psi.matmul(fused).reshape(d_h)
        pair = concat(
            [hidden.reshape(d_h), readout, Tensor(np.array([prior]))], axis=-1
        )
        raw = decoder.ratio_head(pair.reshape(1, 2 * d_h + 1))
        ratio = float(
            (raw.tanh().reshape(1) * decoder.MAX_RATIO_CORRECTION + prior).data[0]
        )
        return idx, min(max(ratio, 0.0), np.nextafter(1.0, 0.0))

    def advance(hidden, idx, ratio, t_norm):
        extras = Tensor(np.array([[ratio, t_norm]]))
        x = concat([fused[idx].reshape(1, d_h), extras], axis=-1)
        return decoder.gru(x, hidden)

    indices = route_index_of_segments(route, [a.edge_id for a in observed])
    offsets = [
        route_cum[i] + a.ratio * (route_cum[i + 1] - route_cum[i])
        for i, a in zip(indices, observed)
    ]
    start_t = observed[0].t
    horizon = max(observed[-1].t - start_t, 1.0)
    hidden = advance(
        fused.mean(axis=0).reshape(1, d_h), indices[0], observed[0].ratio, 0.0
    )
    points = [observed[0]]
    for i, n_missing in enumerate(missing_point_counts(trajectory, epsilon)):
        t0, t1 = observed[i].t, observed[i + 1].t
        span = max(t1 - t0, 1e-9)
        prev_idx, upper = indices[i], max(indices[i + 1], indices[i])
        for j in range(1, n_missing + 1):
            t = t0 + j * epsilon
            expected = offsets[i] + (t - t0) / span * (offsets[i + 1] - offsets[i])
            prev_idx, ratio = step(hidden, expected, prev_idx, upper)
            points.append(
                MapMatchedPoint(edge_id=int(route[prev_idx]), ratio=ratio, t=t)
            )
            hidden = advance(hidden, prev_idx, ratio, (t - start_t) / horizon)
        points.append(observed[i + 1])
        hidden = advance(
            hidden, indices[i + 1], observed[i + 1].ratio,
            (observed[i + 1].t - start_t) / horizon,
        )
    return MatchedTrajectory(points)


def _decode_inputs(recoverer, trajectories):
    """Observed points and routes per trajectory, point by point (MMA
    through its per-sample oracle)."""
    matcher, network = recoverer.matcher, recoverer.network
    observed, routes = [], []
    for trajectory in trajectories:
        if isinstance(matcher, MMAMatcher):
            segments = oracle.match_points(matcher, trajectory)
        else:
            segments = matcher.match_points(trajectory)
        matched = [
            MapMatchedPoint(
                edge_id=e, ratio=network.project_onto(e, p.x, p.y), t=p.t
            )
            for p, e in zip(trajectory, segments)
        ]
        route = matcher.stitch(segments)
        observed.append(
            reproject_onto_route(recoverer.network, trajectory, matched, route)
        )
        routes.append(route)
    return observed, routes


def _points(recovered):
    return [(p.edge_id, p.ratio, p.t) for p in recovered.points]


@pytest.mark.parametrize(
    "config",
    [TINY_TRMMA, TRMMAConfig()],
    ids=["d_h16", "defaults"],
)
def test_lockstep_decode_matches_per_trajectory_oracle(
    trained_matcher, dataset, config
):
    """At the default widths a row's GRU input is 2 * 64 + 2 = 130 wide,
    where one flat (b, K) GEMM would round differently from b per-row
    (1, K) slices; the (b, 1, K) stacks and route-length buckets must
    keep every row bit-identical to the oracle."""
    recoverer = TRMMARecoverer(dataset.network, trained_matcher, config, seed=2)
    recoverer.fit_epoch(dataset)
    base = [s.sparse for s in dataset.test + dataset.val]
    first, second, *rest = base[1].points
    # A point 1 s after the first one: a gap with zero missing points.
    no_missing = Trajectory([first, replace(second, t=first.t + 1.0), second, *rest])
    trajectories = base + [Trajectory(base[0].points[:2]), no_missing]
    observed, routes = _decode_inputs(recoverer, trajectories)
    epsilon = dataset.epsilon

    route_lengths = Counter(len(route) for route in routes)
    assert len(route_lengths) > 1 and 1 in route_lengths.values()
    assert 0 in missing_point_counts(no_missing, epsilon)
    assert len(trajectories[-2]) == 2

    model, network = recoverer.model, dataset.network
    with no_grad():
        oracle = [
            decode_per_trajectory(model, network, *inputs, epsilon)
            for inputs in zip(trajectories, observed, routes)
        ]
        batched = model.decode(network, trajectories, observed, routes, epsilon)
        (alone,) = model.decode(
            network, trajectories[:1], observed[:1], routes[:1], epsilon
        )
        many = recoverer.recover_many(trajectories, epsilon)
    expected = [_points(m) for m in oracle]
    assert [_points(m) for m in batched] == expected
    assert _points(alone) == expected[0]
    assert [_points(m) for m in many] == expected


def test_lockstep_decode_builds_few_tensors(tiny_dataset, monkeypatch):
    """Lock-step decoding amortises the per-step graph over the batch: a
    deterministic guard against a per-trajectory loop creeping back."""
    recoverer = TRMMARecoverer(
        tiny_dataset.network, FMMMatcher(tiny_dataset.network), TINY_TRMMA,
        seed=0,
    )
    trajectories = [
        s.sparse for s in tiny_dataset.train + tiny_dataset.val + tiny_dataset.test
    ]
    observed, routes = _decode_inputs(recoverer, trajectories)
    created = [0]
    init = Tensor.__init__

    def counted(self, *args, **kwargs):
        created[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted)
    with no_grad():
        for inputs in zip(trajectories, observed, routes):
            decode_per_trajectory(
                recoverer.model, tiny_dataset.network, *inputs,
                tiny_dataset.epsilon,
            )
    per_trajectory, created[0] = created[0], 0
    recoverer.recover_many(trajectories, tiny_dataset.epsilon)
    assert created[0] * 5 <= per_trajectory

# ------------------------------------------------------- parallel engine


def test_parallel_engine_identical_to_sequential(trained_matcher, dataset):
    """The full chain: per-sample == batched == sharded across processes.

    Chunking across workers only changes batch composition, which the
    invariants above guarantee is output-neutral; this closes the loop by
    comparing the parallel engine straight against the per-sample path.
    """
    from repro.config import EngineConfig
    from repro.engine import ParallelEngine

    recoverer = TRMMARecoverer(dataset.network, trained_matcher, TINY_TRMMA, seed=2)
    recoverer.fit_epoch(dataset)
    trajectories = [s.sparse for s in dataset.test]
    sequential_routes = [
        trained_matcher.stitch(oracle.match_points(trained_matcher, t))
        for t in trajectories
    ]
    sequential_dense = [
        recoverer.recover(t, dataset.epsilon) for t in trajectories
    ]
    config = EngineConfig(
        engine="parallel", workers=2, chunk_size=2, batch_size=4
    )
    with ParallelEngine(trained_matcher, recoverer, config) as engine:
        assert engine.match(trajectories) == sequential_routes
        parallel_dense = engine.recover(trajectories, dataset.epsilon)
    assert len(parallel_dense) == len(sequential_dense)
    for a, b in zip(sequential_dense, parallel_dense):
        assert len(a.points) == len(b.points)
        for pa, pb in zip(a.points, b.points):
            assert (pa.edge_id, pa.ratio, pa.t) == (pb.edge_id, pb.ratio, pb.t)


# -------------------------------------------------------------- LRU cache


def test_lru_cache_hits_and_misses():
    cache = LRUCache(capacity=10)
    assert cache.get("a") is None
    cache.put("a", 1)
    assert cache.get("a") == 1
    info = cache.info()
    assert info.hits == 1 and info.misses == 1
    assert info.hit_rate == 0.5


def test_lru_cache_evicts_least_recent():
    cache = LRUCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # refresh "a": now "b" is least recently used
    cache.put("c", 3)
    assert "a" in cache and "c" in cache
    assert "b" not in cache
    assert len(cache) == 2


def test_planner_route_cache(square_network):
    planner = DARoutePlanner(square_network)
    first = planner.plan(0, 7)
    assert planner.cache_info().hits == 0
    second = planner.plan(0, 7)
    assert second == first
    assert planner.cache_info().hits == 1
    assert planner.cache_info().hit_rate > 0.0
    # cached copies must be independent
    second.append(99)
    assert planner.plan(0, 7) == first
