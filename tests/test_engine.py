"""Execution-engine tests: worker spec, dispatch, parity, fault recovery.

The parallel engine's contract is that it is a pure throughput optimisation
— every output must be bit-exact with the serial batched path regardless of
worker count, chunking, crashes or retries.
"""

from __future__ import annotations

import pickle

import pytest

from repro.config import EngineConfig
from repro.data.datasets import build_dataset
from repro.engine import ParallelEngine, SerialEngine, build_engine
from repro.engine import parallel as parallel_module
from repro.engine.payload import (
    pack_matched,
    pack_trajectories,
    unpack_matched,
    unpack_trajectories,
)
from repro.engine.spec import build_worker_runtime, build_worker_spec
from repro.matching import NearestMatcher
from repro.matching.mma.matcher import MMAMatcher
from repro.network.node2vec import Node2VecConfig
from repro.recovery.trmma.recoverer import TRMMARecoverer

TINY_N2V = Node2VecConfig(
    dimensions=16, walk_length=8, walks_per_node=2, window=3, negatives=2,
    epochs=1,
)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("PT", n_trips=16, seed=13)


@pytest.fixture(scope="module")
def trained(dataset):
    matcher = MMAMatcher(
        dataset.network, d0=16, d2=16, ffn_hidden=32,
        node2vec_config=TINY_N2V, seed=5,
    )
    matcher.fit_epoch(dataset)
    recoverer = TRMMARecoverer(
        dataset.network, matcher, d_h=16, ffn_hidden=32, seed=2
    )
    recoverer.fit_epoch(dataset)
    return matcher, recoverer


@pytest.fixture(scope="module")
def trajectories(dataset):
    return [s.sparse for s in dataset.test] + [s.sparse for s in dataset.val]


def assert_recovered_equal(a, b):
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert len(ta.points) == len(tb.points)
        for pa, pb in zip(ta.points, tb.points):
            assert (pa.edge_id, pa.ratio, pa.t) == (pb.edge_id, pb.ratio, pb.t)


# ------------------------------------------------------- payload and spec


def test_payload_roundtrip(trajectories, trained, dataset):
    packed = pack_trajectories(trajectories)
    unpacked = unpack_trajectories(packed)
    assert len(unpacked) == len(trajectories)
    for original, rebuilt in zip(trajectories, unpacked):
        assert len(original) == len(rebuilt)
        for p, q in zip(original, rebuilt):
            assert (p.x, p.y, p.t, p.lat, p.lng) == (q.x, q.y, q.t, q.lat, q.lng)

    _, recoverer = trained
    recovered = recoverer.recover_many(
        trajectories[:4], dataset.epsilon, batch_size=4
    )
    assert_recovered_equal(unpack_matched(pack_matched(recovered)), recovered)

    assert unpack_trajectories(pack_trajectories([])) == []
    assert unpack_matched(pack_matched([])) == []


def test_worker_runtime_is_bit_exact(trained, trajectories, dataset):
    matcher, recoverer = trained
    spec = build_worker_spec(matcher, recoverer)
    subset = trajectories[:6]
    # A forked worker inherits the spec; a spawned one unpickles it.
    for received in (spec, pickle.loads(pickle.dumps(spec))):
        runtime = build_worker_runtime(received)
        assert runtime.matcher.match_points_many(
            subset, batch_size=4
        ) == matcher.match_points_many(subset, batch_size=4)
        assert runtime.matcher.match_many(
            subset, batch_size=4
        ) == matcher.match_many(subset, batch_size=4)
        assert_recovered_equal(
            runtime.recoverer.recover_many(subset, dataset.epsilon, batch_size=4),
            recoverer.recover_many(subset, dataset.epsilon, batch_size=4),
        )


# ------------------------------------------------------- parallel dispatch


def engine_pair(trained, **overrides):
    matcher, recoverer = trained
    settings = dict(engine="parallel", workers=2, chunk_size=3, batch_size=8)
    config = EngineConfig(**{**settings, **overrides})
    return (
        SerialEngine(matcher, recoverer, config),
        ParallelEngine(matcher, recoverer, config),
    )


def test_parallel_matches_serial(trained, trajectories, dataset):
    serial, parallel = engine_pair(trained)
    with parallel:
        parallel.warm_up()
        assert parallel.workers == 2
        assert parallel.match_points(trajectories) == serial.match_points(
            trajectories
        )
        assert parallel.match(trajectories) == serial.match(trajectories)
        assert_recovered_equal(
            parallel.recover(trajectories, dataset.epsilon),
            serial.recover(trajectories, dataset.epsilon),
        )
        p_routes, p_dense = parallel.match_and_recover(
            trajectories, dataset.epsilon
        )
        s_routes, s_dense = serial.match_and_recover(
            trajectories, dataset.epsilon
        )
        assert p_routes == s_routes
        assert_recovered_equal(p_dense, s_dense)


def test_spawned_workers_match_serial(trained, trajectories, dataset):
    """A spawned worker gets its spec by pickle, not by fork inheritance."""
    serial, parallel = engine_pair(trained, start_method="spawn", workers=1)
    with parallel:
        parallel.warm_up()
        assert len(parallel._workers) == 1
        routes, dense = parallel.match_and_recover(trajectories, dataset.epsilon)
        s_routes, s_dense = serial.match_and_recover(
            trajectories, dataset.epsilon
        )
        assert routes == s_routes
        assert_recovered_equal(dense, s_dense)


def test_requests_split_into_one_share_per_live_worker(
    trained, trajectories, monkeypatch
):
    sizes = []
    pack = parallel_module.pack_trajectories

    def spy(chunk):
        sizes.append(len(chunk))
        return pack(chunk)

    monkeypatch.setattr(parallel_module, "pack_trajectories", spy)
    serial, parallel = engine_pair(trained)  # 2 workers, chunk_size 3
    requests = (trajectories * 2)[:10]
    with parallel:
        parallel.warm_up()
        assert parallel.match(requests) == serial.match(requests)
        assert sizes == [5, 5]
        sizes.clear()
        assert parallel.match(requests[:4]) == serial.match(requests[:4])
        assert sizes == [3, 1]  # chunk_size is the smallest share
        sizes.clear()
        lost = parallel._workers[1].process
        lost.kill()
        lost.join()
        assert parallel.match(requests) == serial.match(requests)
        assert sizes == [10]  # one survivor, one share
        assert list(parallel._workers) == [0]


def test_worker_crash_triggers_retry(trained, trajectories, dataset):
    matcher, recoverer = trained
    config = EngineConfig(engine="parallel", workers=2, chunk_size=3, batch_size=8)
    serial = SerialEngine(matcher, recoverer, config)
    # Worker 0 dies on the first chunk: the chunk must be retried on the
    # surviving pool and the final outputs stay bit-exact.
    with ParallelEngine(
        matcher, recoverer, config, fault_crashes=((0, 0),)
    ) as parallel:
        assert_recovered_equal(
            parallel.recover(trajectories, dataset.epsilon),
            serial.recover(trajectories, dataset.epsilon),
        )
        assert len(parallel._workers) == 1  # the crashed worker is discarded


def test_all_workers_dead_falls_back_inline(trained, trajectories, dataset):
    matcher, recoverer = trained
    config = EngineConfig(engine="parallel", workers=2, chunk_size=3, batch_size=8)
    serial = SerialEngine(matcher, recoverer, config)
    with ParallelEngine(
        matcher, recoverer, config, fault_crashes=((0, 0), (1, 1))
    ) as parallel:
        assert_recovered_equal(
            parallel.recover(trajectories, dataset.epsilon),
            serial.recover(trajectories, dataset.epsilon),
        )
        assert not parallel._workers  # whole pool lost, chunks ran inline


def test_task_errors_propagate(trained, trajectories):
    matcher, _ = trained
    config = EngineConfig(engine="parallel", workers=1, chunk_size=4)
    with ParallelEngine(matcher, config=config) as parallel:
        with pytest.raises(ValueError, match="without a recoverer"):
            parallel.recover(trajectories[:4], 50.0)


# ----------------------------------------------------------- engine choice


def test_build_engine_selection(trained, monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    matcher, recoverer = trained
    engine = build_engine(matcher, recoverer, EngineConfig(engine="serial"))
    assert isinstance(engine, SerialEngine)
    engine = build_engine(matcher, recoverer, EngineConfig(engine="auto"))
    assert isinstance(engine, SerialEngine)  # workers defaults to 0
    with build_engine(
        matcher, recoverer, EngineConfig(engine="parallel", workers=1)
    ) as engine:
        assert isinstance(engine, ParallelEngine)
        assert engine.workers == 1


def test_build_engine_requires_mma_for_parallel(dataset):
    engine = build_engine(
        NearestMatcher(dataset.network),
        config=EngineConfig(engine="parallel", workers=2),
    )
    assert isinstance(engine, SerialEngine)


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert EngineConfig().resolve_workers() == 3
    monkeypatch.setenv("REPRO_WORKERS", "junk")
    with pytest.raises(ValueError, match="REPRO_WORKERS"):
        EngineConfig()
