"""Pipeline facade + typed-config tests.

The facade must be a pure re-packaging: a Pipeline built from a config is
bit-identical to the hand-assembled stack with the same hyperparameters and
seed.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import Pipeline
from repro.config import (
    EngineConfig,
    MMAConfig,
    PipelineConfig,
    TRMMAConfig,
)
from repro.data.datasets import build_dataset
from repro.data.trajectory import Trajectory
from repro.matching import attach_planner_statistics
from repro.matching.mma.matcher import MMAMatcher
from repro.network.node2vec import Node2VecConfig
from repro.recovery.trmma.recoverer import TRMMARecoverer

TINY_N2V = Node2VecConfig(
    dimensions=16, walk_length=8, walks_per_node=2, window=3, negatives=2,
    epochs=1,
)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("PT", n_trips=14, seed=23)


@pytest.fixture(scope="module")
def config():
    return PipelineConfig(
        mma=MMAConfig(d0=16, d2=16, ffn_hidden=32, node2vec=TINY_N2V),
        trmma=TRMMAConfig(d_h=16, ffn_hidden=32),
        engine=EngineConfig(engine="serial", batch_size=8),
        seed=29,
    )


@pytest.fixture(scope="module")
def fitted_pipeline(dataset, config):
    pipeline = Pipeline.from_config(
        dataset.network, config, dataset.transition_statistics()
    )
    pipeline.fit(dataset, epochs=1, matcher_epochs=1)
    yield pipeline
    pipeline.close()


# ---------------------------------------------------------------- configs


def test_config_round_trip():
    cfg = PipelineConfig(
        mma=MMAConfig(d0=16, node2vec=TINY_N2V),
        trmma=TRMMAConfig(d_h=32, n_heads=8),
        engine=EngineConfig(engine="parallel", workers=4, chunk_size=5),
        seed=3,
    )
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg
    for sub in (cfg.mma, cfg.trmma, cfg.engine):
        assert type(sub).from_dict(sub.to_dict()) == sub


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown MMAConfig keys"):
        MMAConfig.from_dict({"d0": 16, "bogus": 1})
    with pytest.raises(ValueError, match="unknown EngineConfig keys"):
        EngineConfig.from_dict({"n_workers": 2})


def test_config_validates_values():
    with pytest.raises(ValueError, match="divisible by n_heads"):
        TRMMAConfig(d_h=10, n_heads=4)
    with pytest.raises(ValueError, match="engine must be one of"):
        EngineConfig(engine="threads")
    with pytest.raises(ValueError, match="k_c"):
        MMAConfig(k_c=0)


def test_trmma_none_skips_recoverer(dataset):
    cfg = PipelineConfig.from_dict(
        {"mma": {"d0": 16, "d2": 16, "use_node2vec": False},
         "trmma": None, "engine": {"engine": "serial"}}
    )
    pipeline = Pipeline.from_config(dataset.network, cfg)
    assert pipeline.recoverer is None
    with pytest.raises(ValueError, match="without a recoverer"):
        pipeline.recover([dataset.test[0].sparse], dataset.epsilon)


# ----------------------------------------------------------------- facade


def test_pipeline_matches_direct_construction(dataset, config, fitted_pipeline):
    """Same config + seed by hand ⇒ bit-identical outputs."""
    matcher = MMAMatcher.from_config(
        dataset.network, config.mma, seed=config.seed
    )
    attach_planner_statistics(matcher, dataset.transition_statistics())
    recoverer = TRMMARecoverer.from_config(
        dataset.network, matcher, config.trmma, seed=config.seed
    )
    recoverer.fit(dataset, epochs=1, matcher_epochs=1)

    trajectories = [s.sparse for s in dataset.test]
    assert fitted_pipeline.match(trajectories) == matcher.match_many(
        trajectories, batch_size=config.engine.batch_size
    )
    direct = recoverer.recover_many(
        trajectories, dataset.epsilon, batch_size=config.engine.batch_size
    )
    via_facade = fitted_pipeline.recover(trajectories, dataset.epsilon)
    for a, b in zip(via_facade, direct):
        for pa, pb in zip(a.points, b.points):
            assert (pa.edge_id, pa.ratio, pa.t) == (pb.edge_id, pb.ratio, pb.t)


def test_match_and_recover_single_matcher_pass(dataset, fitted_pipeline):
    trajectories = [s.sparse for s in dataset.test]
    routes, dense = fitted_pipeline.match_and_recover(
        trajectories, dataset.epsilon
    )
    assert routes == fitted_pipeline.match(trajectories)
    assert len(dense) == len(trajectories)


@pytest.mark.parametrize(
    "field, value", [("x", float("nan")), ("y", float("inf")), ("t", float("nan"))]
)
def test_non_finite_point_is_a_typed_error(dataset, fitted_pipeline, field, value):
    points = list(dataset.test[0].sparse.points)
    points[1] = replace(points[1], **{field: value})
    with pytest.raises(ValueError, match="trajectory point 1 is not finite"):
        fitted_pipeline.match([Trajectory(points)])
    with pytest.raises(ValueError, match="trajectory point 1 is not finite"):
        fitted_pipeline.recover([Trajectory(points)], dataset.epsilon)


def test_from_components_rejects_foreign_matcher(dataset, fitted_pipeline):
    other = MMAMatcher(
        dataset.network, d0=16, d2=16, ffn_hidden=32,
        node2vec_config=TINY_N2V, seed=1,
    )
    with pytest.raises(ValueError, match="same object"):
        Pipeline.from_components(other, fitted_pipeline.recoverer)


def test_pipeline_workers_property(fitted_pipeline):
    assert fitted_pipeline.workers == 0  # serial engine config
