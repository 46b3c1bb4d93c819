"""Utilities: RNG management, timing, table rendering, node2vec."""

import numpy as np
import pytest

from repro.network.node2vec import Node2VecConfig, generate_walks, train_node2vec
from repro.utils.rng import make_rng, sample_without_replacement, spawn_rng
from repro.utils.tables import (
    best_in_column,
    format_cell,
    render_metric_table,
    render_series,
    render_table,
)
from repro.utils.timing import Timer, time_call


class TestRng:
    def test_same_seed_same_stream(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_generator_passthrough(self):
        rng = make_rng(1)
        assert make_rng(rng) is rng

    def test_spawn_is_deterministic(self):
        a = spawn_rng(make_rng(1), "child").random()
        b = spawn_rng(make_rng(1), "child").random()
        assert a == b

    def test_spawn_labels_differ(self):
        rng1, rng2 = make_rng(1), make_rng(1)
        assert spawn_rng(rng1, "x").random() != spawn_rng(rng2, "yyy").random()

    def test_sample_without_replacement_distinct(self):
        idx = sample_without_replacement(make_rng(0), 10, 5)
        assert len(set(idx.tolist())) == 5

    def test_sample_clamps(self):
        assert len(sample_without_replacement(make_rng(0), 3, 10)) == 3
        assert len(sample_without_replacement(make_rng(0), 3, 0)) == 0


class TestTiming:
    def test_timer_measures(self):
        with Timer() as t:
            sum(range(10000))
        assert t.elapsed > 0

    def test_time_call(self):
        assert time_call(lambda: None) >= 0

    def test_timer_is_reusable(self):
        t = Timer()
        with t:
            sum(range(1000))
        first = t.elapsed
        with t:
            sum(range(1000))
        assert len(t.laps) == 2
        assert t.laps[0] == first
        assert t.elapsed == t.laps[1]
        assert t.total == pytest.approx(sum(t.laps))

    def test_timer_is_reentrant(self):
        t = Timer()
        with t:
            with t:
                sum(range(1000))
        # Inner lap finishes first, outer lap covers it.
        assert len(t.laps) == 2
        assert t.laps[1] >= t.laps[0]

    def test_timer_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.laps == []
        assert t.total == 0.0


class TestTables:
    def test_format_cell(self):
        assert format_cell(1.234, 2) == "1.23"
        assert format_cell("abc") == "abc"
        assert format_cell(7) == "7"

    def test_render_table_alignment(self):
        out = render_table(["col", "x"], [["a", 1.5]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[1]
        assert "1.50" in lines[-1]

    def test_render_metric_table(self):
        out = render_metric_table(
            {"m1": {"f1": 90.0}, "m2": {"f1": 80.0}}, ["f1"]
        )
        assert "m1" in out and "90.00" in out

    def test_render_series(self):
        out = render_series("k", [1, 2], {"PT": [0.5, 0.9]})
        assert "PT" in out

    def test_best_in_column(self):
        results = {"a": {"f1": 1.0}, "b": {"f1": 2.0}}
        assert best_in_column(results, "f1") == "b"
        assert best_in_column(results, "f1", maximize=False) == "a"

    def test_best_in_column_errors(self):
        with pytest.raises(ValueError):
            best_in_column({}, "f1")
        with pytest.raises(KeyError):
            best_in_column({"a": {}}, "f1")


class TestNode2Vec:
    def test_walks_follow_road_topology(self, small_network):
        config = Node2VecConfig(walk_length=6, walks_per_node=1)
        walks = generate_walks(small_network, config, seed=0)
        assert len(walks) == small_network.n_segments
        for walk in walks[:20]:
            for a, b in zip(walk, walk[1:]):
                assert b in small_network.successors(a)

    def test_embedding_shape(self, small_network):
        config = Node2VecConfig(
            dimensions=8, walk_length=6, walks_per_node=1, epochs=1, negatives=2
        )
        emb = train_node2vec(small_network, config, seed=0)
        assert emb.shape == (small_network.n_segments, 8)
        assert np.isfinite(emb).all()

    def test_connected_segments_closer_than_random(self, small_network):
        config = Node2VecConfig(
            dimensions=16, walk_length=10, walks_per_node=3, epochs=2
        )
        emb = train_node2vec(small_network, config, seed=0)

        def cos(a, b):
            return np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12)

        rng = np.random.default_rng(0)
        connected, random_pairs = [], []
        for e in range(0, small_network.n_segments, 3):
            for s in small_network.successors(e)[:1]:
                connected.append(cos(emb[e], emb[s]))
            other = int(rng.integers(0, small_network.n_segments))
            random_pairs.append(cos(emb[e], emb[other]))
        assert np.mean(connected) > np.mean(random_pairs)
