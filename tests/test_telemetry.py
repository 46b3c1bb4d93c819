"""The stage-time recorder: self times, capture, stage table, overhead.

Covers self-time attribution (pinned exactly with a fake clock),
enable/disable toggling, the stage table, stage capture, the stage totals
parallel-engine workers ship back, and a ``perf_smoke``-marked bound on
disabled-mode overhead against the fig9 micro-benchmark.
"""

from __future__ import annotations

import os
import queue
import time
from types import SimpleNamespace

import pytest

from repro import telemetry
from repro.engine import worker as engine_worker
from repro.telemetry import spans as telemetry_spans
from repro.telemetry.spans import _env_enabled


@pytest.fixture()
def clean_telemetry():
    """No recorded totals + disabled telemetry, prior state restored after."""
    was_enabled = telemetry.enabled()
    telemetry.disable()
    telemetry.take_totals()
    yield
    telemetry.take_totals()
    if was_enabled:
        telemetry.enable()
    else:
        telemetry.disable()


@pytest.fixture()
def fake_clock(monkeypatch):
    """A ``perf_counter`` that only moves when the test advances it."""
    clock = SimpleNamespace(now=0.0)

    def advance(seconds):
        clock.now += seconds

    clock.advance = advance
    monkeypatch.setattr(telemetry_spans, "perf_counter", lambda: clock.now)
    return clock


class TestToggle:
    def test_enable_disable_roundtrip(self, clean_telemetry):
        assert not telemetry.enabled()
        telemetry.enable()
        assert telemetry.enabled()
        telemetry.disable()
        assert not telemetry.enabled()

    def test_env_parsing(self):
        for value in ("1", "true", "yes", "on", "anything"):
            assert _env_enabled(value)
        for value in ("", "0", "false", "no", "off", " 0 ", "FALSE"):
            assert not _env_enabled(value)

    def test_disabled_spans_record_nothing(self, clean_telemetry):
        with telemetry.span("ghost"):
            pass
        assert telemetry.stage_totals() == {}


class TestSpans:
    def test_self_time_attribution(self, clean_telemetry, fake_clock):
        telemetry.enable()
        with telemetry.span("root"):
            fake_clock.advance(0.25)
            with telemetry.span("x"):
                fake_clock.advance(0.125)
                with telemetry.span("deep"):
                    fake_clock.advance(0.125)
            with telemetry.span("y"):
                fake_clock.advance(0.25)
            fake_clock.advance(0.25)
        assert telemetry.stage_totals() == {
            "root": 0.5, "x": 0.125, "deep": 0.125, "y": 0.25,
        }
        # Self times over the whole tree sum to the root's duration exactly.
        assert sum(telemetry.stage_totals().values()) == 1.0
        assert telemetry_spans._open == []

    def test_nested_same_name_not_double_counted(
        self, clean_telemetry, fake_clock
    ):
        # stitch -> plan both record as "routing"; the stage total must equal
        # the outer span's duration, not outer + inner.
        telemetry.enable()
        with telemetry.span("routing"):
            fake_clock.advance(0.375)
            with telemetry.span("routing"):
                fake_clock.advance(0.625)
        assert telemetry.stage_totals() == {"routing": 1.0}

    def test_span_survives_exception(self, clean_telemetry, fake_clock):
        telemetry.enable()
        with pytest.raises(RuntimeError):
            with telemetry.span("outer"):
                with telemetry.span("boom"):
                    fake_clock.advance(0.5)
                    raise RuntimeError("x")
        assert telemetry.stage_totals() == {"outer": 0.0, "boom": 0.5}
        assert telemetry_spans._open == []

    def test_take_and_add_totals(self, clean_telemetry, fake_clock):
        telemetry.enable()
        with telemetry.span("model"):
            fake_clock.advance(0.5)
        assert telemetry.take_totals() == {"model": 0.5}
        assert telemetry.stage_totals() == {}
        telemetry.add_totals({"model": 0.25, "features": 0.125})
        telemetry.add_totals({"model": 0.25})
        assert telemetry.stage_totals() == {"model": 0.5, "features": 0.125}


class TestExporters:
    def test_stage_table_orders_pipeline_stages_first(self):
        stages = {"zeta": 0.1, "model": 0.2, "candidates": 0.3}
        out = telemetry.render_stage_table(stages, window_seconds=0.6)
        lines = out.splitlines()
        order = [line.split()[0] for line in lines[2:-2]]
        assert order == ["candidates", "model", "zeta"]
        assert "coverage 100.0%" in lines[-1]

    def test_empty_renders_degrade_gracefully(self, clean_telemetry):
        assert "no stage timings" in telemetry.render_stage_table()
        assert "no stage timings" in telemetry.render_stage_table({})


class TestCaptureStages:
    def test_capture_enables_only_inside_block(
        self, clean_telemetry, fake_clock
    ):
        assert not telemetry.enabled()
        with telemetry.capture_stages() as capture:
            assert telemetry.enabled()
            with telemetry.span("model"):
                fake_clock.advance(0.5)
            fake_clock.advance(0.5)
        assert not telemetry.enabled()
        assert capture.stages == {"model": 0.5}
        assert capture.window_seconds == 1.0
        assert capture.coverage == 0.5

    def test_capture_diffs_preexisting_spans(
        self, clean_telemetry, fake_clock
    ):
        telemetry.enable()
        telemetry.add_totals({"model": 100.0})  # stale pre-capture time
        with telemetry.capture_stages() as capture:
            with telemetry.span("model"):
                fake_clock.advance(0.5)
        assert capture.stages == {"model": 0.5}  # only the in-block delta
        assert telemetry.enabled()  # the prior state is restored
        assert telemetry.stage_totals() == {"model": 100.5}

    def test_capture_nested_self_time(self, clean_telemetry, fake_clock):
        telemetry.add_totals({"features": 2.0})
        with telemetry.capture_stages() as capture:
            with telemetry.span("features"):
                fake_clock.advance(0.25)
                with telemetry.span("candidates"):
                    fake_clock.advance(0.5)
        assert capture.stages == {"features": 0.25, "candidates": 0.5}
        assert telemetry.stage_totals() == {
            "features": 2.25, "candidates": 0.5,
        }


# --------------------------------------------------------------- end to end


@pytest.fixture(scope="module")
def telemetry_matcher():
    from repro.config import MMAConfig
    from repro.data.datasets import build_dataset
    from repro.matching.mma.matcher import MMAMatcher
    from repro.network.node2vec import Node2VecConfig

    dataset = build_dataset("PT", n_trips=24, seed=19)
    matcher = MMAMatcher(
        dataset.network,
        MMAConfig(
            d0=16, d2=16, ffn_hidden=32,
            node2vec=Node2VecConfig(
                dimensions=16, walk_length=8, walks_per_node=2, window=3,
                negatives=2, epochs=1,
            ),
        ),
        seed=7,
    )
    matcher.fit_epoch(dataset)
    return dataset, matcher


class TestPipelineInstrumentation:
    def test_match_many_produces_stage_tree(
        self, telemetry_matcher, clean_telemetry
    ):
        dataset, matcher = telemetry_matcher
        trajectories = [s.sparse for s in dataset.test]
        with telemetry.capture_stages() as capture:
            matcher.match_many(trajectories, batch_size=8)
        assert {"candidates", "features", "model", "routing"} <= set(
            capture.stages
        )

    def test_results_identical_enabled_vs_disabled(
        self, telemetry_matcher, clean_telemetry
    ):
        dataset, matcher = telemetry_matcher
        trajectories = [s.sparse for s in dataset.test]
        disabled = matcher.match_many(trajectories, batch_size=8)
        telemetry.enable()
        enabled = matcher.match_many(trajectories, batch_size=8)
        assert enabled == disabled

    def test_fig9_stage_sum_matches_wall_clock(
        self, telemetry_matcher, clean_telemetry
    ):
        """Acceptance: stage breakdown sums to ~the measured wall clock."""
        from repro.eval.efficiency import inference_time

        dataset, matcher = telemetry_matcher
        matcher.match_many([s.sparse for s in dataset.test[:2]], batch_size=2)
        with telemetry.capture_stages() as capture:
            inference_time(
                lambda ts: matcher.match_many(ts, batch_size=8), dataset.test
            )
        assert capture.stages, "no stages captured"
        total = sum(capture.stages.values())
        assert total == pytest.approx(capture.window_seconds, rel=0.10)


@pytest.mark.perf_smoke
def test_disabled_overhead_negligible(
    telemetry_matcher, clean_telemetry, monkeypatch
):
    """Disabled-mode telemetry must cost <2% of fig9 micro-benchmark time.

    The per-match overhead is (spans per trajectory) x (disabled span
    cost); both factors are measured here rather than assumed.
    """
    dataset, matcher = telemetry_matcher
    trajectories = [s.sparse for s in dataset.test]
    matcher.match_many(trajectories[:2], batch_size=2)  # warm caches

    n_calls = 100_000
    start = time.perf_counter()
    for _ in range(n_calls):
        with telemetry.span("overhead-probe"):
            pass
    span_cost = (time.perf_counter() - start) / n_calls

    start = time.perf_counter()
    matcher.match_many(trajectories, batch_size=8)
    per_match = (time.perf_counter() - start) / len(trajectories)

    # Count the spans one batched match actually opens (features, nested
    # candidates, per-bucket model, per-trajectory stitch + per-leg plans).
    opened = []

    class CountingSpan(telemetry_spans._Span):
        __slots__ = ()

        def __enter__(self):
            opened.append(self._name)
            return super().__enter__()

    monkeypatch.setattr(telemetry_spans, "_Span", CountingSpan)
    with telemetry.capture_stages():
        matcher.match_many(trajectories, batch_size=8)
    spans_per_match = len(opened) / len(trajectories)
    assert spans_per_match > 0

    overhead_fraction = spans_per_match * span_cost / per_match
    # The <2% bound is gated on core count (BENCH_PR3 convention): on a
    # 1-core container the span-cost microbenchmark is scheduled against
    # everything else and its nanosecond numbers are noise.
    if (os.cpu_count() or 1) >= 2:
        assert overhead_fraction < 0.02, (
            f"disabled telemetry costs {overhead_fraction:.2%} of a match "
            f"({spans_per_match:.1f} spans x {span_cost * 1e9:.0f} ns "
            f"vs {per_match * 1e3:.2f} ms per trajectory)"
        )


# ----------------------------------------------- parallel engine stage totals


class TestWorkerSpans:
    def test_failed_task_spans_do_not_leak_into_next_export(
        self, clean_telemetry, fake_clock, monkeypatch
    ):
        """A task that raises must not ship its stage times with the next."""

        def execute_task(engine, kind, payload):
            if kind == "boom":
                with telemetry.span("boom"):
                    fake_clock.advance(1.0)
                    raise RuntimeError("task failed")
            with telemetry.span("fine"):
                fake_clock.advance(0.25)
                return kind

        monkeypatch.setattr(
            engine_worker, "build_worker_runtime", lambda spec: SimpleNamespace()
        )
        monkeypatch.setattr(engine_worker, "execute_task", execute_task)
        # worker_main switches telemetry off process-wide; restore it after.
        monkeypatch.setattr(telemetry_spans, "_enabled", telemetry.enabled())
        inbox, outbox = queue.Queue(), queue.Queue()
        inbox.put((0, "boom", {"telemetry": True}))
        inbox.put((1, "fine", {"telemetry": True}))
        inbox.put(None)

        engine_worker.worker_main(0, SimpleNamespace(), inbox, outbox)

        replies = [outbox.get_nowait() for _ in range(outbox.qsize())]
        assert [r[0] for r in replies] == ["ready", "error", "ok"]
        assert replies[-1][4] == {"fine": 0.25}
        assert telemetry.stage_totals() == {}

    def test_parallel_run_merges_worker_spans(
        self, tiny_dataset, clean_telemetry
    ):
        from repro.config import EngineConfig, MMAConfig
        from repro.engine import ParallelEngine
        from repro.matching.mma.matcher import MMAMatcher
        from repro.network.node2vec import Node2VecConfig

        matcher = MMAMatcher(
            tiny_dataset.network,
            MMAConfig(
                d0=16, d2=16, ffn_hidden=32,
                node2vec=Node2VecConfig(
                    dimensions=16, walk_length=8, walks_per_node=2, window=3,
                    negatives=2, epochs=1,
                ),
            ),
            seed=7,
        )
        matcher.fit_epoch(tiny_dataset)
        trajectories = [s.sparse for s in tiny_dataset.test]
        config = EngineConfig(
            engine="parallel", workers=2, chunk_size=2, batch_size=4
        )
        # Recorded before the fork: a worker must not ship it back again.
        telemetry.add_totals({"parent-only": 1.0})
        telemetry.enable()
        with ParallelEngine(matcher, config=config) as engine:
            engine.match(trajectories)
        telemetry.disable()

        # The parent ran no inference itself: these stages were recorded in
        # the workers and shipped back with their shares.
        totals = telemetry.stage_totals()
        assert {"candidates", "features", "model"} <= set(totals)
        assert totals["parent-only"] == 1.0
