"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import multiprocessing
import subprocess
import sys
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import pytest

from perfbench import checks, environment, run as cli
from perfbench.estimator import (
    HostClock,
    bracketing_probes,
    host_scaled,
    nearest_rank,
    per_request_medians,
    summarize,
)
from perfbench.workloads import WORKLOADS, Plan, run, trace_summary
from repro.data.datasets import build_dataset
from repro.data.trajectory import MapMatchedPoint, MatchedTrajectory
from repro.experiments.common import TINY

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_PLAN = Plan(
    scale=TINY, min_passes=2, min_trace_passes=2, setup_repeats=1,
    requests=3, batch=2,
)


# ------------------------------------------------------------------ estimator


def test_per_request_median_ignores_one_slow_pass():
    fast = [0.10, 0.20, 0.30]
    slow = [t * 1.5 for t in fast]
    assert per_request_medians([fast, slow, fast]) == fast
    timing = summarize([fast, slow, fast], trajectories_per_pass=6)
    assert timing["traj_per_s"] == pytest.approx(6 / 0.6)
    assert timing["latency_p50_ms"] == pytest.approx(200.0)
    assert timing["passes"] == 3 and timing["requests"] == 3


def test_per_request_median_takes_each_requests_own_median():
    passes = [[1.0, 10.0, 3.0], [2.0, 30.0, 1.0], [3.0, 20.0, 2.0]]
    assert per_request_medians(passes) == [2.0, 20.0, 2.0]
    with pytest.raises(ValueError):
        per_request_medians([[1.0, 2.0], [1.0]])


def test_each_request_gets_the_mean_of_the_probes_around_it():
    probes = [(0, 2.0), (2, 4.0), (3, 3.0)]
    assert bracketing_probes(probes, 3) == [3.0, 3.0, 3.5]


def test_host_scaling_cancels_a_slow_phase():
    fast = [0.10, 0.20, 0.30]
    slow = [t * 1.4 for t in fast]
    scaled = host_scaled(slow, [2.8, 2.8, 2.8], reference_ms=2.0)
    assert scaled == pytest.approx(fast)
    passes = [fast, scaled, host_scaled(fast, [2.0] * 3, reference_ms=2.0)]
    assert per_request_medians(passes) == pytest.approx(fast)


def test_host_clock_scales_each_lap_by_the_probes_at_its_ends():
    probes = iter([2.0, 6.0, 4.0])
    times = iter([0.0, 1.0, 1.5, 3.0, 3.5])  # lap ends, each probe taking 0.5 s
    clock = HostClock(lambda: next(probes), 2.0, now=lambda: next(times))
    assert clock.lap() == (1.0, pytest.approx(0.5))  # probes 2 and 6: twice as slow
    assert clock.lap() == (1.5, pytest.approx(0.6))  # probes 6 and 4


def test_p99_leaves_ten_samples_beyond_it_at_1000_requests():
    values = [float(i) for i in range(1000)]
    p99 = nearest_rank(values, 0.99)
    assert sum(v > p99 for v in values) == 10


# --------------------------------------------------------------------- checks


def test_checks_count_invalid_outputs():
    dataset = build_dataset("PT", n_trips=10, seed=3)
    network, epsilon = dataset.network, dataset.epsilon
    samples = dataset.test[:2]
    routes = [list(s.route) for s in samples]
    recovered = [s.dense for s in samples]
    good = (routes, recovered)
    assert checks.failed_trajectories(network, epsilon, samples, good, good) == 0
    assert checks.failed_trajectories(network, epsilon, samples, None) == 2
    assert checks.failed_trajectories(network, epsilon, samples, (routes[:1], None)) == 2
    broken = [routes[0], [routes[1][0], routes[1][0]]]  # not a connected path
    assert network.route_is_path(broken[0]) and not network.route_is_path(broken[1])
    assert checks.failed_trajectories(network, epsilon, samples, (broken, None)) == 1
    points = list(samples[0].dense.points)
    points[0] = MapMatchedPoint(points[0].edge_id, 1.0, points[0].t)
    bad = [MatchedTrajectory(points), recovered[1]]
    assert checks.failed_trajectories(network, epsilon, samples, (None, bad)) == 1
    short = [MatchedTrajectory(points[:-1]), recovered[1]]
    assert checks.failed_trajectories(network, epsilon, samples, (None, short)) == 1
    other = ([routes[1], routes[1]], None)
    assert checks.failed_trajectories(network, epsilon, samples, other, good) == 1


# ------------------------------------------------------------------ tiny runs


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    return request.param, run(request.param, seed=5, seconds=0.0, trace=True, plan=TINY_PLAN)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    output, record, tracer = run(name, seed=5, seconds=0.0, trace=False, plan=TINY_PLAN)
    assert tracer is None and output["failed"] == 0
    assert output["attempted"] == record["passes"] * 6 + (6 if WORKLOADS[name].warm_up else 0)
    shown = cli.report(SPEC, output["metrics"], trace=False)
    assert set(shown) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert shown[metric["name"]]["unit"] == metric["unit"]
        assert shown[metric["name"]]["value"] > 0


def test_traced_run_reports_every_metric(traced):
    name, (output, record, tracer) = traced
    assert output["failed"] == 0
    shown = cli.report(SPEC, output["metrics"], trace=True)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert sorted(shown) == sorted(names)
    assert all(math.isfinite(shown[n]["value"]) for n in names)
    metrics = output["metrics"]
    if WORKLOADS[name].workers:
        assert record["parity_mismatches"] == 0
        assert metrics["engine.speedup_vs_serial"] > 0
        assert metrics["engine.worker_threads"] >= 1
    else:
        assert metrics["candidates.hit_pct"] > 0
        assert metrics["routing.plans_per_traj"] > 0
        assert metrics["nn.tensors_per_traj"] > 0
    if WORKLOADS[name].op == "recover":
        assert metrics["decode.steps_per_traj"] > 0
        assert metrics["quality.recovery_f1_pct"] > 0


def test_layer_self_times_add_up_to_request_wall_time(traced):
    name, (output, record, tracer) = traced
    layers = trace_summary(tracer)
    wall = layers.pop("wall")
    assert wall > 0
    assert sum(layers.values()) == pytest.approx(wall, rel=1e-9)
    metrics = output["metrics"]
    n_traj = tracer.counts()["request"] * TINY_PLAN.batch
    if not WORKLOADS[name].workers:
        reported = sum(
            metrics[key]
            for key in (
                "candidates.self_ms_per_traj", "features.self_ms_per_traj",
                "model.self_ms_per_traj", "routing.self_ms_per_traj",
                "reproject.self_ms_per_traj", "decode.ms_per_traj",
                "unattributed_ms_per_traj",
            )
        )
        assert reported == pytest.approx(1e3 * wall / n_traj, rel=1e-9)
    decode_parts = (
        metrics["decode.self_ms_per_traj"]
        + metrics["decode.encoder_ms_per_traj"]
        + metrics["decode.steps_per_traj"] * metrics["decode.step_us"] / 1e3
    )
    assert decode_parts == pytest.approx(metrics["decode.ms_per_traj"], rel=1e-9, abs=1e-12)


# ------------------------------------------------------------------ command


def test_command_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recover-pt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_stop_children_ends_the_shared_memory_resource_tracker():
    block = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
    block.close()
    block.unlink()
    tracker = resource_tracker._resource_tracker
    assert tracker._pid is not None
    environment.stop_children()
    assert tracker._pid is None and tracker._fd is None
    assert multiprocessing.active_children() == []
