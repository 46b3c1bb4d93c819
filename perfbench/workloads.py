"""The workloads: set-up, request stream, closed-loop replay and metrics.

Every workload trains the real MMA/TRMMA stack through
:class:`repro.api.Pipeline` on a fixed training split, then replays a
seeded stream of freshly simulated sparse trajectories as a closed loop:
one client, one request outstanding.  The stream is replayed in K passes
(as many as fit in the run's measuring time, at least ``min_passes``);
each request's time is the median of its K times (see
:mod:`perfbench.estimator`).
"""

from __future__ import annotations

import gc
import math
import statistics
import sys
import traceback
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.api import Pipeline
from repro.config import EngineConfig, PipelineConfig
from repro.data.datasets import DATASET_CONFIGS, Dataset, build_dataset
from repro.data.simulate import simulate_trips
from repro.data.sparsify import sparsify_trips
from repro.data.trajectory import Trajectory, TrajectorySample
from repro.engine import SerialEngine
from repro.experiments.common import (
    BENCH,
    BENCH_BATCH_SIZE,
    ExperimentScale,
    mma_config,
    trmma_config,
)
from repro.matching.mma.matcher import MMAMatcher
from repro.network.routing import DARoutePlanner, TransitionStatistics
from repro.recovery.trmma.recoverer import TRMMARecoverer

from . import checks, environment
from .estimator import (
    HostClock,
    bracketing_probes,
    host_scaled,
    per_request_medians,
    summarize,
)
from .tracing import END, NAME, NOTE, REQUEST, SPAN_LAYER, START, Tracer, instrument

#: Sparsity of the request stream (the paper's default gamma).
GAMMA = 0.1
#: Longest time (s) between two host-speed probes within a pass.
PROBE_INTERVAL_S = 0.2
#: Trajectories per chunk the parallel engine hands a worker.
CHUNK_SIZE = 16
#: The experiments' BENCH scale with 4 instead of 6 recovery epochs.  Every
#: run retrains; six epochs take about 22 s on a 2-core host, which leaves
#: a PT run too little of its time budget (under 50 s a run) for measuring.
BENCH_SCALE = replace(BENCH, epochs=4)

#: A timed set-up phase, (raw s, host-scaled s), and the index of each part.
Lap = Tuple[float, float]
RAW, SCALED = 0, 1

# A request's output: (routes or None, recovered trajectories or None);
# None as a whole when the call raised.
Output = Optional[Tuple[Optional[list], Optional[list]]]


@dataclass(frozen=True)
class Workload:
    name: str
    city: str
    #: Pipeline entry point: "recover", "match" or "match_and_recover".
    op: str
    #: Trajectories per request.
    batch: int
    #: Requests per pass.
    requests: int
    #: Engine worker processes (0: in-process SerialEngine).
    workers: int = 0
    #: One untimed pass first, so caches are warm when timing starts.
    warm_up: bool = False
    #: A fresh DARoutePlanner (cold route cache) at the start of every pass.
    fresh_planner: bool = False

    @property
    def recovers(self) -> bool:
        return self.op != "match"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("recover-pt", "PT", "recover", batch=64, requests=4, warm_up=True),
        Workload("match-bj", "BJ", "match", batch=1, requests=1000, fresh_planner=True),
        Workload(
            "match-recover-pt-w2", "PT", "match_and_recover",
            batch=128, requests=3, workers=2, warm_up=True,
        ),
    )
}


@dataclass(frozen=True)
class Plan:
    """Sizes of a run; the default is the benchmark, tests shrink it."""

    scale: ExperimentScale = BENCH_SCALE
    min_passes: int = 3
    #: Timed passes of each kind (untraced, traced) in a traced run.
    min_trace_passes: int = 2
    #: How often the cheap set-up phases are repeated (median reported).
    setup_repeats: int = 3
    #: Overrides of the workload's request count and size.
    requests: Optional[int] = None
    batch: Optional[int] = None

    def workload(self, name: str) -> Workload:
        workload = WORKLOADS[name]
        return replace(
            workload,
            requests=self.requests or workload.requests,
            batch=self.batch or workload.batch,
        )


def engine_config(workload: Workload) -> EngineConfig:
    """Explicit engine settings, so ``$REPRO_WORKERS`` cannot change them."""
    return EngineConfig(
        engine="parallel" if workload.workers else "serial",
        workers=workload.workers,
        chunk_size=CHUNK_SIZE,
        batch_size=BENCH_BATCH_SIZE,
    )


# --------------------------------------------------------------------- set-up


@dataclass
class Setup:
    pipeline: Pipeline
    dataset: Dataset
    statistics: TransitionStatistics
    #: (raw s, host-scaled s) of each timed phase; see HostClock.
    dataset_times: List[Lap]
    pipeline_s: Lap
    fit_s: Lap
    engine_starts: List[Lap]
    #: Span durations of the set-up phases (traced runs only).
    phases: Dict[str, List[float]] = field(default_factory=dict)

    def total(self, part: int) -> float:
        """Set-up time; ``part`` 0 is raw, 1 host-scaled."""
        return (
            statistics.median(t[part] for t in self.dataset_times)
            + self.pipeline_s[part]
            + self.fit_s[part]
            + statistics.median(t[part] for t in self.engine_starts)
        )

    @property
    def setup_s(self) -> float:
        return self.total(SCALED)


def build_setup(workload: Workload, plan: Plan, trace: bool) -> Setup:
    """Dataset, untrained pipeline, training and engine start, each timed.

    The dataset build and the engine start are cheap and repeated
    ``plan.setup_repeats`` times (their medians count); Node2Vec and
    training run once.  A :class:`HostClock` lap ends every phase and every
    training epoch, and ``setup_s`` sums the host-scaled laps.
    """
    scale = plan.scale
    tracer = Tracer()
    if trace:
        import repro.matching.mma.matcher as mma_matcher

        tracer.patch_span(mma_matcher, "train_node2vec", "setup.node2vec")
        tracer.patch_span(MMAMatcher, "fit_epoch", "train.mma_epoch")
        tracer.patch_span(TRMMARecoverer, "fit_epoch", "train.trmma_epoch")
    clock = HostClock(
        lambda: environment.host_probe_ms(3), environment.REFERENCE_PROBE_MS
    )
    epochs: List[Lap] = []
    for owner in (MMAMatcher, TRMMARecoverer):
        tracer.patch(owner, "fit_epoch", lapped(owner.fit_epoch, clock, epochs))
    pipeline: Optional[Pipeline] = None
    try:
        dataset_times = []
        for _ in range(plan.setup_repeats):
            dataset = build_dataset(
                workload.city, n_trips=scale.n_trips, gamma=GAMMA, seed=scale.seed
            )
            stats = dataset.transition_statistics()
            dataset_times.append(clock.lap())
        config = PipelineConfig(
            mma=mma_config(scale),
            trmma=trmma_config(scale) if workload.recovers else None,
            engine=engine_config(workload),
            seed=scale.seed,
        )
        pipeline = Pipeline.from_config(dataset.network, config, stats)
        pipeline_s = clock.lap()
        pipeline.fit(
            dataset, epochs=scale.epochs, matcher_epochs=scale.matcher_epochs
        )
        epochs.append(clock.lap())
        fit_s = (sum(raw for raw, _ in epochs), sum(scaled for _, scaled in epochs))
        tracer.unpatch()
        engine_starts = []
        for _ in range(plan.setup_repeats if workload.workers else 1):
            pipeline.close()
            clock.lap()  # closing the previous engine is not set-up
            engine = pipeline.engine
            if workload.workers:
                engine.warm_up()
            engine_starts.append(clock.lap())
        if workload.workers and len(engine._workers) != workload.workers:
            raise RuntimeError(
                f"{workload.name}: {len(engine._workers)} of "
                f"{workload.workers} engine workers started"
            )
    except BaseException:
        if pipeline is not None:
            pipeline.close()
        raise
    finally:
        tracer.unpatch()
    phases = {
        name: tracer.durations(name)
        for name in ("setup.node2vec", "train.mma_epoch", "train.trmma_epoch")
    }
    return Setup(
        pipeline, dataset, stats, dataset_times, pipeline_s, fit_s,
        engine_starts, phases,
    )


def lapped(method: Callable, clock: HostClock, laps: List[Lap]) -> Callable:
    """``method`` followed by a lap of ``clock``, appended to ``laps``."""
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        try:
            return method(*args, **kwargs)
        finally:
            laps.append(clock.lap())
    return wrapper


# -------------------------------------------------------------------- stream


def make_stream(
    dataset: Dataset, workload: Workload, seed: int
) -> List[List[TrajectorySample]]:
    """Requests of freshly simulated sparse trajectories, drawn from ``seed``.

    Trips are simulated on the training network with the city's traffic
    model, so they are new inputs from the training distribution.
    """
    network = dataset.network
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    n = workload.requests * workload.batch
    trips = simulate_trips(
        network,
        DATASET_CONFIGS[workload.city].simulation,
        n,
        seed=rng,
        signals=network.signalized_nodes,
        speed_factors=network.speed_factors,
    )
    samples = sparsify_trips(trips, GAMMA, seed=rng)
    return [samples[i : i + workload.batch] for i in range(0, n, workload.batch)]


# -------------------------------------------------------------------- replay


def executor(target: Any, op: str, epsilon: float) -> Callable[[List[Trajectory]], Output]:
    """One request against a Pipeline or engine (same batch-first API)."""
    if op == "match":
        return lambda trajectories: (target.match(trajectories), None)
    if op == "recover":
        return lambda trajectories: (None, target.recover(trajectories, epsilon))
    return lambda trajectories: target.match_and_recover(trajectories, epsilon)


@dataclass
class Pass:
    times: List[float]
    outputs: List[Output]
    #: Host-speed probe (ms) around each request.
    probes: List[float]

    @property
    def scaled(self) -> List[float]:
        """Request times scaled to the reference host speed."""
        return host_scaled(self.times, self.probes, environment.REFERENCE_PROBE_MS)


def run_pass(
    execute: Callable[[List[Trajectory]], Output],
    inputs: Sequence[List[Trajectory]],
    before: Optional[Callable[[], None]] = None,
    tracer: Optional[Tracer] = None,
) -> Pass:
    """Send every request once, in order, one outstanding at a time.

    The host-speed probe runs between requests, at least every
    ``PROBE_INTERVAL_S`` and once more after the last request.
    """
    if before is not None:
        before()
    gc.collect()
    times: List[float] = []
    outputs: List[Output] = []
    probes: List[Tuple[int, float]] = []
    probed_at = -math.inf
    for request_id, trajectories in enumerate(inputs):
        if perf_counter() - probed_at >= PROBE_INTERVAL_S:
            probes.append((request_id, environment.host_probe_ms(3)))
            probed_at = perf_counter()
        with tracer.request(request_id) if tracer is not None else nullcontext():
            start = perf_counter()
            try:
                output: Output = execute(trajectories)
            except Exception:  # a failed request counts, the run goes on
                traceback.print_exc(file=sys.stderr)
                output = None
            times.append(perf_counter() - start)
        outputs.append(output)
    probes.append((len(inputs), environment.host_probe_ms(3)))
    return Pass(times, outputs, bracketing_probes(probes, len(inputs)))


def count_failed(
    dataset: Dataset,
    requests: Sequence[List[TrajectorySample]],
    result: Pass,
    reference: Pass,
) -> int:
    """Failed trajectories of one pass; outputs must also repeat the
    reference pass exactly (same request, same answer)."""
    return sum(
        checks.failed_trajectories(
            dataset.network, dataset.epsilon, samples, output, expected
        )
        for samples, output, expected in zip(
            requests, result.outputs, reference.outputs
        )
    )


@dataclass
class Replay:
    passes: List[Pass]
    traced: List[Pass]
    attempted: int
    failed: int


def replay(
    setup: Setup,
    workload: Workload,
    plan: Plan,
    requests: List[List[TrajectorySample]],
    seconds: float,
    tracer: Optional[Tracer],
) -> Replay:
    """Warm-up (if any), then timed passes until ``seconds`` have passed.

    A traced run alternates untraced and traced passes, so both see the
    same host phases and their difference is the tracing overhead.
    """
    pipeline, dataset = setup.pipeline, setup.dataset
    inputs = [[s.sparse for s in request] for request in requests]
    execute = executor(pipeline, workload.op, dataset.epsilon)
    before = None
    if workload.fresh_planner:
        def before() -> None:
            pipeline.matcher.planner = DARoutePlanner(
                dataset.network, setup.statistics
            )

    done: List[Pass] = []
    if workload.warm_up:
        done.append(run_pass(execute, inputs, before))
    passes: List[Pass] = []
    traced: List[Pass] = []
    engine = pipeline.engine if workload.workers else None
    min_passes = plan.min_trace_passes if tracer is not None else plan.min_passes
    start = perf_counter()
    while perf_counter() - start < seconds or len(passes) < min_passes:
        passes.append(run_pass(execute, inputs, before))
        if tracer is not None:
            instrument(tracer, engine)
            try:
                traced.append(run_pass(execute, inputs, before, tracer))
            finally:
                tracer.unpatch()
    done += passes + traced
    reference = done[0]
    failed = sum(count_failed(dataset, requests, p, reference) for p in done)
    attempted = len(done) * sum(len(r) for r in requests)
    return Replay(passes, traced, attempted, failed)


# ------------------------------------------------------------------- metrics


def flatten(outputs: Sequence[Output], part: int) -> list:
    return [item for output in outputs for item in output[part]]


def quality(
    setup: Setup,
    workload: Workload,
    requests: List[List[TrajectorySample]],
    last: Pass,
) -> Dict[str, float]:
    """Table V route F1 and Table III recovery quality of the last pass.

    ``recover`` returns no routes; for it the routes come from an untimed
    ``match`` of the same stream by the same trained matcher.
    """
    samples = [s for request in requests for s in request]
    if any(output is None for output in last.outputs):
        return {}
    if workload.op == "recover":
        routes = setup.pipeline.match([s.sparse for s in samples])
    else:
        routes = flatten(last.outputs, 0)
    result = {"route_f1": checks.route_f1_pct(routes, samples)}
    if workload.recovers:
        result.update(
            checks.recovery_quality(
                setup.dataset.network, flatten(last.outputs, 1), samples
            )
        )
    return result


def worker_status(pipeline: Pipeline) -> List[Dict[str, str]]:
    """``/proc`` status of every live engine worker (none when serial)."""
    workers = getattr(pipeline.engine, "_workers", {})
    return [environment.proc_status(w.process.pid) for w in workers.values()]


def hit_pct(tracer: Tracer, requests: List[List[TrajectorySample]]) -> float:
    """Share of GPS points whose true segment is among their k_c candidates."""
    hits = total = 0
    for span in tracer.spans:
        if span[NAME] != "candidates":
            continue
        truth = [e for s in requests[span[REQUEST]] for e in s.gt_segments]
        if len(truth) != len(span[NOTE]):
            continue
        for edge, candidates in zip(truth, span[NOTE]):
            hits += any(edge == c for c, _ in candidates)
            total += 1
    return 100.0 * hits / total if total else 0.0


def trace_summary(tracer: Tracer) -> Dict[str, float]:
    """Self time (s) per layer and request wall time (s) of traced passes."""
    layers: Dict[str, float] = {layer: 0.0 for layer in SPAN_LAYER.values()}
    for name, seconds in tracer.self_times().items():
        layers[SPAN_LAYER[name]] += seconds
    layers["wall"] = sum(tracer.durations("request"))
    return layers


def layer_metrics(
    tracer: Tracer,
    setup: Setup,
    requests: List[List[TrajectorySample]],
    result: Replay,
    serial_times: Optional[List[List[float]]],
) -> Dict[str, float]:
    """Per-layer metrics of a traced run (0 where a layer does not run)."""
    n_traj = len(result.traced) * sum(len(r) for r in requests)
    n_req = len(result.traced) * len(requests)
    per_traj = 1e3 / n_traj
    selfs = tracer.self_times()
    layers = trace_summary(tracer)
    counts = tracer.counts()

    def total(name: str) -> float:
        return sum(tracer.durations(name))

    def notes(name: str) -> List[Any]:
        return [span[NOTE] for span in tracer.spans if span[NAME] == name]

    def mean(values: Sequence[float]) -> float:
        return float(np.mean(values)) if len(values) else 0.0

    def median(values: Sequence[float]) -> float:
        return float(statistics.median(values)) if values else 0.0

    plans = [span for span in tracer.spans if span[NAME] == "routing.plan"]
    misses = [span[END] - span[START] for span in plans if span[NOTE][0]]
    steps = counts["decode.advance"]
    untraced = sum(per_request_medians([p.scaled for p in result.passes]))
    traced = sum(per_request_medians([p.scaled for p in result.traced]))
    return {
        "candidates.self_ms_per_traj": layers["candidates"] * per_traj,
        "candidates.points_per_call": mean([len(n) for n in notes("candidates")]),
        "candidates.hit_pct": hit_pct(tracer, requests),
        "features.self_ms_per_traj": layers["features"] * per_traj,
        "model.self_ms_per_traj": layers["model"] * per_traj,
        "model.traj_per_call": mean(notes("model")),
        "routing.self_ms_per_traj": layers["routing"] * per_traj,
        "routing.plans_per_traj": len(plans) / n_traj,
        "routing.hit_pct": 100.0 * (1 - len(misses) / len(plans)) if plans else 0.0,
        "routing.miss_ms": 1e3 * mean(misses),
        "routing.fallbacks": sum(span[NOTE][1] for span in plans) / len(result.traced),
        "reproject.self_ms_per_traj": layers["reproject"] * per_traj,
        "decode.ms_per_traj": total("decode") * per_traj,
        "decode.encoder_ms_per_traj": total("decode.encoder") * per_traj,
        "decode.steps_per_traj": steps / n_traj,
        "decode.step_us": 1e6 * sum(
            total(name) for name in ("decode.scores", "decode.ratio", "decode.advance")
        ) / steps if steps else 0.0,
        "decode.self_ms_per_traj": selfs.get("decode", 0.0) * per_traj,
        "nn.tensors_per_traj": tracer.tensors / n_traj,
        "engine.pack_ms_per_req": 1e3 * total("engine.pack") / n_req,
        "engine.unpack_ms_per_req": 1e3 * total("engine.unpack") / n_req,
        "engine.wait_pct": 100.0 * total("engine.wait") / layers["wall"],
        "engine.speedup_vs_serial": (
            sum(per_request_medians(serial_times)) / untraced if serial_times else 0.0
        ),
        "unattributed_ms_per_traj": layers["unattributed"] * per_traj,
        "setup.dataset_s": median([raw for raw, _ in setup.dataset_times]),
        "setup.node2vec_s": sum(setup.phases["setup.node2vec"]),
        "train.mma_epoch_s": median(setup.phases["train.mma_epoch"]),
        "train.trmma_epoch_s": median(setup.phases["train.trmma_epoch"]),
        "trace.overhead_pct": 100.0 * (traced / untraced - 1.0),
    }


# ----------------------------------------------------------------------- run

#: Floors below which the outputs count as wrong rather than slow.  They sit
#: far under the measured quality, so only a broken stage trips them.
ROUTE_F1_FLOOR = 50.0
RECOVERY_F1_FLOOR = 40.0


def serial_replay(
    setup: Setup,
    workload: Workload,
    plan: Plan,
    requests: List[List[TrajectorySample]],
    parallel: Pass,
) -> Tuple[List[Pass], int]:
    """The same requests through a SerialEngine on the parent's models.

    Returns the timed serial passes and the number of trajectories whose
    serial output is not bit-equal to the parallel one (parity) or fails
    validation.  A warm-up pass fills the parent's own route cache first,
    as the parallel workers' caches were filled by their warm-up.
    """
    pipeline, dataset = setup.pipeline, setup.dataset
    serial = SerialEngine(
        pipeline.matcher, pipeline.recoverer, engine_config(replace(workload, workers=0))
    )
    execute = executor(serial, workload.op, dataset.epsilon)
    inputs = [[s.sparse for s in request] for request in requests]
    warm = run_pass(execute, inputs)
    passes = [run_pass(execute, inputs) for _ in range(plan.min_trace_passes)]
    mismatched = sum(
        count_failed(dataset, requests, p, parallel) for p in [warm, *passes]
    )
    return passes, mismatched


def run(
    name: str, seed: int, seconds: float, trace: bool, plan: Plan = Plan()
) -> Tuple[Dict[str, Any], Dict[str, Any], Optional[Tracer]]:
    """One benchmark run: (result, diagnostics record, tracer or None).

    ``result`` holds ``correct``, ``attempted``, ``failed`` and the metric
    values: the end-to-end ones, plus the per-layer ones when ``trace``.
    """
    workload = plan.workload(name)
    telemetry.disable()  # timings never include the program's telemetry
    probe_start = environment.host_probe_ms(25)
    setup = build_setup(workload, plan, trace)
    tracer = Tracer() if trace else None
    serial: Optional[List[Pass]] = None
    mismatched = 0
    try:
        requests = make_stream(setup.dataset, workload, seed)
        result = replay(setup, workload, plan, requests, seconds, tracer)
        if trace and workload.workers:
            serial, mismatched = serial_replay(
                setup, workload, plan, requests, result.passes[-1]
            )
        scores = quality(setup, workload, requests, result.passes[-1])
        workers = worker_status(setup.pipeline)
    finally:
        setup.pipeline.close()
    probe_end = environment.host_probe_ms(25)

    n_traj = sum(len(r) for r in requests)
    timing = summarize([p.scaled for p in result.passes], n_traj)
    unscaled = summarize([p.times for p in result.passes], n_traj)
    attempted = result.attempted
    failed = result.failed + mismatched
    if serial is not None:
        attempted += (len(serial) + 1) * n_traj
    correct = (
        failed == 0
        and scores.get("route_f1", 0.0) >= ROUTE_F1_FLOOR
        and scores.get("recovery_f1_pct", RECOVERY_F1_FLOOR) >= RECOVERY_F1_FLOOR
    )
    values: Dict[str, float] = {
        "traj_per_s": timing["traj_per_s"],
        "latency_p50_ms": timing["latency_p50_ms"],
        "latency_p99_ms": timing["latency_p99_ms"],
        "setup_s": setup.setup_s,
        "peak_rss_mb": environment.peak_rss_mb()
        + sum(environment.status_mb(w, "VmHWM") for w in workers),
        "route_f1": scores.get("route_f1", 0.0),
    }
    if tracer is not None:
        values.update(
            layer_metrics(
                tracer, setup, requests, result,
                [p.scaled for p in serial] if serial else None,
            )
        )
        values.update({
            "engine.start_s": statistics.median(raw for raw, _ in setup.engine_starts)
            if workload.workers else 0.0,
            "engine.worker_rss_mb": float(np.mean(
                [environment.status_mb(w, "VmHWM") for w in workers]
            )) if workers else 0.0,
            "engine.worker_threads": float(np.mean(
                [int(w["Threads"]) for w in workers]
            )) if workers else 0.0,
            "quality.recovery_f1_pct": scores.get("recovery_f1_pct", 0.0),
            "quality.recovery_mae_m": scores.get("recovery_mae_m", 0.0),
            "failed_pct": 100.0 * failed / attempted,
            "host.probe_start_ms": probe_start,
            "host.probe_end_ms": probe_end,
        })
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": timing["passes"],
        "requests": timing["requests"],
        "trajectories_per_pass": n_traj,
        # Each set-up phase as [raw s, host-scaled s].
        "setup": {
            "dataset_s": setup.dataset_times,
            "pipeline_s": setup.pipeline_s,
            "fit_s": setup.fit_s,
            "engine_start_s": setup.engine_starts,
            "unscaled_setup_s": setup.total(RAW),
        },
        "quality": scores,
        "failed_pct": 100.0 * failed / attempted,
        "parity_mismatches": mismatched if serial is not None else None,
        "host_probe_ms": {
            "start": probe_start,
            "end": probe_end,
            "timed_median": statistics.median(
                x for p in result.passes for x in p.probes
            ),
        },
        "unscaled": unscaled,
    }
    if tracer is not None:
        record["layer_self_s"] = trace_summary(tracer)
    output = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }
    return output, record, tracer
