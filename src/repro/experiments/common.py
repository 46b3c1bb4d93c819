"""Shared experiment infrastructure: scales, dataset cache, method suites.

Every experiment module accepts an :class:`ExperimentScale`.  The ``BENCH``
scale is what the ``benchmarks/`` suite runs by default — small enough for a
laptop CPU, large enough to show the paper's qualitative shapes.  ``FULL``
exists for longer runs; ``TINY`` backs the unit tests.

Datasets and trained method suites are cached per (scale, dataset) so the
benchmark modules for Tables III/V and Figures 5/6/9/10 can share one
training run instead of retraining per figure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Tuple

from ..config import EngineConfig, MMAConfig, TRMMAConfig
from ..data.datasets import Dataset, build_dataset
from ..matching import (
    DeepMMMatcher,
    FMMMatcher,
    GraphMMMatcher,
    LHMMMatcher,
    MMAMatcher,
    MapMatcher,
    NearestMatcher,
    attach_planner_statistics,
)
from ..network.distances import NetworkDistance
from ..network.node2vec import Node2VecConfig
from ..recovery import (
    DHTRRecoverer,
    LinearInterpolationRecoverer,
    MMSTGEDRecoverer,
    MTrajRecRecoverer,
    RNTrajRecRecoverer,
    ST2VecRecoverer,
    TERIRecoverer,
    TrajCLRecoverer,
    TrajGATRecoverer,
    TrajectoryRecoverer,
)
from ..recovery.seq2seq import ModelRouteMatcher
from ..recovery.trmma import TRMMARecoverer
from ..telemetry import log as telemetry_log
from ..telemetry import span


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs of an experiment run."""

    name: str
    n_trips: int
    epochs: int  # recovery-model training epochs
    matcher_epochs: int  # matcher training epochs
    datasets: Tuple[str, ...]
    d_h: int = 32
    seed: int = 11
    #: Parallel-engine worker processes for the efficiency figures
    #: (0 = serial only; set via ``--workers`` on the CLI).
    workers: int = 0


TINY = ExperimentScale("tiny", n_trips=30, epochs=2, matcher_epochs=3,
                       datasets=("PT",))
BENCH = ExperimentScale("bench", n_trips=200, epochs=6, matcher_epochs=10,
                        datasets=("PT", "XA", "BJ", "CD"))
FULL = ExperimentScale("full", n_trips=400, epochs=12, matcher_epochs=16,
                       datasets=("PT", "XA", "BJ", "CD"))

#: Mini-batch size used by the batched inference entries of the efficiency
#: figures (Figs. 5/9).
BENCH_BATCH_SIZE = 32

#: Node2Vec settings for experiment-scale MMA builds (cheap but effective).
FAST_NODE2VEC = Node2VecConfig(
    dimensions=32, walk_length=12, walks_per_node=2, window=3, negatives=3, epochs=1
)

def mma_config(scale: ExperimentScale) -> MMAConfig:
    """The experiment-scale MMA hyperparameters as a typed config."""
    return MMAConfig(d0=scale.d_h, d2=scale.d_h, node2vec=FAST_NODE2VEC)


def trmma_config(scale: ExperimentScale) -> TRMMAConfig:
    """The experiment-scale TRMMA hyperparameters as a typed config."""
    return TRMMAConfig(d_h=scale.d_h, ffn_hidden=4 * scale.d_h)


def engine_config(scale: ExperimentScale, batch_size: int = BENCH_BATCH_SIZE) -> EngineConfig:
    """Engine selection for the efficiency figures at this scale."""
    if scale.workers > 0:
        return EngineConfig(
            engine="parallel", workers=scale.workers, batch_size=batch_size
        )
    return EngineConfig(engine="serial", batch_size=batch_size)


_dataset_cache: Dict[Tuple[str, str], Dataset] = {}
_distance_cache: Dict[Tuple[str, str], NetworkDistance] = {}
_matcher_cache: Dict[Tuple[str, str], Dict[str, MapMatcher]] = {}
_recoverer_cache: Dict[Tuple[str, str], Dict[str, TrajectoryRecoverer]] = {}


def clear_caches() -> None:
    """Drop all cached datasets and trained methods (test isolation)."""
    _dataset_cache.clear()
    _distance_cache.clear()
    _matcher_cache.clear()
    _recoverer_cache.clear()


def get_dataset(name: str, scale: ExperimentScale) -> Dataset:
    key = (name, scale.name)
    if key not in _dataset_cache:
        _dataset_cache[key] = build_dataset(
            name, n_trips=scale.n_trips, seed=scale.seed
        )
    return _dataset_cache[key]


def get_distance(name: str, scale: ExperimentScale) -> NetworkDistance:
    key = (name, scale.name)
    if key not in _distance_cache:
        _distance_cache[key] = NetworkDistance(get_dataset(name, scale).network)
    return _distance_cache[key]


# --------------------------------------------------------------- map matching


def build_matchers(
    dataset: Dataset, scale: ExperimentScale
) -> Dict[str, MapMatcher]:
    """Untrained instances of every Table V method (shared DA statistics)."""
    stats = dataset.transition_statistics()
    net = dataset.network
    seed = scale.seed

    rn_model = RNTrajRecRecoverer(net, d_h=scale.d_h, seed=seed)
    matchers: Dict[str, MapMatcher] = {
        "Nearest": NearestMatcher(net),
        "FMM": FMMMatcher(net),
        "LHMM": LHMMMatcher(net, seed=seed),
        "RNTrajRec": ModelRouteMatcher(rn_model, name="RNTrajRec"),
        "DeepMM": DeepMMMatcher(net, seed=seed),
        "GraphMM": GraphMMMatcher(net, seed=seed),
        "MMA": MMAMatcher.from_config(
            net, mma_config(scale), seed=seed,
        ),
    }
    for matcher in matchers.values():
        attach_planner_statistics(matcher, stats)
    return matchers


def fit_matcher(matcher: MapMatcher, dataset: Dataset, epochs: int) -> None:
    """Train a matcher with per-epoch validation selection (best state wins).

    Telemetry: the whole fit is a ``fit_matcher`` span; each epoch's loss
    and validation accuracy are logged at debug level.
    """
    if not matcher.requires_training:
        return
    best_score, best_snapshot = -1.0, None
    with span("fit_matcher"):
        for epoch in range(epochs):
            loss = matcher.fit_epoch(dataset)
            score = matcher.validation_point_accuracy(dataset)
            telemetry_log.debug(
                f"fit {matcher.name} epoch {epoch + 1}/{epochs}: "
                f"loss {loss:.4f}, val acc {score:.4f}"
            )
            if score > best_score:
                best_score, best_snapshot = score, matcher.snapshot()
    if best_snapshot is not None:
        matcher.restore(best_snapshot)


def trained_matchers(name: str, scale: ExperimentScale) -> Dict[str, MapMatcher]:
    """Table V methods, trained once per (dataset, scale) and cached."""
    key = (name, scale.name)
    if key not in _matcher_cache:
        dataset = get_dataset(name, scale)
        matchers = build_matchers(dataset, scale)
        for matcher in matchers.values():
            fit_matcher(matcher, dataset, scale.matcher_epochs)
        _matcher_cache[key] = matchers
    return _matcher_cache[key]


# ----------------------------------------------------------------- recovery


def build_recoverers(
    dataset: Dataset, scale: ExperimentScale
) -> Dict[str, TrajectoryRecoverer]:
    """Untrained instances of every Table III method."""
    stats = dataset.transition_statistics()
    net = dataset.network
    seed = scale.seed
    d_h = scale.d_h

    fmm = FMMMatcher(net)
    attach_planner_statistics(fmm, stats)
    mma = MMAMatcher.from_config(net, mma_config(scale), seed=seed)
    attach_planner_statistics(mma, stats)

    return {
        "Linear": LinearInterpolationRecoverer(net, fmm, name="Linear"),
        "DHTR": DHTRRecoverer(net, d_h=d_h, seed=seed),
        "TERI": TERIRecoverer(net, d_h=d_h, seed=seed),
        "TrajGAT+Dec": TrajGATRecoverer(net, d_h=d_h, seed=seed),
        "TrajCL+Dec": TrajCLRecoverer(net, d_h=d_h, seed=seed),
        "ST2Vec+Dec": ST2VecRecoverer(net, d_h=d_h, seed=seed),
        "MTrajRec": MTrajRecRecoverer(net, d_h=d_h, seed=seed),
        "MM-STGED": MMSTGEDRecoverer(net, d_h=d_h, statistics=stats, seed=seed),
        "RNTrajRec": RNTrajRecRecoverer(net, d_h=d_h, seed=seed),
        "TRMMA": TRMMARecoverer.from_config(
            net, mma, trmma_config(scale), seed=seed
        ),
    }


def train_recoverer(
    recoverer: TrajectoryRecoverer, dataset: Dataset, scale: ExperimentScale
) -> None:
    """Train one recovery method (and its matcher when it has one).

    The matcher is selected by validation point accuracy, the recovery model
    by validation loss — both restored to their best epoch afterwards.
    """
    matcher = getattr(recoverer, "matcher", None)
    if matcher is not None and getattr(matcher, "requires_training", False):
        fit_matcher(matcher, dataset, scale.matcher_epochs)
    if not recoverer.requires_training:
        return
    best_loss, best_snapshot = float("inf"), None
    with span("fit_recoverer"):
        for epoch in range(scale.epochs):
            train_loss = recoverer.fit_epoch(dataset)
            loss = recoverer.validation_loss(dataset)
            val = "n/a" if loss is None else f"{loss:.4f}"
            telemetry_log.debug(
                f"fit {recoverer.name} epoch {epoch + 1}/{scale.epochs}: "
                f"train loss {train_loss:.4f}, val loss {val}"
            )
            if loss is not None and loss < best_loss:
                best_loss, best_snapshot = loss, recoverer.snapshot()
    if best_snapshot is not None:
        recoverer.restore(best_snapshot)


def trained_recoverers(
    name: str, scale: ExperimentScale
) -> Dict[str, TrajectoryRecoverer]:
    """Table III methods, trained once per (dataset, scale) and cached."""
    key = (name, scale.name)
    if key not in _recoverer_cache:
        dataset = get_dataset(name, scale)
        recoverers = build_recoverers(dataset, scale)
        for recoverer in recoverers.values():
            train_recoverer(recoverer, dataset, scale)
        _recoverer_cache[key] = recoverers
    return _recoverer_cache[key]
