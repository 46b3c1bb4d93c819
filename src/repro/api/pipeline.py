"""The unified entry point: build, train, and run TRMMA/MMA behind one object.

Without this facade, callers assemble the stack by hand — construct
``MMAMatcher`` from its config, attach planner statistics, construct
``TRMMARecoverer`` around it, then pick between ``match_many`` /
``recover_many`` kwargs at every call site.  :class:`Pipeline` owns that
wiring: hyperparameters come in as one validated
:class:`~repro.config.PipelineConfig`, and execution (serial in-process or
the multi-process :class:`~repro.engine.ParallelEngine`) is
selected by its :class:`~repro.config.EngineConfig` rather than by the call
site.

All inference methods are batch-first and bit-exact across engines::

    cfg = PipelineConfig.from_dict({"engine": {"engine": "parallel", "workers": 4}})
    with Pipeline.from_config(dataset.network, cfg, dataset.transition_statistics()) as p:
        p.fit(dataset, epochs=6)
        routes = p.match(trajectories)
        dense = p.recover(trajectories, epsilon=dataset.epsilon)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from ..config import EngineConfig, PipelineConfig
from ..data.trajectory import MatchedTrajectory, Trajectory

if TYPE_CHECKING:  # avoid a data->api import cycle at runtime
    from ..data.datasets import Dataset
    from ..engine.parallel import ParallelEngine
    from ..engine.serial import SerialEngine
from ..matching.base import MapMatcher
from ..network.road_network import RoadNetwork
from ..network.routing import TransitionStatistics
from ..recovery.trmma.recoverer import TRMMARecoverer


class Pipeline:
    """Facade over matcher + recoverer + execution engine."""

    def __init__(
        self,
        matcher: MapMatcher,
        recoverer: Optional[TRMMARecoverer] = None,
        engine_config: Optional[EngineConfig] = None,
    ) -> None:
        self.matcher = matcher
        self.recoverer = recoverer
        self.engine_config = engine_config or EngineConfig()
        self._engine = None

    # ------------------------------------------------------------ construction

    @classmethod
    def from_config(
        cls,
        network: RoadNetwork,
        config: Optional[PipelineConfig] = None,
        statistics: Optional[TransitionStatistics] = None,
    ) -> "Pipeline":
        """Build an untrained MMA (+ TRMMA) stack from one config object.

        ``statistics`` (route-count statistics of the training split) feed
        the matcher's DA route planner; without them the planner falls back
        to uniform transition scores.
        """
        from ..matching import attach_planner_statistics
        from ..matching.mma.matcher import MMAMatcher

        config = config or PipelineConfig()
        matcher = MMAMatcher(network, config.mma, seed=config.seed)
        if statistics is not None:
            attach_planner_statistics(matcher, statistics)
        recoverer = None
        if config.trmma is not None:
            recoverer = TRMMARecoverer(
                network, matcher, config.trmma, seed=config.seed
            )
        return cls(matcher, recoverer, engine_config=config.engine)

    @classmethod
    def from_components(
        cls,
        matcher: MapMatcher,
        recoverer: Optional[TRMMARecoverer] = None,
        engine: Optional[EngineConfig] = None,
    ) -> "Pipeline":
        """Wrap an already-built (possibly trained) matcher/recoverer pair."""
        if recoverer is not None and recoverer.matcher is not matcher:
            raise ValueError(
                "recoverer.matcher must be the same object as matcher"
            )
        return cls(matcher, recoverer, engine_config=engine)

    # ---------------------------------------------------------------- training

    def fit(
        self,
        dataset: "Dataset",
        epochs: int = 5,
        matcher_epochs: Optional[int] = None,
    ) -> "Pipeline":
        """Train the matcher, then the recovery model (when present).

        Any running engine is shut down first: parallel workers hold a
        read-only snapshot of the weights, so training must precede the
        next dispatch (the engine is rebuilt lazily with the new weights).
        """
        self._reset_engine()
        if self.recoverer is not None:
            self.recoverer.fit(
                dataset, epochs=epochs, matcher_epochs=matcher_epochs
            )
        elif self.matcher.requires_training:
            n = matcher_epochs if matcher_epochs is not None else epochs
            for _ in range(n):
                self.matcher.fit_epoch(dataset)
        return self

    # --------------------------------------------------------------- inference

    @property
    def engine(self) -> "Union[SerialEngine, ParallelEngine]":
        """The execution engine, built lazily from ``engine_config``."""
        if self._engine is None:
            from ..engine import build_engine

            self._engine = build_engine(
                self.matcher, self.recoverer, self.engine_config
            )
        return self._engine

    @property
    def workers(self) -> int:
        """Worker-process count of the active engine (0 = serial)."""
        return self.engine.workers

    def match_points(
        self, trajectories: Sequence[Trajectory]
    ) -> List[List[int]]:
        """Per-point segment ids for every trajectory (MMA Problem 2)."""
        return self.engine.match_points(trajectories)

    def match(self, trajectories: Sequence[Trajectory]) -> List[List[int]]:
        """Stitched routes (Definition 4) for every trajectory."""
        return self.engine.match(trajectories)

    def recover(
        self, trajectories: Sequence[Trajectory], epsilon: float
    ) -> List[MatchedTrajectory]:
        """``epsilon``-dense recovered trajectories (TRMMA, Algorithm 2)."""
        return self.engine.recover(trajectories, epsilon)

    def match_and_recover(
        self, trajectories: Sequence[Trajectory], epsilon: float
    ) -> Tuple[List[List[int]], List[MatchedTrajectory]]:
        """Routes and recovered trajectories from one matcher pass."""
        return self.engine.match_and_recover(trajectories, epsilon)

    # --------------------------------------------------------------- lifecycle

    def _reset_engine(self) -> None:
        if self._engine is not None:
            self._engine.close()
            self._engine = None

    def close(self) -> None:
        """Shut down the engine (terminates parallel workers)."""
        self._reset_engine()

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
