"""In-process execution engine: the ``W = 0`` path.

Wraps a trained matcher (and optionally recoverer) behind the batch-first
engine interface that :class:`repro.api.Pipeline` programs against.  All
work runs on the calling process through the PR-1 batched inference paths;
:class:`~repro.engine.parallel.ParallelEngine` is the drop-in multi-process
counterpart and must stay bit-exact with this one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..config import EngineConfig
from ..data.trajectory import MatchedTrajectory, Trajectory
from ..matching.base import MapMatcher
from ..recovery.trmma.recoverer import TRMMARecoverer


class SerialEngine:
    """Single-process engine over the batched matcher/recoverer paths.

    Its four inference methods are also the task kinds of the parallel
    engine: a worker runs each share through the same-named method of a
    :class:`SerialEngine` over its rebuilt models.
    """

    def __init__(
        self,
        matcher: MapMatcher,
        recoverer: Optional[TRMMARecoverer] = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.matcher = matcher
        self.recoverer = recoverer
        self.config = config or EngineConfig()

    @property
    def workers(self) -> int:
        return 0

    # ------------------------------------------------------------- inference

    def match_points(
        self, trajectories: Sequence[Trajectory]
    ) -> List[List[int]]:
        """Per-point segment matches for every trajectory."""
        return self.matcher.match_points_many(
            list(trajectories), batch_size=self.config.batch_size
        )

    def match(self, trajectories: Sequence[Trajectory]) -> List[List[int]]:
        """Stitched routes (Definition 4) for every trajectory."""
        return self.matcher.match_many(
            list(trajectories), batch_size=self.config.batch_size
        )

    def recover(
        self, trajectories: Sequence[Trajectory], epsilon: float
    ) -> List[MatchedTrajectory]:
        """Recovered ``epsilon``-dense trajectories (Algorithm 2)."""
        self._require_recoverer()
        return self.recoverer.recover_many(
            list(trajectories), epsilon, batch_size=self.config.batch_size
        )

    def match_and_recover(
        self, trajectories: Sequence[Trajectory], epsilon: float
    ) -> Tuple[List[List[int]], List[MatchedTrajectory]]:
        """Routes and recovered trajectories with one matcher pass."""
        self._require_recoverer()
        trajectories = list(trajectories)
        all_segments = self.recoverer.matcher.match_points_many(
            trajectories, batch_size=self.config.batch_size
        )
        return self.recoverer.recover_from_point_matches(
            trajectories, all_segments, epsilon
        )

    # -------------------------------------------------------------- lifecycle

    def _require_recoverer(self) -> None:
        if self.recoverer is None:
            raise ValueError(
                "this engine was built without a recoverer; "
                "recovery requires a TRMMAConfig in the pipeline config"
            )

    def close(self) -> None:
        """Nothing to release in process."""

    def __enter__(self) -> "SerialEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
