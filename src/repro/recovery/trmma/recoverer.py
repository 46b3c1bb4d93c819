"""TRMMA recoverer: the paper's method, wired end to end (Algorithm 2).

* Line 1: invoke the map matcher (MMA by default; the TRMMA-HMM/TRMMA-Near
  ablations swap it) to get the route of the sparse trajectory.
* Lines 2-4: project each GPS point onto its matched segment.
* Lines 5-17: DualFormer encoding + sequential multitask decoding.

Training is teacher-forced on ground-truth routes and matched points (the
matcher is trained separately on the same split); inference consumes only
the sparse trajectory.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ...config import TRMMAConfig
from ...data.trajectory import MapMatchedPoint, MatchedTrajectory, Trajectory
from ...matching.base import MapMatcher, project_points
from ...network.road_network import RoadNetwork
from ...nn import Adam
from ...telemetry import span
from ...utils.rng import SeedLike, make_rng
from ..base import TrajectoryRecoverer
from ...nn.tensor import no_grad
from .model import TRMMAModel, build_example


class TRMMARecoverer(TrajectoryRecoverer):
    """The paper's trajectory-recovery method."""

    name = "TRMMA"
    requires_training = True

    def __init__(
        self,
        network: RoadNetwork,
        matcher: MapMatcher,
        config: TRMMAConfig = TRMMAConfig(),
        seed: SeedLike = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(network)
        if name:
            self.name = name
        self.matcher = matcher
        #: The validated hyperparameter record of this instance; the
        #: parallel engine rebuilds recoverers from it.
        self.config = config
        self.model = TRMMAModel(
            network.n_segments,
            d_h=config.d_h,
            n_layers=config.n_layers,
            n_heads=config.n_heads,
            ffn_hidden=config.ffn_hidden,
            ratio_weight=config.ratio_weight,
            use_fusion=config.use_fusion,
            seed=make_rng(seed),
        )
        self.optimizer = Adam(self.model.parameters(), lr=config.lr)

    # ---------------------------------------------------------------- training

    def fit_epoch(self, dataset) -> float:
        """One teacher-forced epoch of Eq. 21 over the training split, one
        Adam step per sample.

        Within a sample the loss is batched: every missing point's heads run
        in one stacked decoder call (:meth:`TRMMAModel.training_loss`).
        Samples without missing points contribute a zero loss and take no
        step.
        """
        self.model.train()
        samples = list(dataset.train)
        total = 0.0
        for sample in samples:
            loss = self.model.training_loss(build_example(self.network, sample))
            if loss.item() > 0.0:
                self.optimizer.zero_grad()
                loss.backward()
                self.optimizer.step()
            total += loss.item()
        return total / max(len(samples), 1)

    def fit(
        self,
        dataset,
        epochs: int = 5,
        matcher_epochs: Optional[int] = None,
    ) -> "TRMMARecoverer":
        """Train the matcher (if trainable), then the recovery model."""
        if self.matcher.requires_training:
            for _ in range(matcher_epochs if matcher_epochs is not None else epochs):
                self.matcher.fit_epoch(dataset)
        for _ in range(epochs):
            self.fit_epoch(dataset)
        return self

    def validation_loss(self, dataset) -> float:
        self.model.eval()
        total, count = 0.0, 0
        with no_grad():
            for sample in dataset.val:
                example = build_example(self.network, sample)
                total += float(self.model.training_loss(example).data)
                count += 1
        return total / max(count, 1)

    # --------------------------------------------------------------- inference

    def recover(self, trajectory: Trajectory, epsilon: float) -> MatchedTrajectory:
        return self.recover_many([trajectory], epsilon)[0]

    def recover_many(
        self,
        trajectories: Sequence[Trajectory],
        epsilon: float,
        batch_size: int = 32,
    ) -> List[MatchedTrajectory]:
        """Batched form of :meth:`recover`, identical outputs per trajectory.

        The matcher stage (Algorithm 2 line 1) runs through the matcher's
        batched inference path, stitching amortises the planner's route
        cache across the whole set, and the multitask decoder advances every
        trajectory in lock-step (:meth:`TRMMAModel.decode`): one call per
        decoding event for the whole set, with hidden states stacked as
        (b, 1, d_h) rows and the classifier bucketed by route length, so
        each trajectory's output is bit-identical to decoding it alone.
        """
        trajectories = list(trajectories)
        all_segments = self.matcher.match_points_many(
            trajectories, batch_size=batch_size
        )
        _, results = self.recover_from_point_matches(
            trajectories, all_segments, epsilon
        )
        return results

    def recover_from_point_matches(
        self,
        trajectories: Sequence[Trajectory],
        all_segments: Sequence[List[int]],
        epsilon: float,
    ) -> "tuple[List[List[int]], List[MatchedTrajectory]]":
        """Algorithm 2 lines 2-17 given precomputed point matches.

        Returns both the stitched routes and the recovered trajectories, so
        callers that need the two (``Pipeline.match_and_recover``, the
        engine's combined task kind) run the matcher stage once instead of
        twice.  The per-trajectory outputs are identical to :meth:`recover`.
        """
        from ...matching.base import reproject_onto_route

        trajectories = list(trajectories)
        routes: List[List[int]] = []
        all_observed: List[List[MapMatchedPoint]] = []
        for trajectory, segments in zip(trajectories, all_segments):
            observed = project_points(self.network, trajectory, segments)
            route = self.matcher.stitch(segments)
            all_observed.append(
                reproject_onto_route(self.network, trajectory, observed, route)
            )
            routes.append(route)
        with no_grad(), span("decode"):
            results = self.model.decode(
                self.network, trajectories, all_observed, routes, epsilon
            )
        return routes, results
