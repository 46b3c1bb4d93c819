"""TRMMA model: DualFormer encoder + multitask decoder (Algorithm 2).

Training is teacher-forced over ground-truth dense trajectories: the decoder
state advances with the *true* (segment, ratio, time) of every emitted point
while the losses compare its predictions for the missing points against the
truth — binary cross-entropy over the route segments (Eq. 19) plus
λ-weighted MAE over the ratios (Eq. 20-21).

Inference (:meth:`TRMMAModel.decode`) is greedy: each missing point takes
the highest-probability segment in the sub-route from the previously emitted
segment onward (Eq. 17) and the regressed ratio.

The decoder heads consume a constant-speed positional prior along the route
(see :mod:`.decoder` for the rationale); this module computes it — segment
offsets relative to the time-interpolated expected travel distance between
the two observed points bracketing each missing point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...data.trajectory import MapMatchedPoint, MatchedTrajectory, Trajectory
from ...network.road_network import RoadNetwork
from ...nn import Module, Tensor, bce_with_logits, concat
from ...utils.rng import SeedLike, make_rng
from ..base import missing_point_counts
from ..route_utils import route_cumulative_lengths, route_index_of_segments
from .decoder import RecoveryDecoder
from .encoder import DualFormerEncoder, build_point_features, route_attributes


@dataclass
class RecoveryExample:
    """A teacher-forcing training example derived from a TrajectorySample."""

    point_features: np.ndarray  # (l, 4)
    point_segments: np.ndarray  # (l,) int
    route: np.ndarray  # (l_R,) int
    route_cum: np.ndarray  # (l_R + 1,) cumulative lengths (metres)
    route_attributes: np.ndarray  # (l_R, 2) [exit signalised, speed-1]
    # Dense sequence, in order.
    dense_route_indices: np.ndarray  # (l_eps,) int
    dense_ratios: np.ndarray  # (l_eps,) float
    dense_times_norm: np.ndarray  # (l_eps,) float in [0, 1]
    dense_expected_offsets: np.ndarray  # (l_eps,) metres along route
    dense_observed: np.ndarray  # (l_eps,) bool


def _point_offsets(
    route_cum: np.ndarray, indices: Sequence[int], ratios: Sequence[float]
) -> np.ndarray:
    """Linear offsets along the route of points given (route index, ratio)."""
    cum = np.asarray(route_cum)
    idx = np.asarray(indices, dtype=np.int64)
    lengths = cum[idx + 1] - cum[idx]
    return cum[idx] + np.asarray(ratios) * lengths


def interpolate_expected_offsets(
    times: np.ndarray,
    observed_mask: np.ndarray,
    observed_offsets: np.ndarray,
) -> np.ndarray:
    """Constant-speed expected offset of every point, interpolating between
    the observed anchors by time (the positional prior's backbone)."""
    obs_times = times[observed_mask]
    return np.interp(times, obs_times, observed_offsets)


def _local_ratio(route_cum: np.ndarray, offset: float) -> Tuple[int, float]:
    """(route index, within-segment ratio) of a linear offset."""
    idx = int(np.searchsorted(route_cum, offset, side="right") - 1)
    idx = min(max(idx, 0), len(route_cum) - 2)
    length = max(float(route_cum[idx + 1] - route_cum[idx]), 1e-9)
    ratio = (offset - float(route_cum[idx])) / length
    return idx, float(np.clip(ratio, 0.0, np.nextafter(1.0, 0.0)))


def _ratio_within(route_cum: np.ndarray, index, offset):
    """Expected within-segment ratio of segment ``index`` given the
    expected linear ``offset`` (clamped to the segment's span) — the prior
    the ratio head refines, always consistent with the chosen segment.

    ``index`` and ``offset`` may be arrays of equal shape (one entry per
    row, indexing one flat ``route_cum``)."""
    start = route_cum[index]
    length = np.maximum(route_cum[index + 1] - start, 1e-9)
    return np.clip((offset - start) / length, 0.0, np.nextafter(1.0, 0.0))


def build_example(network: RoadNetwork, sample) -> RecoveryExample:
    """Encode one :class:`TrajectorySample` for teacher-forced training."""
    matched = sample.gt_point_matches
    features = build_point_features(network, sample.sparse, matched)
    dense_segments = [a.edge_id for a in sample.dense]
    indices = route_index_of_segments(sample.route, dense_segments)
    observed = np.zeros(len(sample.dense), dtype=bool)
    observed[np.asarray(sample.observed_indices)] = True

    route_cum = route_cumulative_lengths(network, sample.route)
    all_offsets = _point_offsets(
        route_cum, indices, [a.ratio for a in sample.dense]
    )
    times = np.asarray([a.t for a in sample.dense])
    expected = interpolate_expected_offsets(times, observed, all_offsets[observed])

    t0 = sample.dense[0].t
    horizon = max(sample.dense[-1].t - t0, 1.0)
    return RecoveryExample(
        point_features=features,
        point_segments=np.asarray([a.edge_id for a in matched]),
        route=np.asarray(sample.route),
        route_cum=route_cum,
        route_attributes=route_attributes(network, sample.route),
        dense_route_indices=np.asarray(indices),
        dense_ratios=np.asarray([a.ratio for a in sample.dense]),
        dense_times_norm=(times - t0) / horizon,
        dense_expected_offsets=expected,
        dense_observed=observed,
    )


class TRMMAModel(Module):
    """The full trajectory-recovery network."""

    def __init__(
        self,
        n_segments: int,
        d_h: int = 64,
        n_layers: int = 2,
        n_heads: int = 4,
        ffn_hidden: int = 512,
        ratio_weight: float = 5.0,
        use_fusion: bool = True,
        use_prior: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rng = make_rng(seed)
        self.encoder = DualFormerEncoder(
            n_segments,
            d_h=d_h,
            n_layers=n_layers,
            n_heads=n_heads,
            ffn_hidden=ffn_hidden,
            use_fusion=use_fusion,
            seed=rng,
        )
        self.decoder = RecoveryDecoder(d_h=d_h, use_prior=use_prior, seed=rng)
        self.ratio_weight = ratio_weight

    # ------------------------------------------------------------------ prior

    #: Width (metres) of the Gaussian bump around the expected position.
    PRIOR_BANDWIDTH_M = 80.0

    @classmethod
    def _segment_priors(cls, route_cum: np.ndarray, expected_offset) -> np.ndarray:
        """Per-segment prior basis (..., l_R, 3): signed scaled offset of the
        segment midpoint from the expected travel position, its absolute
        value, and a Gaussian bump peaking at the expected position.

        ``route_cum`` is (..., l_R + 1) and ``expected_offset`` broadcasts
        against its leading axes (a scalar for one route, (b,) for a stack
        of b equal-length routes or b positions on one route)."""
        route_cum = np.asarray(route_cum)
        expected = np.asarray(expected_offset)[..., None]
        mids = (route_cum[..., :-1] + route_cum[..., 1:]) / 2.0
        total = np.maximum(route_cum[..., -1:], 1.0)
        signed = (mids - expected) / total
        bump = np.exp(-((mids - expected) / cls.PRIOR_BANDWIDTH_M) ** 2)
        return np.stack([signed, np.abs(signed), bump], axis=-1)

    # ---------------------------------------------------------------- training

    def training_loss(self, example: RecoveryExample) -> Tensor:
        """Teacher-forced loss ``L_seg + λ L_r`` for one trajectory (Eq. 21).

        Two phases.  The GRU sweeps the ground-truth points as (1, 1, d_h)
        rows, recording the hidden state just before each missing point and
        stopping after the last one (later anchors feed no loss).  The ``m``
        recorded states are then stacked into one (m, 1, d_h) call of the
        decoder heads against ``H`` broadcast to (m, l_R, d_h): one BCE over
        the (m, l_R) scores — every row has ``l_R`` entries, so its mean is
        the mean of the per-point BCEs — plus ``λ/m`` times the summed ratio
        errors.  This equals the point-by-point loss up to floating-point
        summation order, not bit-for-bit.
        """
        missing = np.flatnonzero(~example.dense_observed[1:]) + 1
        if not len(missing):
            return Tensor(np.zeros(()))
        ((_, fused),) = self.encoder(
            [example.point_features],
            [example.point_segments],
            [example.route],
            [example.route_attributes],
        )
        indices, ratios = example.dense_route_indices, example.dense_ratios

        # Phase 1: teacher-forced GRU sweep with the ground-truth points.
        hidden = self.decoder.initial_state(fused)
        states: List[Tensor] = []
        for j in range(int(missing[-1])):
            idx = int(indices[j])
            hidden = self.decoder.advance(
                hidden,
                fused[:, idx : idx + 1],
                ratios[j : j + 1],
                example.dense_times_norm[j : j + 1],
            )
            if not example.dense_observed[j + 1]:
                states.append(hidden)

        # Phase 2: both heads for every missing point in one stacked call.
        m, l_route = len(missing), len(example.route)
        targets = indices[missing]
        expected = example.dense_expected_offsets[missing]
        scores, predicted_ratio = self.decoder.step(
            concat(states, axis=0),
            fused * Tensor(np.ones((m, 1, 1))),
            self._segment_priors(example.route_cum, expected),
            _ratio_within(example.route_cum, targets, expected),
        )
        labels = np.zeros((m, l_route))
        labels[np.arange(m), targets] = 1.0
        ratio_error = (predicted_ratio - ratios[missing]).abs().sum()
        return bce_with_logits(scores, labels) + ratio_error * (self.ratio_weight / m)

    # --------------------------------------------------------------- inference

    def decode(
        self,
        network: RoadNetwork,
        trajectories: Sequence[Trajectory],
        observed: Sequence[Sequence[MapMatchedPoint]],
        routes: Sequence[Sequence[int]],
        epsilon: float,
    ) -> List[MatchedTrajectory]:
        """Greedy recovery of ε-sampling trajectories (Algorithm 2), one
        per input; a single trajectory is a batch of one.

        Every trajectory is a schedule of events: each observed point is an
        *anchor* (the GRU advances with it verbatim) and each missing point
        a *prediction* (classify, read out the ratio, then advance).  The
        decoder runs the schedules in lock-step — event ``k`` of every
        unfinished trajectory in one call — and rows leave the batch as
        their schedules end.  Hidden states stay (b, 1, d_h) stacks and the
        classifier and softmax readout run in buckets of equal route length,
        never padded or flattened, so each row is bit-identical to decoding
        its trajectory alone.
        """
        self.eval()
        if not trajectories:
            return []
        observed = [list(points) for points in observed]
        routes = [list(route) for route in routes]
        buckets = self.encoder(
            [
                build_point_features(network, trajectory, points)
                for trajectory, points in zip(trajectories, observed)
            ],
            [np.asarray([a.edge_id for a in points]) for points in observed],
            [np.asarray(route) for route in routes],
            [route_attributes(network, route) for route in routes],
        )
        cums = [route_cumulative_lengths(network, route) for route in routes]
        plans = [
            _DecodePlan.build(*inputs, epsilon)
            for inputs in zip(trajectories, observed, routes, cums)
        ]
        lengths = np.asarray([len(plan.predict) for plan in plans])
        grid = _DecodePlan.stack(plans, int(lengths.max()))

        n, d_h = len(routes), self.decoder.d_h
        hidden = np.empty((n, 1, d_h))
        bucket_of = np.empty(n, dtype=np.int64)
        slot_of = np.empty(n, dtype=np.int64)
        for b, (rows, fused) in enumerate(buckets):
            hidden[rows] = self.decoder.initial_state(fused).data
            bucket_of[rows], slot_of[rows] = b, np.arange(len(rows))
        bucket_fused = [fused.data for _, fused in buckets]
        bucket_cum = [np.stack([cums[i] for i in rows]) for rows, _ in buckets]
        # Flat per-row tables: H rows for the GRU input, cumulative lengths
        # for the ratio prior.
        flat_fused = np.concatenate(
            [bucket_fused[bucket_of[i]][slot_of[i]] for i in range(n)]
        )
        fused_start = np.cumsum([0] + [len(route) for route in routes])[:-1]
        flat_cum = np.concatenate(cums)
        cum_start = np.cumsum([0] + [len(cum) for cum in cums])[:-1]

        for k in range(grid.predict.shape[1]):
            live = np.flatnonzero(lengths > k)
            rows = live[grid.predict[live, k]]
            if len(rows):
                expected = grid.expected[rows, k]
                picked = np.empty(len(rows), dtype=np.int64)
                readout = np.empty((len(rows), 1, d_h))
                for b in np.flatnonzero(np.bincount(bucket_of[rows])):
                    members = np.flatnonzero(bucket_of[rows] == b)
                    sub = rows[members]
                    fused = Tensor(bucket_fused[b][slot_of[sub]])
                    priors = self._segment_priors(
                        bucket_cum[b][slot_of[sub]], expected[members]
                    )
                    scores = self.decoder.scores(Tensor(hidden[sub]), fused, priors)
                    # Eq. 17 plus the gap's right anchor: the argmax runs
                    # over the sub-route from the previously emitted
                    # segment up to the anchor's.
                    span = np.arange(scores.shape[1])
                    allowed = (span >= grid.index[sub, k - 1, None]) & (
                        span <= grid.upper[sub, k, None]
                    )
                    masked = np.where(allowed, scores.data, -np.inf)
                    picked[members] = masked.argmax(axis=1)
                    readout[members] = self.decoder.readout(fused, scores).data
                prior = _ratio_within(flat_cum, cum_start[rows] + picked, expected)
                predicted = self.decoder.ratio(
                    Tensor(hidden[rows]), Tensor(readout), prior
                ).data
                grid.index[rows, k] = picked
                grid.ratio[rows, k] = np.minimum(
                    np.maximum(predicted, 0.0), np.nextafter(1.0, 0.0)
                )
            emitted = flat_fused[fused_start[live] + grid.index[live, k]]
            hidden[live] = self.decoder.advance(
                Tensor(hidden[live]),
                Tensor(emitted.reshape(len(live), 1, d_h)),
                grid.ratio[live, k],
                grid.t_norm[live, k],
            ).data

        results: List[MatchedTrajectory] = []
        for i, (route, points) in enumerate(zip(routes, observed)):
            anchors = iter(points)
            results.append(
                MatchedTrajectory(
                    [
                        MapMatchedPoint(
                            edge_id=int(route[grid.index[i, k]]),
                            ratio=float(grid.ratio[i, k]),
                            t=float(grid.t[i, k]),
                        )
                        if grid.predict[i, k]
                        else next(anchors)
                        for k in range(lengths[i])
                    ]
                )
            )
        return results


@dataclass
class _DecodePlan:
    """Decode schedules: an event per output point, in order — the observed
    anchors and, between them, the missing points.  One trajectory's plan
    holds (n,) arrays; :meth:`stack` pads plans into (rows, events) grids."""

    predict: np.ndarray  # bool: missing point (else observed anchor)
    t: np.ndarray  # timestamp
    t_norm: np.ndarray  # timestamp normalised over the trajectory
    expected: np.ndarray  # constant-speed offset along the route
    upper: np.ndarray  # int: last route index a prediction may take
    index: np.ndarray  # int: route index (given for anchors, decoded otherwise)
    ratio: np.ndarray  # position ratio (given for anchors, decoded otherwise)

    @classmethod
    def build(
        cls,
        trajectory: Trajectory,
        observed: List[MapMatchedPoint],
        route: List[int],
        route_cum: np.ndarray,
        epsilon: float,
    ) -> "_DecodePlan":
        obs_index = np.asarray(
            route_index_of_segments(route, [a.edge_id for a in observed]),
            dtype=np.int64,
        )
        obs_t = np.asarray([a.t for a in observed], dtype=np.float64)
        obs_ratio = np.asarray([a.ratio for a in observed], dtype=np.float64)
        offsets = _point_offsets(route_cum, obs_index, obs_ratio)
        counts = np.asarray(missing_point_counts(trajectory, epsilon), dtype=np.int64)
        # Missing point j (1-based) of gap g sits at t_g + j ε, at the
        # time-interpolated offset between the gap's two anchors; its
        # segment lies on the sub-route up to the gap's right anchor.
        gap = np.repeat(np.arange(len(counts)), counts)
        j = np.arange(1, len(gap) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
        t0 = obs_t[gap]
        t = t0 + j * epsilon
        span = np.maximum(obs_t[gap + 1] - t0, 1e-9)

        n = len(observed) + len(gap)
        anchor = np.arange(len(observed)) + np.concatenate([[0], np.cumsum(counts)])
        missing = np.arange(len(gap)) + gap + 1
        plan = cls(
            predict=np.zeros(n, dtype=bool),
            t=np.zeros(n),
            t_norm=np.zeros(n),
            expected=np.zeros(n),
            upper=np.zeros(n, dtype=np.int64),
            index=np.zeros(n, dtype=np.int64),
            ratio=np.zeros(n),
        )
        plan.predict[missing] = True
        plan.t[anchor], plan.t[missing] = obs_t, t
        plan.t_norm = (plan.t - obs_t[0]) / max(obs_t[-1] - obs_t[0], 1.0)
        plan.expected[missing] = offsets[gap] + (t - t0) / span * (
            offsets[gap + 1] - offsets[gap]
        )
        plan.upper[missing] = np.maximum(obs_index[gap + 1], obs_index[gap])
        plan.index[anchor] = obs_index
        plan.ratio[anchor] = obs_ratio
        return plan

    @classmethod
    def stack(cls, plans: Sequence["_DecodePlan"], width: int) -> "_DecodePlan":
        fields = {}
        for name in cls.__dataclass_fields__:
            dtype = getattr(plans[0], name).dtype
            fields[name] = np.zeros((len(plans), width), dtype)
            for row, plan in enumerate(plans):
                values = getattr(plan, name)
                fields[name][row, : len(values)] = values
        return cls(**fields)
