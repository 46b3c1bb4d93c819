"""Decode-time invariants shared by all recoverers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TRMMAConfig
from repro.matching import FMMMatcher
from repro.recovery import MTrajRecRecoverer
from repro.recovery.route_utils import route_cumulative_lengths
from repro.recovery.trmma import TRMMARecoverer


@pytest.fixture(scope="module")
def trained_trmma(tiny_dataset):
    rec = TRMMARecoverer(
        tiny_dataset.network, FMMMatcher(tiny_dataset.network),
        TRMMAConfig(d_h=16, ffn_hidden=64), seed=0,
    )
    for _ in range(2):
        rec.fit_epoch(tiny_dataset)
    return rec


class TestTRMMADecodeInvariants:
    @given(idx=st.integers(0, 100))
    @settings(max_examples=8, deadline=None)
    def test_monotone_route_progress(self, tiny_dataset, trained_trmma, idx):
        """Emitted points must progress monotonically along the route."""
        s = tiny_dataset.test[idx % len(tiny_dataset.test)]
        observed = trained_trmma.matcher.matched_points(s.sparse)
        route = trained_trmma.matcher.stitch([a.edge_id for a in observed])
        from repro.matching.base import reproject_onto_route

        observed = reproject_onto_route(
            tiny_dataset.network, s.sparse, observed, route
        )
        (out,) = trained_trmma.model.decode(
            tiny_dataset.network, [s.sparse], [observed], [route],
            tiny_dataset.epsilon,
        )
        cum = route_cumulative_lengths(tiny_dataset.network, route)
        cursor = 0
        offsets = []
        for p in out:
            pos = route.index(p.edge_id, cursor) if p.edge_id in route[cursor:] \
                else route.index(p.edge_id)
            cursor = pos
            offsets.append(
                cum[pos] + p.ratio * tiny_dataset.network.segment_length(p.edge_id)
            )
        # Offsets never regress by more than a segment (observed anchors can
        # correct a greedy overshoot backwards, which is intended).
        max_seg = max(
            tiny_dataset.network.segment_length(e) for e in route
        )
        for a, b in zip(offsets, offsets[1:]):
            assert b >= a - max_seg - 1e-6

    def test_timestamps_exactly_on_grid(self, tiny_dataset, trained_trmma):
        s = tiny_dataset.test[0]
        out = trained_trmma.recover(s.sparse, tiny_dataset.epsilon)
        for p, gt in zip(out, s.dense):
            assert p.t == pytest.approx(gt.t)

    def test_observed_points_preserved_verbatim(self, tiny_dataset, trained_trmma):
        """The recovered trajectory contains the map-matched observations at
        their original timestamps (Algorithm 2 keeps a_i as-is)."""
        s = tiny_dataset.test[1]
        observed_times = {p.t for p in s.sparse}
        out = trained_trmma.recover(s.sparse, tiny_dataset.epsilon)
        emitted_times = {p.t for p in out}
        assert observed_times <= emitted_times


class TestSeq2SeqDecodeInvariants:
    def test_every_epsilon_slot_filled(self, tiny_dataset):
        rec = MTrajRecRecoverer(tiny_dataset.network, d_h=16, seed=0)
        rec.fit_epoch(tiny_dataset)
        for s in tiny_dataset.test[:4]:
            out = rec.recover(s.sparse, tiny_dataset.epsilon)
            gaps = [b.t - a.t for a, b in zip(out, out.points[1:])]
            assert all(g == pytest.approx(tiny_dataset.epsilon) for g in gaps)

    def test_recovery_with_coarser_epsilon(self, tiny_dataset):
        """Asking for a coarser target rate yields fewer points."""
        rec = MTrajRecRecoverer(tiny_dataset.network, d_h=16, seed=0)
        rec.fit_epoch(tiny_dataset)
        s = tiny_dataset.test[0]
        fine = rec.recover(s.sparse, tiny_dataset.epsilon)
        coarse = rec.recover(s.sparse, tiny_dataset.epsilon * 2)
        assert len(coarse) < len(fine)
