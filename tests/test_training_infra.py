"""Training infrastructure: epoch selection, train_method helper."""

import numpy as np
import pytest

from repro.config import TRMMAConfig
from repro.eval.evaluate import train_method
from repro.experiments.common import ExperimentScale, fit_matcher
from repro.matching import LHMMMatcher, NearestMatcher
from repro.recovery import MTrajRecRecoverer
from repro.recovery.trmma import TRMMARecoverer
from repro.matching import FMMMatcher


class TestFitMatcher:
    def test_untrained_matcher_is_noop(self, tiny_dataset):
        matcher = NearestMatcher(tiny_dataset.network)
        fit_matcher(matcher, tiny_dataset, epochs=3)  # must not raise

    def test_selection_restores_best_epoch(self, tiny_dataset):
        """After fit_matcher, validation accuracy equals the best epoch's."""
        matcher = LHMMMatcher(tiny_dataset.network, seed=0)
        per_epoch = []
        probe = LHMMMatcher(tiny_dataset.network, seed=0)
        for _ in range(3):
            probe.fit_epoch(tiny_dataset)
            per_epoch.append(probe.validation_point_accuracy(tiny_dataset))
        fit_matcher(matcher, tiny_dataset, epochs=3)
        assert matcher.validation_point_accuracy(tiny_dataset) == pytest.approx(
            max(per_epoch)
        )


class TestTrainMethodHelper:
    def test_returns_losses(self, tiny_dataset):
        rec = MTrajRecRecoverer(tiny_dataset.network, d_h=16, seed=0)
        losses = train_method(rec, tiny_dataset, epochs=2)
        assert len(losses) == 2
        assert all(np.isfinite(l) for l in losses)

    def test_trains_embedded_matcher_first(self, tiny_dataset):
        matcher = LHMMMatcher(tiny_dataset.network, seed=0)
        before = matcher.snapshot()
        rec = TRMMARecoverer(
            tiny_dataset.network, matcher, TRMMAConfig(d_h=16, ffn_hidden=64),
            seed=0,
        )
        train_method(rec, tiny_dataset, epochs=1)
        after = matcher.snapshot()
        changed = any(
            not np.allclose(a[k], b[k])
            for a, b in zip(before, after)
            for k in a
        )
        assert changed

    def test_untrained_method_returns_zero_losses(self, tiny_dataset):
        from repro.recovery import LinearInterpolationRecoverer

        rec = LinearInterpolationRecoverer(
            tiny_dataset.network, FMMMatcher(tiny_dataset.network)
        )
        losses = train_method(rec, tiny_dataset, epochs=2)
        assert losses == [0.0, 0.0]
