"""Model persistence: save/load of every trainable method."""

import numpy as np
import pytest

from repro.config import MMAConfig, TRMMAConfig
from repro.matching import LHMMMatcher, MMAMatcher
from repro.network.node2vec import Node2VecConfig
from repro.nn import MLP, Tensor
from repro.recovery import MTrajRecRecoverer, TRMMARecoverer
from repro.matching import FMMMatcher

FAST_N2V = Node2VecConfig(
    dimensions=16, walk_length=8, walks_per_node=1, window=2, negatives=2, epochs=1
)


class TestModuleSaveLoad:
    def test_npz_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        a = MLP(4, 8, 2, seed=0)
        b = MLP(4, 8, 2, seed=99)
        path = str(tmp_path / "mlp.npz")
        a.save(path)
        b.load(path)
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_load_rejects_mismatched_architecture(self, tmp_path):
        a = MLP(4, 8, 2, seed=0)
        b = MLP(4, 16, 2, seed=0)
        path = str(tmp_path / "mlp.npz")
        a.save(path)
        with pytest.raises(ValueError):
            b.load(path)


class TestMatcherPersistence:
    def test_mma_model_roundtrip(self, tiny_dataset, tmp_path):
        matcher = MMAMatcher(
            tiny_dataset.network, MMAConfig(d0=16, d2=16, node2vec=FAST_N2V),
            seed=0,
        )
        matcher.fit_epoch(tiny_dataset)
        path = str(tmp_path / "mma.npz")
        matcher.model.save(path)

        clone = MMAMatcher(
            tiny_dataset.network, MMAConfig(d0=16, d2=16, use_node2vec=False),
            seed=5,
        )
        clone.model.load(path)
        s = tiny_dataset.test[0]
        assert clone.match_points(s.sparse) == matcher.match_points(s.sparse)

    def test_lhmm_scorer_roundtrip(self, tiny_dataset, tmp_path):
        matcher = LHMMMatcher(tiny_dataset.network, seed=0)
        matcher.fit_epoch(tiny_dataset)
        path = str(tmp_path / "lhmm.npz")
        matcher.scorer.save(path)
        clone = LHMMMatcher(tiny_dataset.network, seed=3)
        clone.scorer.load(path)
        s = tiny_dataset.test[0]
        assert clone.match_points(s.sparse) == matcher.match_points(s.sparse)


class TestRecovererPersistence:
    def test_trmma_model_roundtrip(self, tiny_dataset, tmp_path):
        matcher = FMMMatcher(tiny_dataset.network)
        rec = TRMMARecoverer(
            tiny_dataset.network, matcher, TRMMAConfig(d_h=16, ffn_hidden=64),
            seed=0,
        )
        rec.fit_epoch(tiny_dataset)
        path = str(tmp_path / "trmma.npz")
        rec.model.save(path)

        clone = TRMMARecoverer(
            tiny_dataset.network, matcher, TRMMAConfig(d_h=16, ffn_hidden=64),
            seed=9,
        )
        clone.model.load(path)
        s = tiny_dataset.test[0]
        a = rec.recover(s.sparse, tiny_dataset.epsilon)
        b = clone.recover(s.sparse, tiny_dataset.epsilon)
        assert [p.edge_id for p in a] == [p.edge_id for p in b]

    def test_seq2seq_snapshot_equivalence(self, tiny_dataset, tmp_path):
        rec = MTrajRecRecoverer(tiny_dataset.network, d_h=16, seed=0)
        rec.fit_epoch(tiny_dataset)
        # snapshot/restore and save/load must agree.
        snap = rec.snapshot()
        paths = []
        for i, module in enumerate(rec._trainable_modules()):
            path = str(tmp_path / f"m{i}.npz")
            module.save(path)
            paths.append(path)
        rec.fit_epoch(tiny_dataset)
        for module, path in zip(rec._trainable_modules(), paths):
            module.load(path)
        reloaded_loss = rec.validation_loss(tiny_dataset)
        rec.restore(snap)
        assert reloaded_loss == pytest.approx(rec.validation_loss(tiny_dataset))
