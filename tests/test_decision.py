"""Decision module: features, training, metrics, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from polygraphmr.decision import (
    LogisticDecisionModule,
    ensemble_features,
    misprediction_targets,
)
from polygraphmr.decision import _rank_auc  # noqa: PLC2701 - unit-testing the internal
from polygraphmr.faults import degradation_report, prepare_degradation
from polygraphmr.scenarios import get_builtin
from polygraphmr.store import ArtifactStore


def _toy_stack(seed=0, m=4, n=50, c=6):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(m, n, c))
    z = logits - logits.max(axis=2, keepdims=True)
    return np.exp(z) / np.exp(z).sum(axis=2, keepdims=True)


class TestFeatures:
    def test_shape(self):
        stacked = _toy_stack(m=4, n=50, c=6)
        feats = ensemble_features(stacked)
        assert feats.shape == (50, 4 * 6 + 4)  # flat probs + 4 agreement stats

    def test_targets(self):
        org = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        labels = np.array([0, 0, 1])
        np.testing.assert_array_equal(misprediction_targets(org, labels), [0.0, 1.0, 1.0])


class TestTraining:
    def test_learns_separable_problem(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 5))
        y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(float)
        module = LogisticDecisionModule(seed=0).fit(x, y)
        metrics = module.evaluate(module.predict_proba(x), y)
        assert metrics.accuracy > 0.9
        assert metrics.auc > 0.95

    def test_deterministic_given_seed(self):
        x = _toy_stack(seed=5)
        feats = ensemble_features(x)
        y = (np.arange(feats.shape[0]) % 2).astype(float)
        a = LogisticDecisionModule(seed=42).fit(feats, y).predict_proba(feats)
        b = LogisticDecisionModule(seed=42).fit(feats, y).predict_proba(feats)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("poison", ["none", "nan", "inf", "zero-row"])
    def test_predict_proba_never_writes_its_features(self, dtype, poison):
        """The clean features are shared by every gate-weights trial of a
        runtime, so scoring must standardise into its own array."""

        feats = ensemble_features(_toy_stack(seed=2))
        y = (np.arange(feats.shape[0]) % 2).astype(float)
        module = LogisticDecisionModule(seed=0).fit(feats, y)
        x = feats.astype(dtype)
        if poison == "nan":
            x[3, 1] = np.nan
        elif poison == "inf":
            x[4, 0] = np.inf
        elif poison == "zero-row":
            x[0] = 0.0
        before = x.copy()
        scores = module.predict_proba(x)
        assert x.dtype == dtype and np.array_equal(x, before, equal_nan=True)
        assert np.array_equal(scores, module.predict_proba(x.astype(np.float64)), equal_nan=True)
        frozen = x.copy()
        frozen.flags.writeable = False
        assert np.array_equal(module.predict_proba(frozen), scores, equal_nan=True)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LogisticDecisionModule().predict_proba(np.zeros((2, 3)))


class TestMetrics:
    def test_perfect_and_degenerate_auc(self):
        assert _rank_auc(np.array([0.1, 0.2, 0.9, 0.8]), np.array([0, 0, 1, 1])) == 1.0
        assert _rank_auc(np.array([0.9, 0.8, 0.1, 0.2]), np.array([0, 0, 1, 1])) == 0.0
        assert _rank_auc(np.array([0.5, 0.5]), np.array([1, 1])) == 0.5  # one class only

    def test_tied_scores_average_ranks(self):
        auc = _rank_auc(np.array([0.5, 0.5, 0.5, 0.5]), np.array([0, 1, 0, 1]))
        assert auc == 0.5
        assert _rank_auc(np.full(4, np.nan), np.array([0, 1, 0, 1])) == 0.5
        # NaN outranks every finite score, and NaNs tie with each other
        assert _rank_auc(np.array([0.1, np.nan, 0.2, np.nan]), np.array([0, 1, 0, 1])) == 1.0
        assert _rank_auc(np.array([np.nan, np.nan, 0.1]), np.array([1, 0, 0])) == 0.75

    def test_nan_gate_weights_give_order_free_auc(self, demo_cache):
        # seed 1816 turns a gate weight into NaN, so every score is NaN and
        # the faulted AUC is chance, not the rank sum in test-row order
        ctx = prepare_degradation(ArtifactStore(demo_cache), "synthetic", seed=0)
        with np.errstate(invalid="ignore"):
            report = degradation_report(ctx, get_builtin("gate-weights-bitflip-1").fault(1816))
        assert report["faulted"]["auc"] == 0.5

    def test_metrics_dict_round(self):
        x = np.random.default_rng(0).normal(size=(50, 3))
        y = (x[:, 0] > 0).astype(float)
        module = LogisticDecisionModule(seed=0).fit(x, y)
        metrics = module.evaluate(module.predict_proba(x), y)
        d = metrics.to_dict()
        assert set(d) == {"n", "accuracy", "precision", "recall", "f1", "auc", "base_rate"}
        assert d["n"] == 50
