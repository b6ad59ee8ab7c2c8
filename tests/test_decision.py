"""Decision module: features, training, metrics, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from polygraphmr.decision import (
    FEATURE_NAMES,
    LogisticDecisionModule,
    ensemble_features,
    misprediction_targets,
)
from polygraphmr.decision import _rank_auc  # noqa: PLC2701 - unit-testing the internal
from polygraphmr.faults import FaultSpec, degradation_report, prepare_degradation
from polygraphmr.scenarios import Scenario, get_builtin
from polygraphmr.store import ArtifactStore

from . import oracles


def _toy_stack(seed=0, m=4, n=50, c=6):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(m, n, c))
    z = logits - logits.max(axis=2, keepdims=True)
    return np.exp(z) / np.exp(z).sum(axis=2, keepdims=True)


class TestFeatures:
    def test_shape(self):
        for m in (2, 4, 9):
            feats = ensemble_features(_toy_stack(m=m, n=50, c=6))
            assert feats.shape == (50, len(FEATURE_NAMES)) == (50, 6)  # independent of M

    def test_support_and_org_confidence_columns(self):
        stacked = _toy_stack(m=3, n=40, c=5)
        feats = ensemble_features(stacked)
        org_vote = stacked[0].argmax(axis=1)
        support = stacked.mean(axis=0)[np.arange(40), org_vote]
        np.testing.assert_array_equal(feats[:, FEATURE_NAMES.index("org_support")], support)
        np.testing.assert_array_equal(feats[:, FEATURE_NAMES.index("org_max_prob")], stacked[0].max(axis=1))

    def test_read_only_stack_gives_the_same_bytes(self):
        """A memoised stack is read-only; its features equal a writeable
        copy's bit for bit, and the input is never written.  At CIFAR shape
        (ten slabs of ``FEATURE_SLAB`` samples) both equal the row-major
        kernel's, ties included."""

        stack = _toy_stack(m=10, n=10_000, c=10)
        stack[:, ::7] = 0.1
        frozen = stack.copy()
        frozen.flags.writeable = False
        feats = ensemble_features(frozen)
        assert np.array_equal(feats, ensemble_features(stack))
        assert np.array_equal(frozen, stack)
        assert np.array_equal(feats, oracles.row_major_features_batch(stack[None])[0])

    def test_targets(self):
        org = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        labels = np.array([0, 0, 1])
        np.testing.assert_array_equal(misprediction_targets(org, labels), [0.0, 1.0, 1.0])


class TestTraining:
    def test_learns_separable_problem(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 5))
        y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(float)
        module = LogisticDecisionModule().fit(x, y)
        metrics = module.evaluate(module.predict_proba(x), y)
        assert metrics.accuracy > 0.9
        assert metrics.auc > 0.95

    def test_deterministic(self):
        x = _toy_stack(seed=5)
        feats = ensemble_features(x)
        y = (np.arange(feats.shape[0]) % 2).astype(float)
        a = LogisticDecisionModule().fit(feats, y).predict_proba(feats)
        b = LogisticDecisionModule().fit(feats, y).predict_proba(feats)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "z", [0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 3.0, -3.0, 36.0, -36.0, 745.0, -745.0, 1e308, -1e308]
        + [np.inf, -np.inf, np.nan],
    )
    def test_sigmoid_matches_scalar_oracle(self, z):
        got = LogisticDecisionModule._sigmoid(np.array([z]))[0]
        want = oracles.sigmoid(z)
        if np.isnan(want):
            assert np.isnan(got)
        else:
            # numpy's and libm's exp may differ in the last place
            assert got == pytest.approx(want, rel=4e-16, abs=0.0)

    def test_sigmoid_never_overflows(self):
        z = np.array([-1e308, -800.0, -40.0, 0.0, 40.0, 800.0, 1e308])
        with np.errstate(over="raise"):
            out = LogisticDecisionModule._sigmoid(z)
        assert np.all((out >= 0.0) & (out <= 1.0)) and out[0] == 0.0 and out[-1] == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("poison", ["none", "nan", "inf", "zero-row"])
    def test_predict_proba_never_writes_its_features(self, dtype, poison):
        """The clean features are shared by every gate-weights trial of a
        runtime, so scoring must standardise into its own array."""

        feats = ensemble_features(_toy_stack(seed=2))
        y = (np.arange(feats.shape[0]) % 2).astype(float)
        module = LogisticDecisionModule().fit(feats, y)
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
        # seed 41 turns a gate weight into NaN, so every score is NaN and
        # the faulted AUC is chance, not the rank sum in test-row order
        ctx = prepare_degradation(ArtifactStore(demo_cache), "synthetic")
        with np.errstate(invalid="ignore"):
            report = degradation_report(ctx, get_builtin("gate-weights-bitflip-1").fault(41))
        assert report["faulted"]["auc"] == 0.5

    def test_metrics_dict_round(self):
        x = np.random.default_rng(0).normal(size=(50, 3))
        y = (x[:, 0] > 0).astype(float)
        module = LogisticDecisionModule().fit(x, y)
        metrics = module.evaluate(module.predict_proba(x), y)
        d = metrics.to_dict()
        assert set(d) == {"n", "accuracy", "precision", "recall", "f1", "auc", "base_rate"}
        assert d["n"] == 50


def _demo_val(demo_cache):
    """The demo model's val features and misprediction targets."""

    session = prepare_degradation(ArtifactStore(demo_cache), "synthetic").session
    org = session.val_stack[session.members.index("ORG")]
    labels = ArtifactStore(demo_cache).load_labels("synthetic", "val")
    return ensemble_features(session.val_stack), misprediction_targets(org, labels)


class TestNewtonFit:
    """The fit minimises the penalised loss: its scalar-loop gradient
    vanishes at the fitted ``(w, b)``, and no other fit — the v3 gate's
    gradient descent included — reaches a lower loss."""

    @pytest.mark.parametrize("data", ["demo-val", "toy"])
    def test_gradient_vanishes_and_loss_beats_gradient_descent(self, demo_cache, data):
        if data == "demo-val":
            feats, y = _demo_val(demo_cache)
        else:
            feats = ensemble_features(_toy_stack(seed=9, m=5, n=120, c=4))
            y = (np.random.default_rng(9).random(120) < 0.3).astype(float)
        module = LogisticDecisionModule().fit(feats, y)
        x = module._standardise(feats, fit=False)
        loss, grad = oracles.penalised_loss_and_grad(x, y, module.w, module.b, module.l2)
        assert np.abs(grad).max() < 1e-9
        w_gd, b_gd = oracles.gradient_descent_fit(x, y)
        gd_loss, _ = oracles.penalised_loss_and_grad(x, y, w_gd, b_gd, module.l2)
        assert loss <= gd_loss

    def test_demo_gate_beats_the_v3_gradient_descent_auc(self, demo_cache):
        feats, y = _demo_val(demo_cache)
        module = LogisticDecisionModule().fit(feats, y)
        x = module._standardise(feats, fit=False)
        w_gd, b_gd = oracles.gradient_descent_fit(x, y)
        gd_scores = 1.0 / (1.0 + np.exp(-(x @ w_gd + b_gd)))
        assert _rank_auc(module.predict_proba(feats), y) >= _rank_auc(gd_scores, y)


class TestFitEdgeCases:
    """One defined result per degenerate input."""

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_single_class_targets_give_finite_weights_and_chance_auc(self, label):
        feats = ensemble_features(_toy_stack(seed=4))
        y = np.full(feats.shape[0], label)
        module = LogisticDecisionModule().fit(feats, y)
        assert np.all(np.isfinite(module.w)) and np.isfinite(module.b)
        scores = module.predict_proba(feats)
        assert np.all(np.isfinite(scores))
        # the penalised bias stops short of ±inf but leans toward the class
        assert (module.b > 0) == (label == 1.0)
        assert module.evaluate(scores, y).auc == 0.5

    def test_constant_feature_column_changes_nothing(self):
        feats = ensemble_features(_toy_stack(seed=6, n=80))
        y = (np.random.default_rng(6).random(80) < 0.4).astype(float)
        padded = np.concatenate([feats, np.full((80, 1), 0.1)], axis=1)
        base = LogisticDecisionModule().fit(feats, y)
        wide = LogisticDecisionModule().fit(padded, y)
        assert abs(wide.w[-1]) < 1e-9
        np.testing.assert_allclose(wide.predict_proba(padded), base.predict_proba(feats), rtol=1e-9, atol=0)

    def test_all_tied_scores_give_chance_auc(self):
        feats = np.tile(ensemble_features(_toy_stack(seed=8, n=1)), (60, 1))
        y = (np.arange(60) % 3 == 0).astype(float)
        module = LogisticDecisionModule().fit(feats, y)
        scores = module.predict_proba(feats)
        assert np.all(scores == scores[0])
        assert np.all(np.isfinite(module.w)) and np.isfinite(module.b)
        metrics = module.evaluate(scores, y)
        assert metrics.auc == 0.5
        # with nothing to tell rows apart, the score is the (shrunk) base rate
        assert scores[0] == pytest.approx(y.mean(), abs=0.01)

    @pytest.mark.parametrize("target", ["probs", "weights"])
    def test_zero_hit_fault_selection_reports_the_clean_gate(self, demo_cache, target):
        ctx = prepare_degradation(ArtifactStore(demo_cache), "synthetic")
        if target == "probs":
            spec = FaultSpec(kind="bitflip", rate=1e-9, seed=3)  # rounds to zero hits
        else:
            spec = Scenario(name="no-hit", surface="tensor", kind="bitflip", target="weights", rate=1e-9).fault(3)
        report = degradation_report(ctx, spec)
        assert report["faulted"] == report["clean"]
        assert set(report["delta"].values()) == {0.0}
        assert report["override"]["faulted"] == report["override"]["clean"]
