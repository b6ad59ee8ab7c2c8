"""The gate against training-free baselines and against the journal-v3 gate.

The ``python -m polygraphmr.faults`` report carries a ``baselines`` stanza:
the gate's AUC next to ORG's max-softmax confidence (the paper's baseline)
and ORG support, clean and faulted.  Campaign trials never carry it, so
journal bytes do not depend on it.  The gate must beat ORG max-softmax, and
the six-feature Newton gate must be no worse than the v3 gate (104 columns
at CIFAR shape, gradient descent), clean and under every built-in scenario.
Where the gate loses to ORG support, the stanza names it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from polygraphmr.decision import _rank_auc  # noqa: PLC2701 - scoring the reference gate
from polygraphmr.faults import (
    FaultSpec,
    degradation_report,
    main,
    measure_degradation,
    prepare_degradation,
    sanitize_probs_batch,
)
from polygraphmr.scenarios import builtin_scenarios
from polygraphmr.store import ArtifactStore

from . import oracles

SCENARIOS = sorted(builtin_scenarios())
FAULT_SEED = 1


def _v3_gate_auc(ctx, val_labels, spec) -> float:
    """What the v3 gate (flat member columns, gradient descent) scores under
    ``spec``, by the same inject → sanitize → features → predict steps."""

    session = ctx.session
    org = session.members.index("ORG")
    val = oracles.v3_ensemble_features(session.val_stack)
    mu, sigma = val.mean(axis=0), val.std(axis=0)
    sigma[sigma < 1e-9] = 1.0
    y = (session.val_stack[org].argmax(axis=1) != val_labels).astype(np.float64)
    w, b = oracles.gradient_descent_fit((val - mu) / sigma, y)
    stack = session.test_stack
    if getattr(spec, "target", "probs") == "weights":
        w = np.asarray(spec.apply_batch(w[None])[0], dtype=np.float64)
    else:
        stack = sanitize_probs_batch(spec.apply_batch(stack))
    scores = 1.0 / (1.0 + np.exp(-(((oracles.v3_ensemble_features(stack) - mu) / sigma) @ w + b)))
    return _rank_auc(scores, session.test_targets(stack))


@pytest.fixture()
def demo_ctx(demo_cache):
    return prepare_degradation(ArtifactStore(demo_cache), "synthetic")


def _no_fault():
    return FaultSpec(kind="gaussian", sigma=0.0, seed=FAULT_SEED)


def _spec(name):
    return _no_fault() if name == "clean" else builtin_scenarios()[name].fault(FAULT_SEED)


class TestGateAgainstBaselines:
    @pytest.mark.parametrize("name", ["clean", *SCENARIOS])
    def test_gate_beats_org_max_softmax(self, demo_ctx, name):
        with np.errstate(all="ignore"):
            stanza = degradation_report(demo_ctx, _spec(name), baselines=True)["baselines"]
        for side in ("clean", "faulted"):
            assert stanza[side]["gate"] > stanza[side]["org_max_softmax"], (side, stanza)
            assert "org_max_softmax" not in stanza["gate_loses_to"][side]

    @pytest.mark.parametrize("name", ["clean", *SCENARIOS])
    def test_v4_gate_no_worse_than_v3_gate(self, demo_cache, demo_ctx, name):
        spec = _spec(name)
        val_labels = ArtifactStore(demo_cache).load_labels("synthetic", "val")
        with np.errstate(all="ignore"):
            v4 = degradation_report(demo_ctx, spec)["faulted"]["auc"]
            v3 = _v3_gate_auc(demo_ctx, val_labels, spec)
        assert v4 >= round(v3, 6), (name, v4, v3)

    def test_losing_to_a_baseline_is_reported(self, demo_ctx):
        stanza = degradation_report(demo_ctx, _no_fault(), baselines=True)["baselines"]
        for side in ("clean", "faulted"):
            beaten = sorted(k for k in ("org_max_softmax", "org_support") if stanza[side][k] > stanza[side]["gate"])
            assert stanza["gate_loses_to"][side] == beaten

    def test_weights_fault_leaves_the_baselines_clean(self, demo_ctx):
        spec = builtin_scenarios()["gate-weights-bitflip-1"].fault(FAULT_SEED)
        stanza = degradation_report(demo_ctx, spec, baselines=True)["baselines"]
        for key in ("org_max_softmax", "org_support"):
            assert stanza["faulted"][key] == stanza["clean"][key]


class TestBaselinesStanza:
    def test_campaign_reports_carry_no_stanza(self, demo_cache):
        report = measure_degradation(ArtifactStore(demo_cache), "synthetic", _no_fault())
        assert "baselines" not in report

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_cli_report_carries_the_stanza(self, tmp_path, capsys, fmt):
        argv = ["--synthetic", str(tmp_path / "demo"), "--scenario", "tensor-bitflip-1pct"]
        assert main(argv + (["--json"] if fmt == "json" else [])) == 0
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        stanza = report["baselines"]
        assert set(stanza) == {"clean", "faulted", "gate_loses_to"}
        for side in ("clean", "faulted"):
            assert set(stanza[side]) == {"gate", "org_max_softmax", "org_support"}
            assert all(0.0 <= v <= 1.0 for v in stanza[side].values())
        assert stanza["clean"]["gate"] == report["clean"]["auc"]
        assert stanza["faulted"]["gate"] == report["faulted"]["auc"]
