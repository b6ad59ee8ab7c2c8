"""Fault injection: reproducibility, measurable degradation, CLI."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from polygraphmr.decision import LogisticDecisionModule, ensemble_features
from polygraphmr.ensemble import EnsembleRuntime
from polygraphmr.errors import ConfigError, DegradedEnsemble
from polygraphmr.faults import (
    FaultSpec,
    build_synthetic_model,
    corrupt_file_truncate,
    degradation_report,
    main,
    measure_degradation,
    prepare_degradation,
    sanitize_probs_batch,
)
from polygraphmr.scenarios import Scenario, get_builtin
from polygraphmr.store import ArtifactStore

from . import oracles


def _one(spec, arr):
    """Inject ``spec`` into a single tensor: a batch of one."""

    return spec.apply_batch(arr[None])[0]


class TestInjectors:
    def test_bitflips_seeded_reproducible(self):
        arr = np.linspace(0.0, 1.0, 256, dtype=np.float32).reshape(16, 16)
        a = _one(FaultSpec("bitflip", rate=0.1, seed=9), arr)
        b = _one(FaultSpec("bitflip", rate=0.1, seed=9), arr)
        c = _one(FaultSpec("bitflip", rate=0.1, seed=10), arr)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        # input untouched, and roughly rate*size elements changed
        assert arr[0, 0] == 0.0
        changed = (a != arr).sum()
        assert 1 <= changed <= 26

    def test_bitflip_zero_rate_is_identity(self):
        arr = np.ones((4, 4), dtype=np.float32)
        out = _one(FaultSpec("bitflip", rate=0.0), arr)
        np.testing.assert_array_equal(out, arr)

    def test_gaussian_noise_scale(self):
        arr = np.zeros((1000,))
        out = _one(FaultSpec("gaussian", sigma=0.1), arr)
        assert 0.05 < out.std() < 0.15
        assert arr.sum() == 0.0  # input untouched

    def test_fault_spec_dispatch(self):
        arr = np.full((8, 8), 0.5, dtype=np.float32)
        assert _one(FaultSpec("bitflip", rate=0.2, seed=1), arr).shape == (8, 8)
        assert _one(FaultSpec("gaussian", sigma=0.1, seed=1), arr).shape == (8, 8)
        with pytest.raises(ValueError):
            FaultSpec("rowhammer")

    def test_fault_spec_validates_at_construction(self):
        with pytest.raises(ConfigError) as exc_info:
            FaultSpec("rowhammer")
        assert exc_info.value.field == "fault.kind"
        assert "bitflip" in str(exc_info.value)  # lists the known kinds
        with pytest.raises(ConfigError) as exc_info:
            FaultSpec("bitflip", rate=1.5)
        assert exc_info.value.field == "fault.rate"
        assert exc_info.value.reason == "out-of-range"
        with pytest.raises(ConfigError) as exc_info:
            FaultSpec("gaussian", sigma=-0.1)
        assert exc_info.value.field == "fault.sigma"
        with pytest.raises(ConfigError) as exc_info:
            FaultSpec("bitflip", rate=float("nan"))
        assert exc_info.value.reason == "bad-type"

    def test_sanitize_repairs_bitflipped_probs(self):
        probs = np.full((32, 10), 0.1, dtype=np.float32)
        faulted = _one(FaultSpec("bitflip", rate=0.05, seed=2), probs)
        repaired = sanitize_probs_batch(faulted)
        assert np.isfinite(repaired).all()
        np.testing.assert_allclose(repaired.sum(axis=1), 1.0, atol=1e-9)
        assert (repaired >= 0).all()


def _f32(*bits: int) -> np.ndarray:
    """float32 values from their IEEE-754 bit patterns."""

    return np.array(bits, dtype=np.uint32).view(np.float32)


SUBNORMAL = 0x00000001  # 1.4e-45, the smallest float32 subnormal
NEG_SUBNORMAL = 0x80000001
QUARTER = 0x3E800000  # 0.25
POS_INF, NEG_INF, NAN = 0x7F800000, 0xFF800000, 0x7FC00000


class TestDenormalBitflips:
    """Bit flips in a float32 probability row can leave subnormals, ±inf or
    NaN behind (the exponent bits cleared or all set).  These tests pin
    what :func:`sanitize_probs_batch` makes of such rows today, check it
    against :func:`tests.oracles.sanitize_probs`, and check that the gate
    still scores the repaired stack with finite numbers."""

    # (flipped row, repaired row): non-finite -> 0, negatives clip to 0, and
    # a row left with no mass becomes uniform
    PINNED = [
        (_f32(SUBNORMAL, 0, NAN, POS_INF), [1.0, 0.0, 0.0, 0.0]),
        (_f32(SUBNORMAL, SUBNORMAL, SUBNORMAL, SUBNORMAL), [0.25, 0.25, 0.25, 0.25]),
        (_f32(NEG_INF, NAN, NEG_SUBNORMAL, 0), [0.25, 0.25, 0.25, 0.25]),
        (_f32(QUARTER, QUARTER, QUARTER, POS_INF), [1 / 3, 1 / 3, 1 / 3, 0.0]),
        (_f32(SUBNORMAL, 0, 0, SUBNORMAL), [0.5, 0.0, 0.0, 0.5]),
    ]

    @pytest.mark.parametrize(("flipped", "repaired"), PINNED)
    def test_sanitize_pins_each_row(self, flipped, repaired):
        out = sanitize_probs_batch(flipped[None])
        assert out.dtype == np.float64
        assert out[0].tolist() == repaired
        assert np.array_equal(out, oracles.sanitize_probs(flipped[None]))

    def test_repaired_stack_gives_finite_features_and_gate_scores(self, tmp_path):
        """The pinned rows planted in ORG and a companion member of a real
        session's float32 test stack: the repaired stack matches the oracle
        member by member, and its six features and gate scores are finite."""

        build_synthetic_model(tmp_path, "quad", n_val=96, n_test=96, n_classes=4, seed=3)
        session = EnsembleRuntime(ArtifactStore(tmp_path)).session("quad")
        stack = session.test_stack[:, : 2 * len(self.PINNED)].astype(np.float32)
        for i, (flipped, _) in enumerate(self.PINNED):
            stack[0, i] = flipped  # ORG
            stack[2, len(self.PINNED) + i] = flipped
        finite = stack[np.isfinite(stack)]
        subnormal = (finite != 0.0) & (np.abs(finite) < np.finfo(np.float32).tiny)
        assert subnormal.any() and np.isnan(stack).any() and {np.inf, -np.inf} <= set(stack[np.isinf(stack)].tolist())
        repaired = sanitize_probs_batch(stack)
        for member in range(stack.shape[0]):
            assert np.array_equal(repaired[member], oracles.sanitize_probs(stack[member]))
        for i, (_, row) in enumerate(self.PINNED):
            assert repaired[0, i].tolist() == row

        features = ensemble_features(repaired)
        assert np.isfinite(features).all()
        scores = session.module.predict_proba(features)
        assert np.isfinite(scores).all() and ((scores >= 0.0) & (scores <= 1.0)).all()


class TestSyntheticModel:
    def test_identical_rebuild_leaves_every_file_untouched(self, tmp_path):
        """A repeat build with the same arguments writes nothing: every
        file keeps its bytes and its ``mtime_ns`` (which the artifact cache
        and the gate memo key on); a different seed rewrites them."""

        mdir = build_synthetic_model(tmp_path, "m", n_val=32, n_test=32, seed=3)
        files = sorted(path for path in mdir.iterdir() if path.is_file())
        old_ns = 1_000_000_000_000_000_000  # far from "now": any rewrite moves it
        for path in files:
            os.utime(path, ns=(old_ns, old_ns))
        before = {path: path.read_bytes() for path in files}

        build_synthetic_model(tmp_path, "m", n_val=32, n_test=32, seed=3)
        assert sorted(path for path in mdir.iterdir() if path.is_file()) == files
        for path in files:
            assert path.read_bytes() == before[path], path.name
            assert path.stat().st_mtime_ns == old_ns, f"{path.name} was rewritten"

        build_synthetic_model(tmp_path, "m", n_val=32, n_test=32, seed=4)
        changed = [path for path in files if path.read_bytes() != before[path]]
        assert {path.name for path in changed} == {p.name for p in files if p.suffix == ".npz"}
        assert all(path.stat().st_mtime_ns != old_ns for path in changed)


class TestArtifactCorruption:
    def test_truncation_reproducible_and_smaller(self, tmp_path):
        src = tmp_path / "src.npz"
        np.savez(src, probs=np.random.default_rng(0).random((100, 10)))
        a = corrupt_file_truncate(src, tmp_path / "a.npz", keep_fraction=0.5, seed=4)
        b = corrupt_file_truncate(src, tmp_path / "b.npz", keep_fraction=0.5, seed=4)
        assert a.read_bytes() == b.read_bytes()
        assert a.stat().st_size < src.stat().st_size


class TestDegradationMeasurement:
    def test_bitflips_measurably_degrade_detection(self, synthetic_store):
        """The acceptance-criterion API: seeded bit-flip injection produces a
        measurable change in misprediction-detection metrics."""

        spec = FaultSpec("bitflip", rate=0.05, seed=13)
        report = measure_degradation(synthetic_store, "tinynet", spec)
        assert report["clean"]["auc"] > 0.6
        deltas = report["delta"]
        moved = max(abs(deltas[k]) for k in ("accuracy", "f1", "auc", "recall", "precision"))
        assert moved > 0.01, f"injection produced no measurable change: {deltas}"

    def test_report_reproducible(self, synthetic_store):
        spec = FaultSpec("bitflip", rate=0.05, seed=13)
        r1 = measure_degradation(synthetic_store, "tinynet", spec)
        r2 = measure_degradation(synthetic_store, "tinynet", spec)
        assert r1 == r2

    def test_zero_fault_is_no_op_on_metrics(self, synthetic_store):
        spec = FaultSpec("gaussian", sigma=0.0, seed=0)
        report = measure_degradation(synthetic_store, "tinynet", spec)
        assert all(abs(v) < 1e-9 for v in report["delta"].values())
        assert report["override"]["clean"] == report["override"]["faulted"]
        assert report["degraded"] is False

    def test_scenario_fault_measures_degradation(self, synthetic_store):
        fault = get_builtin("channel-bitflip-10pct").fault(21)
        report = measure_degradation(synthetic_store, "tinynet", fault)
        assert report["fault"]["scenario"] == "channel-bitflip-10pct"
        assert report["fault"]["scenario_sha256"]
        assert 0.0 <= report["override"]["faulted"] <= 1.0
        again = measure_degradation(synthetic_store, "tinynet", fault)
        assert report == again

    def test_weights_target_perturbs_the_gate_not_the_inputs(self, synthetic_store):
        fault = get_builtin("gate-weights-bitflip-1").fault(4)
        report = measure_degradation(synthetic_store, "tinynet", fault)
        # inputs stay clean, so clean targets == faulted targets: n agrees
        assert report["clean"]["n"] == report["faulted"]["n"]
        # and the module is restored: a second clean measurement is unchanged
        clean_again = measure_degradation(synthetic_store, "tinynet", FaultSpec("gaussian", sigma=0.0))
        assert clean_again["clean"] == report["clean"]


    def test_weights_fault_never_writes_the_shared_gate(self, synthetic_store, monkeypatch):
        ctx = prepare_degradation(synthetic_store, "tinynet")
        gate = ctx.session.module
        pristine = gate.w.tobytes()
        gate.w.setflags(write=False)
        seen = []
        predict_proba = LogisticDecisionModule.predict_proba

        def spy(module, features):
            seen.append(gate.w.tobytes() == pristine)
            return predict_proba(module, features)

        monkeypatch.setattr(LogisticDecisionModule, "predict_proba", spy)
        report = degradation_report(ctx, get_builtin("gate-weights-bitflip-1").fault(4))
        # one scoring pass, and the shared gate held its weights throughout
        assert seen == [True]
        assert gate.w.tobytes() == pristine
        assert report["clean"]["n"] == report["faulted"]["n"]

    @pytest.mark.parametrize(
        "scenario",
        [
            get_builtin("gate-weights-bitflip-1"),
            Scenario("gate-noise", "tensor", "gaussian", target="weights", rate=0.5, sigma=0.1),
        ],
        ids=lambda s: s.name,
    )
    def test_weights_fault_scores_the_oracle_faulted_gate(self, synthetic_store, monkeypatch, scenario):
        """The gate-weights branch injects the weight vector as a batch of
        one: the gate it scores with carries exactly the weights the scalar
        oracle produces from the same seed."""

        ctx = prepare_degradation(synthetic_store, "tinynet")
        clean_w = ctx.session.module.w
        scored = []
        predict_proba = LogisticDecisionModule.predict_proba
        monkeypatch.setattr(
            LogisticDecisionModule, "predict_proba", lambda m, f: scored.append(m.w) or predict_proba(m, f)
        )
        for seed in range(5):
            scored.clear()
            degradation_report(ctx, scenario.fault(seed))
            expected = oracles.apply_scenario(scenario, clean_w, seed)
            assert len(scored) == 1
            assert scored[0].tobytes() == np.asarray(expected, dtype=np.float64).tobytes()

    def test_one_predict_proba_per_evaluation(self, synthetic_store, monkeypatch):
        calls = []
        predict_proba = LogisticDecisionModule.predict_proba
        monkeypatch.setattr(
            LogisticDecisionModule, "predict_proba", lambda m, f: calls.append(len(f)) or predict_proba(m, f)
        )
        ctx = prepare_degradation(synthetic_store, "tinynet")
        assert len(calls) == 1  # clean flags and metrics
        # sparse or dense, the gate scores the whole split once: a sparse
        # fault's first use of its reference scores nothing more
        n = ctx.session.n_samples
        degradation_report(ctx, FaultSpec("bitflip", rate=0.01, seed=3))
        degradation_report(ctx, FaultSpec("bitflip", rate=0.01, seed=4))
        degradation_report(ctx, FaultSpec("gaussian", sigma=0.05, seed=4))  # dense
        assert calls == [n] * 4
        EnsembleRuntime(synthetic_store).run_model("tinynet")
        assert len(calls) == 5


class TestPrepareDegradationChecks:
    """The session checks ``run_model`` and serve make hold for the
    degradation measurement too."""

    def test_split_survivors_below_minimum_raise(self, synthetic_store, write_probs):
        # val survivors {ORG, A}, test survivors {ORG, B}: each split alone
        # meets min_members=2, their intersection {ORG} does not
        write_probs(synthetic_store.probs_path("tinynet", "pp-Gamma_2", "test"), np.full((8, 10), 0.1))
        write_probs(synthetic_store.probs_path("tinynet", "pp-Hist", "val"), np.full((8, 10), 0.1))
        with pytest.raises(DegradedEnsemble) as exc_info:
            prepare_degradation(synthetic_store, "tinynet", members=["ORG", "pp-Gamma_2", "pp-Hist"])
        assert exc_info.value.available == ["ORG"]

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_mis_sized_labels_raise(self, synthetic_store, synthetic_cache, write_labels, split):
        write_labels(synthetic_cache / "tinynet" / f"labels.{split}.npz", np.array([3]))
        with pytest.raises(ValueError, match="labels required"):
            prepare_degradation(synthetic_store, "tinynet")


class TestCLI:
    def test_synthetic_run_exits_zero(self, tmp_path, capsys):
        rc = main(["--synthetic", str(tmp_path / "demo"), "--rate", "0.02", "--seed", "3"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        (report,) = out["reports"]
        assert report["model"] == "synthetic"
        assert "clean" in report and "faulted" in report

    def test_seed_cache_run_reports_errors_not_crashes(self, capsys):
        """Against the wholly-corrupt seed cache the CLI must finish, emit a
        structured error per model, and signal failure via exit code."""

        from .conftest import SEED_CACHE

        if not SEED_CACHE.is_dir():
            pytest.skip("seed cache absent")
        rc = main(["--cache", str(SEED_CACHE), "--model", "resnet20"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        (report,) = out["reports"]
        assert "error" in report

    def test_explicit_cache_dir(self, tmp_path, capsys):
        build_synthetic_model(tmp_path, "m1", seed=5)
        rc = main(["--cache", str(tmp_path), "--kind", "gaussian", "--sigma", "0.2"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["reports"][0]["fault"]["kind"] == "gaussian"

    def test_json_report_includes_scenario_identity(self, tmp_path, capsys):
        rc = main(
            ["--synthetic", str(tmp_path / "demo"), "--scenario", "quantize-4bit", "--json"]
        )
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["schema"] == "polygraphmr/faults-report/v1"
        assert out["scenario"]["name"] == "quantize-4bit"
        assert len(out["scenario"]["sha256"]) == 64
        assert out["fault"]["scenario_sha256"] == out["scenario"]["sha256"]
        (report,) = out["reports"]
        assert report["fault"]["scenario"] == "quantize-4bit"

    def test_json_report_without_scenario_has_null_scenario(self, tmp_path, capsys):
        rc = main(["--synthetic", str(tmp_path / "demo"), "--kind", "gaussian", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["scenario"] is None
        assert out["fault"]["kind"] == "gaussian"

    def test_unknown_scenario_exits_2_with_library_listing(self, tmp_path, capsys):
        rc = main(["--synthetic", str(tmp_path / "demo"), "--scenario", "nope"])
        assert rc == 2
        assert "quantize-4bit" in capsys.readouterr().err

    def test_list_scenarios(self, capsys):
        assert main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "channel-bitflip-10pct" in out
        assert main(["--list-scenarios", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "polygraphmr/scenario-library/v1"
        assert len(payload["scenarios"]) >= 8

    def test_store_quarantines_synthetic_truncation_end_to_end(self, tmp_path):
        """Artifact-level injector + store: the full robustness loop."""

        build_synthetic_model(tmp_path, "m1", seed=6)
        store = ArtifactStore(tmp_path)
        src = store.probs_path("m1", "ORG", "val")
        corrupt_file_truncate(src, src, keep_fraction=0.5, seed=7)
        assert store.try_load_probs("m1", "ORG", "val") is None
        assert store.is_quarantined(src)
