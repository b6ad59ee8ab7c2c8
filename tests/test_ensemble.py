"""Ensemble runtime: the fitted session, its memos, graceful degradation."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from polygraphmr.cache import ArtifactCache
from polygraphmr.ensemble import EnsembleRuntime
from polygraphmr.errors import DegradedEnsemble
from polygraphmr.faults import build_synthetic_model, corrupt_file_truncate, prepare_degradation
from polygraphmr.metrics import get_registry
from polygraphmr.serve import PolygraphService
from polygraphmr.store import ArtifactStore

from .conftest import SYNTH_MEMBERS


class TestFullEnsemble:
    def test_end_to_end_result(self, synthetic_store):
        ctx = prepare_degradation(synthetic_store, "tinynet")
        assert not ctx.session.degraded
        assert ctx.session.members[0] == "ORG"
        assert set(ctx.session.members) == set(SYNTH_MEMBERS)
        # the decision module must beat coin-flipping at ranking mispredictions
        assert ctx.clean.auc > 0.6


class TestOneSession:
    """The degradation measurement and the serving gateway both evaluate the
    one session :meth:`EnsembleRuntime.session` builds."""

    @pytest.mark.parametrize("quarantine", [False, True], ids=["clean", "one-quarantined"])
    def test_callers_agree(self, synthetic_store, synthetic_cache, write_probs, quarantine):
        if quarantine:
            write_probs(synthetic_store.probs_path("tinynet", "pp-Hist", "test"), np.full((8, 10), 0.1))
        ctx = prepare_degradation(ArtifactStore(synthetic_cache), "tinynet")
        session = PolygraphService(ArtifactStore(synthetic_cache)).base_session("tinynet")
        _, predictions, flags = session.evaluate(np.arange(session.n_samples))

        assert np.array_equal(flags, ctx.clean_flags)
        assert np.array_equal(predictions, session.test_stack.mean(0).argmax(1))
        assert (ctx.session.members, ctx.session.missing, ctx.session.quarantined) == (
            session.members,
            session.missing,
            session.quarantined,
        )
        assert ("pp-Hist" in session.quarantined) == quarantine


def _fits() -> int:
    hist = get_registry().histogram_for("decision_fit_seconds")
    return 0 if hist is None else hist.count


def _fresh_gate(cache):
    return EnsembleRuntime(ArtifactStore(cache)).session("tinynet").module


class TestGateMemo:
    """A gate is a pure function of (model, members, val artifacts, val
    labels), so a runtime fits each member set once and refits only
    when the val arrays the store serves or the member set change."""

    def test_sessions_share_one_fit(self, synthetic_store):
        runtime = EnsembleRuntime(synthetic_store)
        gate = runtime.session("tinynet").module
        assert runtime.session("tinynet").module is gate
        assert _fits() == 1

    @pytest.mark.parametrize("artifact", ["member-probs", "labels"])
    def test_rewritten_val_artifact_forces_a_refit(
        self, synthetic_store, synthetic_cache, write_probs, write_labels, artifact
    ):
        runtime = EnsembleRuntime(synthetic_store)
        stale = runtime.session("tinynet").module
        if artifact == "labels":
            path = synthetic_store.labels_path("tinynet", "val")
            write_labels(path, np.roll(np.load(path)["labels"], 1))
        else:
            path = synthetic_store.probs_path("tinynet", "pp-Hist", "val")
            write_probs(path, np.roll(np.load(path)["probs"], 1, axis=1))
        # a new stat signature even where the rewrite lands in the same mtime tick
        st = os.stat(path)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))

        refit = runtime.session("tinynet").module
        fresh = _fresh_gate(synthetic_cache)
        assert _fits() == 3  # stale, refit, fresh
        assert refit.w.tobytes() == fresh.w.tobytes() and refit.b == fresh.b
        assert refit.w.tobytes() != stale.w.tobytes()

    def test_quarantined_member_gives_a_new_key_and_a_refit(self, synthetic_store, synthetic_cache):
        runtime = EnsembleRuntime(synthetic_store)
        full = runtime.session("tinynet")
        # only the member's test split breaks: its val file keeps its identity
        path = synthetic_store.probs_path("tinynet", "pp-Hist", "test")
        corrupt_file_truncate(path, path, keep_fraction=0.3, seed=11)

        narrowed = runtime.session("tinynet")
        assert "pp-Hist" in narrowed.quarantined and "pp-Hist" not in narrowed.members
        assert narrowed.module is not full.module and _fits() == 2
        assert narrowed.module.w.tobytes() == _fresh_gate(synthetic_cache).w.tobytes()
        assert runtime.session("tinynet").module is narrowed.module and _fits() == 3


class TestSessionStacks:
    """``session`` re-indexes a split's stack onto the common members only
    when the order differs; otherwise it keeps the assembled stack."""

    def _assembled(self, runtime, monkeypatch) -> dict:
        batches: dict = {}
        real = runtime.assemble

        def spy(model, split, **kwargs):
            batches[split] = real(model, split, **kwargs)
            return batches[split]

        monkeypatch.setattr(runtime, "assemble", spy)
        return batches

    def test_nothing_dropped_keeps_the_assembled_stacks(self, synthetic_store, monkeypatch):
        runtime = EnsembleRuntime(synthetic_store)
        batches = self._assembled(runtime, monkeypatch)
        session = runtime.session("tinynet")
        assert session.members == batches["val"].members == batches["test"].members
        assert np.shares_memory(session.val_stack, batches["val"].stacked)
        assert np.shares_memory(session.test_stack, batches["test"].stacked)

    def test_member_dropped_on_one_split_restacks_the_other(self, synthetic_store, monkeypatch):
        path = synthetic_store.probs_path("tinynet", "pp-Hist", "test")
        corrupt_file_truncate(path, path, keep_fraction=0.3, seed=11)
        runtime = EnsembleRuntime(synthetic_store)
        batches = self._assembled(runtime, monkeypatch)
        session = runtime.session("tinynet")
        val, test = batches["val"], batches["test"]
        assert "pp-Hist" in val.members and session.members == test.members
        # the val stack is the re-indexed copy, the test stack the assembled one
        expected = val.stacked[[val.members.index(s) for s in session.members]]
        assert session.val_stack.tobytes() == expected.tobytes()
        assert not np.shares_memory(session.val_stack, val.stacked)
        assert np.shares_memory(session.test_stack, test.stacked)


def _stacks(split: str) -> int:
    return get_registry().counter_value("ensemble_stacks_total", split=split)


class TestRosterAndStackMemos:
    """Each split's stack is memoised on its members' cached arrays, and
    neither it nor the default member plan may be changed through what the
    runtime hands out.  (Files changing between trials:
    ``tests/test_batching.py::TestMemoInvalidation``.)"""

    def test_default_plan_is_a_copy(self, synthetic_cache):
        runtime = EnsembleRuntime(ArtifactStore(synthetic_cache, cache=ArtifactCache()))
        runtime.member_plan("tinynet").append("pp-Nope")
        assert "pp-Nope" not in runtime.member_plan("tinynet")

    def test_repeat_sessions_share_read_only_stacks(self, synthetic_cache):
        runtime = EnsembleRuntime(ArtifactStore(synthetic_cache, cache=ArtifactCache()))
        first, again = runtime.session("tinynet"), runtime.session("tinynet")
        assert again.test_stack is first.test_stack and again.val_stack is first.val_stack
        assert _stacks("val") == _stacks("test") == 1
        with pytest.raises(ValueError):
            first.test_stack[0, 0, 0] = 1.0

    def test_uncached_repeat_sessions_restack_equal_values_into_one_stack(self, synthetic_cache):
        """Fresh arrays are stacked again, and the equal stack is dropped for
        the previous one, so only one stack per split stays alive."""

        runtime = EnsembleRuntime(ArtifactStore(synthetic_cache))
        first, again = runtime.session("tinynet"), runtime.session("tinynet")
        assert again.test_stack is first.test_stack and again.val_stack is first.val_stack
        assert _stacks("val") == _stacks("test") == 2
        assert again.module is first.module and _fits() == 1


    def test_member_lost_on_one_split_reuses_the_gate_without_comparing_values(self, synthetic_cache, monkeypatch):
        """A truncated test probs file leaves a member in val only, so each
        session re-indexes the val stack onto the common members; with the
        artifact cache, a repeat session still reuses the entry by identity
        and holds no copy of its own."""

        path = synthetic_cache / "tinynet" / "pp-Hist.test.probs.npz"
        corrupt_file_truncate(path, path, keep_fraction=0.3, seed=5)
        runtime = EnsembleRuntime(ArtifactStore(synthetic_cache, cache=ArtifactCache()))
        first = runtime.session("tinynet")
        assert "pp-Hist" not in first.members and first.quarantined
        compared = []
        real = np.array_equal
        monkeypatch.setattr(np, "array_equal", lambda *a, **k: compared.append(1) or real(*a, **k))
        again = runtime.session("tinynet")
        assert compared == []
        assert again.val_stack is first.val_stack and again.test_stack is first.test_stack
        assert again.module is first.module and _fits() == 1

def _scanned_plan(store: ArtifactStore, model: str) -> list[str]:
    """ORG, then the stems whose roster-scan records are not all missing."""

    manifest = store.scan_model(model)
    present = sorted({r.stem for r in manifest.records if r.status.status != "missing"})
    return ["ORG"] + [s for s in present if s != "ORG"]


class TestListingPlan:
    """The default member plan comes from one listing of the model
    directory, and names the stems the audit's roster scan finds on disk."""

    def test_plan_is_org_then_every_stem_with_a_file(self, tmp_path):
        root = tmp_path / "cache"
        members = ("ORG", "pp-Hist", "pp-FlipX", "pp-Gamma_2", "replica-001")
        mdir = build_synthetic_model(root, "mixed", members=members, n_val=40, n_test=40, seed=3)
        store = ArtifactStore(root)
        test_probs = store.probs_path("mixed", "pp-FlipX", "test")
        corrupt_file_truncate(test_probs, test_probs, keep_fraction=0.3, seed=4)
        for split in ("val", "test"):  # weights only
            store.probs_path("mixed", "pp-Gamma_2", split).unlink()
        store.probs_path("mixed", "replica-001", "test").unlink()  # val probs only
        store.weights_path("mixed", "replica-001").unlink()
        (mdir / "notes.txt").write_text("not an artifact")
        (mdir / "greedy-4.json").write_text(json.dumps(["ORG", "AdHist"]))  # pp-AdHist has no file
        assert {"labels.val.npz", "labels.test.npz"} <= set(os.listdir(mdir))

        plan = EnsembleRuntime(store).member_plan("mixed")
        assert plan == ["ORG", "pp-FlipX", "pp-Gamma_2", "pp-Hist", "replica-001"]
        assert plan == _scanned_plan(ArtifactStore(root), "mixed")

    def test_quarantined_member_stays_planned_after_its_files_are_deleted(self, synthetic_cache):
        """Deleting a member's files after this store quarantined one of
        them leaves the member in the plan, as the roster scan still reports
        the quarantined file: the session reports it missing."""

        store = ArtifactStore(synthetic_cache)
        runtime = EnsembleRuntime(store)
        path = store.probs_path("tinynet", "pp-Hist", "test")
        corrupt_file_truncate(path, path, keep_fraction=0.3, seed=6)
        assert "pp-Hist" in runtime.session("tinynet").quarantined
        for stale in (synthetic_cache / "tinynet").glob("pp-Hist.*"):
            stale.unlink()
        assert "pp-Hist" in runtime.member_plan("tinynet")
        assert runtime.member_plan("tinynet") == _scanned_plan(store, "tinynet")
        session = runtime.session("tinynet")
        assert "pp-Hist" in session.missing and "pp-Hist" not in session.members

    def test_plan_matches_the_scan_on_every_seed_model(self, seed_store):
        for model in seed_store.models():
            plan = EnsembleRuntime(seed_store.fresh()).member_plan(model)
            assert plan == _scanned_plan(seed_store.fresh(), model), model


def _rewrite(path, write, key):
    """Rewrite an npz artifact with shifted contents and a new stat signature."""

    write(path, np.roll(np.load(path)[key], 1, axis=-1))
    st = os.stat(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))


class TestCleanBaselineMemo:
    """The clean test split is scored once per (model, members), test
    arrays and gate."""

    def test_one_scoring_per_member_set(self, synthetic_store, clean_scorings):
        calls = clean_scorings
        runtime = EnsembleRuntime(synthetic_store)
        first = prepare_degradation(synthetic_store, "tinynet", runtime=runtime)
        again = prepare_degradation(synthetic_store, "tinynet", runtime=runtime)
        assert again.clean_features is first.clean_features and again.clean == first.clean
        narrowed = prepare_degradation(synthetic_store, "tinynet", members=["ORG", "pp-Hist"], runtime=runtime)
        # the feature layout does not depend on the member count, so the
        # narrower set shows as its own fit and its own scoring
        assert narrowed.session.module is not first.session.module and _fits() == 2
        assert narrowed.clean_features.shape == first.clean_features.shape
        assert not np.array_equal(narrowed.clean_features, first.clean_features)
        assert [len(members) for members in calls] == [len(SYNTH_MEMBERS), 2]

    def test_one_entry_per_model_across_member_sets(self, synthetic_store, clean_scorings):
        """Breakers that keep changing the survivors must not grow the memo:
        a new member set replaces the model's entry."""

        calls = clean_scorings
        runtime = EnsembleRuntime(synthetic_store)
        for members in (None, ["ORG", "pp-Hist"], None, ["ORG", "pp-Hist"]):
            prepare_degradation(synthetic_store, "tinynet", members=members, runtime=runtime)
            assert len(runtime._shared) == 1
        assert len(calls) == 4

    @pytest.mark.parametrize("artifact", ["member-probs", "labels"])
    def test_rewritten_test_artifact_is_scored_again(
        self, synthetic_store, synthetic_cache, clean_scorings, write_probs, write_labels, artifact
    ):
        calls = clean_scorings
        runtime = EnsembleRuntime(synthetic_store)
        stale = prepare_degradation(synthetic_store, "tinynet", runtime=runtime)
        if artifact == "labels":
            _rewrite(synthetic_store.labels_path("tinynet", "test"), write_labels, "labels")
        else:
            _rewrite(synthetic_store.probs_path("tinynet", "ORG", "test"), write_probs, "probs")
        rescored = prepare_degradation(synthetic_store, "tinynet", runtime=runtime)
        fresh = prepare_degradation(ArtifactStore(synthetic_cache), "tinynet")
        assert len(calls) == 3  # stale, rescored, fresh
        assert rescored.session.module is stale.session.module  # the val side kept its gate
        assert rescored.clean == fresh.clean and rescored.clean != stale.clean
        assert np.array_equal(rescored.clean_targets, fresh.clean_targets)

    def test_refitted_gate_is_a_miss(self, synthetic_store, clean_scorings, write_probs):
        calls = clean_scorings
        runtime = EnsembleRuntime(synthetic_store)
        stale = prepare_degradation(synthetic_store, "tinynet", runtime=runtime)
        _rewrite(synthetic_store.probs_path("tinynet", "pp-Hist", "val"), write_probs, "probs")
        refit = prepare_degradation(synthetic_store, "tinynet", runtime=runtime)
        assert refit.session.module is not stale.session.module
        assert len(calls) == 2
        assert runtime.clean_baseline(refit.session).features is refit.clean_features

    def test_shared_baseline_arrays_are_read_only(self, synthetic_store):
        ctx = prepare_degradation(synthetic_store, "tinynet")
        for array in (ctx.clean_features, ctx.clean_targets, ctx.clean_flags):
            with pytest.raises(ValueError):
                array[0] = 1


class TestDegradedMode:
    def test_default_plan_reports_degradation(self, synthetic_store, synthetic_cache):
        """Regression: the default member plan must attempt present-but-broken
        members so degradation is *reported*, not silently planned away."""

        src = synthetic_store.probs_path("tinynet", "ORG", "val")
        corrupt_file_truncate(src, synthetic_store.probs_path("tinynet", "pp-Hist", "val"), keep_fraction=0.3, seed=21)
        (synthetic_cache / "tinynet" / "pp-FlipX.val.probs.npz").unlink()
        (synthetic_cache / "tinynet" / "pp-FlipX.test.probs.npz").unlink()
        session = EnsembleRuntime(synthetic_store).session("tinynet")  # no explicit members
        assert session.degraded
        assert "pp-FlipX" in session.missing  # weights remain, probs gone
        assert "pp-Hist" in session.quarantined

    def test_missing_member_yields_degraded_result(self, synthetic_store, synthetic_cache):
        for split in ("val", "test"):
            (synthetic_cache / "tinynet" / f"pp-FlipX.{split}.probs.npz").unlink()
        session = EnsembleRuntime(synthetic_store).session("tinynet", list(SYNTH_MEMBERS))
        assert session.degraded
        assert "pp-FlipX" in session.missing and "pp-FlipX" not in session.members
        # still produces a usable answer: a fitted gate and labelled test split
        assert session.module is not None and session.test_labels is not None

    def test_corrupt_member_named_in_quarantine(self, synthetic_store, synthetic_cache):
        src = synthetic_store.probs_path("tinynet", "ORG", "val")
        dst = synthetic_store.probs_path("tinynet", "pp-Hist", "val")
        corrupt_file_truncate(src, dst, keep_fraction=0.3, seed=11)
        session = EnsembleRuntime(synthetic_store).session("tinynet", list(SYNTH_MEMBERS))
        assert session.degraded
        assert "pp-Hist" in session.quarantined
        assert session.quarantined["pp-Hist"]  # structured reason present

    def test_below_minimum_raises_degraded_ensemble(self, synthetic_store):
        runtime = EnsembleRuntime(synthetic_store, min_members=3)
        with pytest.raises(DegradedEnsemble) as exc_info:
            runtime.assemble("tinynet", "val", members=["ORG", "pp-Nope", "pp-AlsoNope"])
        assert exc_info.value.available == ["ORG"]

    def test_shape_disagreement_quarantines_member(self, synthetic_store, synthetic_cache, write_probs):
        bad = synthetic_cache / "tinynet" / "replica-001.val.probs.npz"
        write_probs(bad, np.full((8, 10), 0.1, dtype=np.float32))  # wrong N
        runtime = EnsembleRuntime(synthetic_store)
        batch = runtime.assemble("tinynet", "val", members=list(SYNTH_MEMBERS))
        assert batch.quarantined.get("replica-001") == "probs-shape-disagrees"
