"""Artifact store: quarantine, manifests, and the corrupt seed cache."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from polygraphmr.cache import ArtifactCache
from polygraphmr.errors import ArtifactCorrupt, ArtifactMissing, RetryPolicy, TransientIOError
from polygraphmr.faults import corrupt_file_header, corrupt_file_truncate
from polygraphmr.manifest import CORRUPT
from polygraphmr.metrics import get_registry
from polygraphmr.store import ArtifactStore

from .conftest import SEED_CACHE, SYNTH_MEMBERS


class TestSyntheticStore:
    def test_load_probs(self, synthetic_store):
        probs = synthetic_store.load_probs("tinynet", "ORG", "val")
        assert probs.ndim == 2
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-3)

    def test_load_weights(self, synthetic_store):
        weights = synthetic_store.load_weights("tinynet", "pp-Hist")
        assert set(weights) == {"dense", "bias"}

    def test_load_labels(self, synthetic_store):
        labels = synthetic_store.load_labels("tinynet", "test")
        assert labels is not None and labels.dtype == np.int64

    def test_missing_artifact(self, synthetic_store):
        with pytest.raises(ArtifactMissing):
            synthetic_store.load_probs("tinynet", "pp-DoesNotExist", "val")
        assert synthetic_store.try_load_probs("tinynet", "pp-DoesNotExist", "val") is None

    def test_scan_model_manifest(self, synthetic_store):
        manifest = synthetic_store.scan_model("tinynet")
        # every synthetic member contributes 2 probs + 1 weights, all valid
        assert manifest.n_valid == 3 * len(SYNTH_MEMBERS)
        # roster stems we didn't generate are reported missing, not invented
        assert manifest.n_missing > 0
        assert manifest.n_corrupt == 0
        assert set(manifest.usable_stems()) == set(SYNTH_MEMBERS)
        assert manifest.greedy["greedy-4"] == ["ORG", "pp-Gamma_2", "pp-Hist", "pp-FlipX"]


class TestQuarantine:
    def test_truncated_copy_is_quarantined(self, synthetic_store):
        src = synthetic_store.probs_path("tinynet", "ORG", "val")
        dst = synthetic_store.probs_path("tinynet", "pp-Trunc", "val")
        corrupt_file_truncate(src, dst, keep_fraction=0.4, seed=1)
        with pytest.raises(ArtifactCorrupt):
            synthetic_store.load_probs("tinynet", "pp-Trunc", "val")
        assert synthetic_store.is_quarantined(dst)
        # second access short-circuits via the quarantine registry
        assert synthetic_store.try_load_probs("tinynet", "pp-Trunc", "val") is None

    def test_header_damage_is_quarantined(self, synthetic_store):
        src = synthetic_store.probs_path("tinynet", "ORG", "test")
        dst = synthetic_store.probs_path("tinynet", "pp-Head", "test")
        corrupt_file_header(src, dst, n_bytes=4, seed=2)
        assert synthetic_store.try_load_probs("tinynet", "pp-Head", "test") is None
        assert synthetic_store.quarantine[str(dst)] == "bad-magic"

    def test_semantic_violation_is_quarantined(self, synthetic_store, synthetic_cache, write_probs):
        bad = synthetic_cache / "tinynet" / "pp-Bad.val.probs.npz"
        write_probs(bad, np.full((8, 10), 0.5))  # rows sum to 5, not 1
        with pytest.raises(Exception) as exc_info:
            synthetic_store.load_probs("tinynet", "pp-Bad", "val")
        assert getattr(exc_info.value, "reason", "") == "probs-not-simplex"
        assert synthetic_store.is_quarantined(bad)

    def test_corrupt_file_appears_in_manifest(self, synthetic_store, synthetic_cache):
        src = synthetic_store.probs_path("tinynet", "ORG", "val")
        dst = synthetic_store.probs_path("tinynet", "pp-AdHist", "val")
        corrupt_file_truncate(src, dst, keep_fraction=0.3, seed=3)
        manifest = synthetic_store.scan_model("tinynet")
        assert manifest.n_corrupt == 1
        (rec,) = manifest.quarantined()
        assert rec.stem == "pp-AdHist"
        assert rec.status.reason in ("truncated", "bad-zip", "bad-npy")


class TestTransientReads:
    def test_a_failed_read_is_retried_not_quarantined(self, synthetic_cache, failing_reads):
        """An exhausted read says ``io-error`` in that scan's manifest and
        fails that load, but nothing remembers it: the next load retries."""

        cache = ArtifactCache()
        store = ArtifactStore(synthetic_cache, cache=cache, retry_policy=RetryPolicy(sleep=lambda _s: None))
        path = store.probs_path("tinynet", "pp-Hist", "test")
        left = failing_reads(path.name, 3)  # the policy's three attempts: one exhausted read
        rec = {r.filename: r for r in store.scan_model("tinynet").records}[path.name]
        assert (rec.status.status, rec.status.reason) == (CORRUPT, "io-error")
        assert left[path.name] == 0
        assert not store.is_quarantined(path)
        assert cache.stats()["negative_entries"] == 0
        assert store.fresh().load_probs("tinynet", "pp-Hist", "test").shape == (160, 10)

        uncached = ArtifactStore(synthetic_cache, retry_policy=store.retry_policy)
        failing_reads(path.name, 3)
        with pytest.raises(TransientIOError):
            uncached.load_probs("tinynet", "pp-Hist", "test")
        assert not uncached.is_quarantined(path)
        assert uncached.try_load_probs("tinynet", "pp-Hist", "test") is not None
        assert get_registry().counter_value("store_load_total", kind="probs", result="io-error") == 2


@pytest.mark.skipif(not SEED_CACHE.is_dir(), reason="seed cache absent")
class TestSeedCache:
    """The real .repro_cache: every npz was damaged by the capture pipeline.

    The hard acceptance criterion: scanning and loading must crash on *none*
    of them — everything lands in quarantine with a structured reason.
    """

    def test_scan_all_never_raises_and_quarantines_known_bad(self, seed_store):
        cache = seed_store.scan_all()
        assert set(cache.models) >= {"alexnet", "lenet5", "resnet20"}
        assert cache.n_corrupt >= 1  # known-truncated artifacts
        # every quarantined record carries a machine-readable reason
        for manifest in cache.models.values():
            for rec in manifest.quarantined():
                assert rec.status.reason

    def test_manifest_totals_and_reasons_are_pinned(self):
        """The committed seed cache's verdicts, record by record in
        aggregate: no read path may move a verdict."""

        cache = ArtifactStore(SEED_CACHE).scan_all().to_dict()
        assert cache["totals"] == {"valid": 0, "corrupt": 536, "missing": 43}
        reasons = Counter(
            (rec["status"], rec["reason"]) for model in cache["models"].values() for rec in model["records"]
        )
        assert reasons == {("corrupt", "no-eocd"): 495, ("corrupt", "truncated"): 41, ("missing", "not-found"): 43}

    def test_every_seed_artifact_loads_or_quarantines(self, seed_store):
        for npz in sorted(SEED_CACHE.glob("*/*.npz")):
            report_ok = True
            try:
                from polygraphmr.integrity import load_npz_validated

                load_npz_validated(npz)
            except ArtifactCorrupt as exc:
                report_ok = False
                assert exc.reason in ("truncated", "bad-zip", "bad-npy", "empty", "bad-magic", "no-eocd")
            except Exception as exc:  # noqa: BLE001
                pytest.fail(f"{npz}: unstructured failure {exc!r}")
            # the seed cache is wholly corrupt; if an artifact ever loads
            # cleanly that's fine too (report_ok), but it must be one or the other
            assert report_ok in (True, False)

    def test_resnet20_partial_manifest(self, seed_store):
        manifest = seed_store.scan_model("resnet20")
        present = {r.filename for r in manifest.records if r.status.status != "missing"}
        assert "ORG.val.probs.npz" in present
        assert manifest.n_missing >= 30  # only 5 npz of ~42 expected were captured
        assert manifest.n_valid == 0  # and the captured ones are corrupt
