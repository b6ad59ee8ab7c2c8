"""Verified-once artifact cache.

Covers the three guarantees the cache layer makes:

* **Transparency** — journal and checkpoint bytes are identical with the
  cache on vs. off, and serial vs. 4-worker.
* **Safety** — cached arrays are read-only, stat-signature changes force
  re-validation, quarantine/salvage verdicts survive the cache round-trip.
* **Validated once per fleet** — model-partitioned workers make exactly the
  serial run's cache lookups, and leave nothing in ``/dev/shm``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polygraphmr.cache import ArtifactCache, CacheEntry, NegativeEntry, stat_signature
from polygraphmr.campaign import CampaignConfig, CampaignRunner
from polygraphmr.errors import ArtifactCorrupt, IntegrityMismatch
from polygraphmr.faults import corrupt_file_truncate
from polygraphmr.manifest import CORRUPT, SALVAGED
from polygraphmr.metrics import get_registry
from polygraphmr.parallel import ParallelCampaignRunner
from polygraphmr.store import ArtifactStore

from .conftest import REPO_ROOT, shm_entries

ZIP_MAGIC = b"PK\x03\x04"


def _valid_probs(n: int = 40, c: int = 10, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 1.0, size=(n, c))
    return (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)


def _member_offsets(data: bytes) -> list[int]:
    offsets, i = [], 0
    while True:
        i = data.find(ZIP_MAGIC, i)
        if i < 0:
            return offsets
        offsets.append(i)
        i += 4


def _write_salvageable_probs(path: Path, *, probs: np.ndarray | None = None) -> np.ndarray:
    """An npz whose ``probs`` member is intact but whose container is broken
    (same construction as the salvage-layer tests): member order is
    (probs, filler) and the cut lands inside filler."""

    if probs is None:
        probs = _valid_probs()
    filler = np.arange(4096, dtype=np.float64)
    np.savez(path, probs=probs, filler=filler)
    data = path.read_bytes()
    offsets = _member_offsets(data)
    assert len(offsets) >= 2, "expected two members"
    path.write_bytes(data[: offsets[1] + 40])
    return probs


class TestArtifactCacheLRU:
    def test_hit_skips_revalidation_and_is_read_only(self, tmp_path, write_probs):
        root = tmp_path / "cache"
        path = write_probs(root / "m" / "ORG.val.probs.npz", _valid_probs())
        cache = ArtifactCache()
        store = ArtifactStore(root, cache=cache)

        first = store.load_probs("m", "ORG", "val")
        second = store.fresh().load_probs("m", "ORG", "val")
        assert second is first  # the very same validated array, not a re-read
        with pytest.raises(ValueError):
            second[0, 0] = 0.5

        registry = get_registry()
        assert registry.counter_value("store_load_total", kind="probs", result="hit") == 1
        assert registry.counter_value("store_load_total", kind="probs", result="cache-hit") == 1
        assert registry.counter_value("artifact_cache_hits_total", kind="probs") == 1
        assert stat_signature(path) is not None

    def test_byte_budget_evicts_lru_and_tracks_gauge(self, tmp_path):
        arr = np.zeros(1024, dtype=np.float64)  # 8 KiB each
        cache = ArtifactCache(max_bytes=3 * arr.nbytes)
        paths = []
        for i in range(4):
            p = tmp_path / f"a{i}.npz"
            p.write_bytes(b"placeholder")
            paths.append(p)
            cache.put(p, "probs", arr.copy())
        # 4 inserts into a 3-entry budget: the oldest fell out
        assert cache.lookup(paths[0], "probs") is None
        assert cache.lookup(paths[3], "probs") is not None
        registry = get_registry()
        assert registry.counter_total("artifact_cache_evictions_total") == 1
        assert registry.gauge_value("artifact_cache_bytes") == 3 * arr.nbytes
        assert cache.stats()["entries"] == 3

    def test_value_larger_than_budget_is_not_cached(self, tmp_path):
        cache = ArtifactCache(max_bytes=64)
        p = tmp_path / "big.npz"
        p.write_bytes(b"x")
        out = cache.put(p, "probs", np.zeros(1024))
        assert not out.flags.writeable  # still frozen for the caller
        assert cache.lookup(p, "probs") is None
        assert cache.stats()["bytes"] == 0

    def test_stat_signature_change_forces_revalidation(self, tmp_path, write_probs):
        root = tmp_path / "cache"
        path = write_probs(root / "m" / "ORG.val.probs.npz", _valid_probs(seed=1))
        cache = ArtifactCache()
        store = ArtifactStore(root, cache=cache)
        old = store.load_probs("m", "ORG", "val")

        replacement = _valid_probs(n=48, seed=2)  # different size too
        write_probs(path, replacement)
        fresh = store.fresh().load_probs("m", "ORG", "val")
        assert fresh.shape[0] == 48
        assert fresh is not old
        assert get_registry().counter_total("artifact_cache_invalidations_total") == 1

    def test_mtime_only_change_also_invalidates(self, tmp_path):
        p = tmp_path / "f.npz"
        p.write_bytes(b"same-bytes")
        cache = ArtifactCache()
        cache.put(p, "labels", np.arange(4))
        assert cache.lookup(p, "labels") is not None
        sig = stat_signature(p)
        os.utime(p, ns=(sig[1] + 1_000_000, sig[1] + 1_000_000))
        assert cache.lookup(p, "labels") is None

    @pytest.mark.parametrize("max_bytes", [0, -1])
    def test_non_positive_budget_is_refused(self, max_bytes):
        with pytest.raises(ValueError, match="max_bytes must be positive"):
            ArtifactCache(max_bytes=max_bytes)

    def test_unstattable_path_is_a_miss_and_never_cached(self, tmp_path):
        gone = tmp_path / "absent.npz"
        cache = ArtifactCache()
        assert cache.lookup(gone, "probs") is None
        out = cache.put(gone, "probs", np.zeros(8))
        assert not out.flags.writeable  # frozen for the caller all the same
        assert cache.stats() == {"entries": 0, "negative_entries": 0, "bytes": 0, "max_bytes": cache.max_bytes}
        assert get_registry().counter_value("artifact_cache_misses_total", kind="probs") == 1

    def test_lookups_are_counted_by_kind_alone(self, tmp_path):
        """Every worker's cache is private, so a hit has one source: the
        counters carry the artifact kind and nothing else."""

        p = tmp_path / "f.npz"
        p.write_bytes(b"bytes")
        cache = ArtifactCache()
        assert cache.lookup(p, "probs") is None
        cache.put(p, "probs", np.arange(4.0))
        cache.put(p, "labels", np.arange(4))
        assert isinstance(cache.lookup(p, "probs"), CacheEntry)
        assert isinstance(cache.lookup(p, "labels"), CacheEntry)
        rows = [
            (row["name"], row["labels"], row["value"])
            for row in get_registry().to_dict()["counters"]  # sorted by name, then labels
            if row["name"] in ("artifact_cache_hits_total", "artifact_cache_misses_total")
        ]
        assert rows == [
            ("artifact_cache_hits_total", {"kind": "labels"}, 1),
            ("artifact_cache_hits_total", {"kind": "probs"}, 1),
            ("artifact_cache_misses_total", {"kind": "probs"}, 1),
        ]


class TestNegativeCache:
    def test_corrupt_probs_negative_cached_across_stores(self, tmp_path, write_probs):
        root = tmp_path / "cache"
        path = write_probs(root / "m" / "ORG.val.probs.npz", _valid_probs())
        corrupt_file_truncate(path, path, keep_fraction=0.1, seed=1)
        cache = ArtifactCache()
        store = ArtifactStore(root, cache=cache)

        with pytest.raises(ArtifactCorrupt):
            store.load_probs("m", "ORG", "val")
        # a new store generation pays one stat, not a second failed parse
        other = store.fresh()
        with pytest.raises(ArtifactCorrupt) as exc_info:
            other.load_probs("m", "ORG", "val")
        assert exc_info.value.detail == "previously quarantined"
        assert other.is_quarantined(path)

        registry = get_registry()
        assert registry.counter_total("artifact_cache_negative_hits_total") == 1
        # soak-reconciliation invariant: every ArtifactCorrupt pairs with a
        # corrupt or quarantined-hit load result
        corrupt = registry.counter_value("store_load_total", kind="probs", result="corrupt")
        quarantined = registry.counter_value(
            "store_load_total", kind="probs", result="quarantined-hit"
        )
        taxonomy = registry.counter_value(
            "errors_total", type="ArtifactCorrupt", reason=exc_info.value.reason
        )
        assert corrupt + quarantined == taxonomy == 2

    def test_negative_entry_cleared_when_file_replaced(self, tmp_path, write_probs):
        root = tmp_path / "cache"
        path = write_probs(root / "m" / "ORG.val.probs.npz", _valid_probs())
        corrupt_file_truncate(path, path, keep_fraction=0.1, seed=1)
        cache = ArtifactCache()
        with pytest.raises(ArtifactCorrupt):
            ArtifactStore(root, cache=cache).load_probs("m", "ORG", "val")

        write_probs(path, _valid_probs(n=48, seed=9))  # repaired, new signature
        healed = ArtifactStore(root, cache=cache).load_probs("m", "ORG", "val")
        assert healed.shape[0] == 48
        assert cache.stats()["negative_entries"] == 0

    def test_scan_negative_hit_builds_status_without_errors(self, tmp_path, write_probs):
        root = tmp_path / "cache"
        path = write_probs(root / "m" / "ORG.val.probs.npz", _valid_probs())
        corrupt_file_truncate(path, path, keep_fraction=0.1, seed=1)
        cache = ArtifactCache()
        s1 = ArtifactStore(root, cache=cache)
        m1 = s1.scan_model("m")
        errors_after_first = get_registry().counter_total("errors_total")

        s2 = s1.fresh()
        m2 = s2.scan_model("m")
        # the cached verdict is rebuilt from strings: no exception objects,
        # so the error taxonomy counters don't move
        assert get_registry().counter_total("errors_total") == errors_after_first
        assert s2.is_quarantined(path)
        by_name = {r.filename: r for r in m2.records}
        rec = by_name["ORG.val.probs.npz"]
        assert rec.status.status == CORRUPT
        assert rec.status.reason == {r.filename: r for r in m1.records}[rec.filename].status.reason

    def test_stricter_n_classes_on_hit_raises_without_poisoning(self, tmp_path, write_probs):
        root = tmp_path / "cache"
        write_probs(root / "m" / "ORG.val.probs.npz", _valid_probs(c=10))
        cache = ArtifactCache()
        ArtifactStore(root, cache=cache).load_probs("m", "ORG", "val")

        strict = ArtifactStore(root, cache=cache)
        with pytest.raises(IntegrityMismatch) as exc_info:
            strict.load_probs("m", "ORG", "val", n_classes=7)
        assert exc_info.value.reason == "probs-bad-classes"
        # the entry is still valid for lenient callers: no negative verdict
        lenient = ArtifactStore(root, cache=cache)
        assert lenient.load_probs("m", "ORG", "val").shape[1] == 10


    def test_put_negative_drops_every_kind_for_the_path(self, tmp_path):
        p = tmp_path / "f.npz"
        p.write_bytes(b"bytes")
        cache = ArtifactCache()
        cache.put(p, "probs", np.zeros(16))
        cache.put_probe(p)
        cache.put_negative(p, exc_type="ArtifactCorrupt", reason="npz-bad-zip", detail="cut")
        # the container is bad for every view of it, and its bytes are released
        for kind in ("probs", "probe"):
            got = cache.lookup(p, kind)
            assert isinstance(got, NegativeEntry)
            assert (got.exc_type, got.reason, got.detail) == ("ArtifactCorrupt", "npz-bad-zip", "cut")
        assert cache.stats()["entries"] == 0 and cache.stats()["bytes"] == 0
        assert get_registry().gauge_value("artifact_cache_bytes") == 0

    def test_validated_put_clears_the_negative_verdict(self, tmp_path):
        p = tmp_path / "f.npz"
        p.write_bytes(b"bytes")
        cache = ArtifactCache()
        cache.put_negative(p, exc_type="ArtifactCorrupt", reason="npz-bad-zip")
        assert isinstance(cache.lookup(p, "probs"), NegativeEntry)
        value = np.arange(4.0)
        cache.put(p, "probs", value)
        got = cache.lookup(p, "probs")
        assert isinstance(got, CacheEntry) and got.value is value
        assert cache.stats()["negative_entries"] == 0


class TestSalvageInterplay:
    def test_salvaged_artifact_is_cached_as_salvaged(self, tmp_path):
        root = tmp_path / "cache"
        (root / "m").mkdir(parents=True)
        path = root / "m" / "ORG.val.probs.npz"
        _write_salvageable_probs(path)
        cache = ArtifactCache()
        s1 = ArtifactStore(root, allow_salvaged=True, cache=cache)
        carved = s1.load_probs("m", "ORG", "val")
        assert s1.is_salvaged(path)

        s2 = s1.fresh()
        again = s2.load_probs("m", "ORG", "val")
        assert again is carved
        assert s2.is_salvaged(path)  # salvage registry restored from the entry
        registry = get_registry()
        assert registry.counter_value("store_load_total", kind="probs", result="salvaged") == 1
        assert registry.counter_value("store_load_total", kind="probs", result="cache-salvaged") == 1
        status = s2.fresh().scan_model("m").records[0].status
        assert status.status == SALVAGED

    def test_unsalvageable_artifact_is_negative_cached(self, tmp_path, write_probs):
        root = tmp_path / "cache"
        path = write_probs(root / "m" / "ORG.val.probs.npz", _valid_probs())
        corrupt_file_truncate(path, path, keep_fraction=0.05, seed=3)  # probs data destroyed
        cache = ArtifactCache()
        s1 = ArtifactStore(root, allow_salvaged=True, cache=cache)
        with pytest.raises(ArtifactCorrupt):
            s1.load_probs("m", "ORG", "val")
        assert not s1.is_salvaged(path)
        with pytest.raises(ArtifactCorrupt) as exc_info:
            s1.fresh().load_probs("m", "ORG", "val")
        assert exc_info.value.detail == "previously quarantined"
        assert cache.stats()["negative_entries"] == 1


class TestCacheDeterminism:
    """The acceptance regression: caching changes timing only, never bytes."""

    @staticmethod
    def _sha(path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_journal_and_checkpoint_bytes_identical_on_off_serial_parallel(
        self, tmp_path, multi_model_cache
    ):
        # a corrupt member exercises breakers, quarantine, and the negative
        # cache — the paths most likely to diverge if caching leaked into
        # record content
        for split in ("val", "test"):
            victim = multi_model_cache / "net-01" / f"pp-Gamma_2.{split}.probs.npz"
            corrupt_file_truncate(victim, victim, keep_fraction=0.2, seed=5)
        config = CampaignConfig(
            cache=str(multi_model_cache),
            n_trials=16,
            seed=7,
            timeout_s=60.0,
            failure_threshold=2,
            cooldown_ticks=1,
        )
        shm_before = shm_entries()

        CampaignRunner(config, tmp_path / "off", use_cache=False).run()
        serial = CampaignRunner(config, tmp_path / "on")
        serial.run()
        serial_lookups = {
            name: serial.merged_registry.counter_total(name)
            for name in ("artifact_cache_misses_total", "artifact_cache_hits_total")
        }
        parallel = ParallelCampaignRunner(config, tmp_path / "par", workers=4)
        summary = parallel.run()
        assert summary["completed"] == config.n_trials
        assert summary["failed_workers"] == []

        for artefact in ("journal.jsonl", "checkpoint.json"):
            off = self._sha(tmp_path / "off" / artefact)
            assert self._sha(tmp_path / "on" / artefact) == off, artefact
            assert self._sha(tmp_path / "par" / artefact) == off, artefact

        # each artifact is validated once per fleet: trial ownership is
        # partitioned by model, so the workers' private caches together make
        # exactly the serial run's lookups — no artifact is loaded twice
        merged = parallel.merged_registry
        assert {name: merged.counter_total(name) for name in serial_lookups} == serial_lookups
        assert serial_lookups["artifact_cache_misses_total"] > 0
        assert serial_lookups["artifact_cache_hits_total"] > 0
        assert shm_entries() == shm_before

    def test_two_workers_make_the_serial_runs_lookups(self, tmp_path, multi_model_cache):
        """Two workers own two models each: their private caches together
        miss and hit exactly as often as the serial run's one cache."""

        config = CampaignConfig(cache=str(multi_model_cache), n_trials=16, seed=7, timeout_s=60.0)
        names = ("artifact_cache_misses_total", "artifact_cache_hits_total")
        serial = CampaignRunner(config, tmp_path / "serial")
        serial.run()
        parallel = ParallelCampaignRunner(config, tmp_path / "par", workers=2)
        assert parallel.run()["failed_workers"] == []
        assert (tmp_path / "par" / "journal.jsonl").read_bytes() == (tmp_path / "serial" / "journal.jsonl").read_bytes()
        lookups = {name: serial.merged_registry.counter_total(name) for name in names}
        assert {name: parallel.merged_registry.counter_total(name) for name in names} == lookups
        assert all(lookups.values())


class TestNoSharedMemory:
    def test_campaign_and_gateway_never_import_shared_memory(self):
        """No code path creates a shared-memory segment, so the modules that
        run campaigns and serve requests do not even load the module."""

        probe = (
            "import sys, polygraphmr, polygraphmr.campaign, polygraphmr.parallel, polygraphmr.serve;"
            "print('multiprocessing.shared_memory' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"
