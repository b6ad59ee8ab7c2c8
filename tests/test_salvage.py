"""Salvage layer: carving damaged npz archives, and the store's opt-in
``allow_salvaged`` mode that serves carved arrays instead of quarantining."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from polygraphmr.errors import ArtifactCorrupt, ArtifactMissing, IntegrityMismatch
from polygraphmr.salvage import CRC_MISMATCH, RECOVERED, TRUNCATED, salvage_npz
from polygraphmr.store import ArtifactStore

ZIP_MAGIC = b"PK\x03\x04"


def _member_offsets(data: bytes) -> list[int]:
    """Byte offsets of every local-file-header signature."""

    offsets, i = [], 0
    while True:
        i = data.find(ZIP_MAGIC, i)
        if i < 0:
            return offsets
        offsets.append(i)
        i += 4


def _data_start(data: bytes, offset: int) -> int:
    """First payload byte of the member whose header sits at ``offset``."""

    nlen, elen = struct.unpack_from("<HH", data, offset + 26)
    return offset + 30 + nlen + elen


def _valid_probs(n: int = 40, c: int = 10, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 1.0, size=(n, c))
    return (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)


def _write_salvageable_probs(path, *, probs: np.ndarray | None = None) -> np.ndarray:
    """An npz whose ``probs`` member is intact but whose container is broken:
    member order is (probs, filler) and the cut lands inside filler."""

    if probs is None:
        probs = _valid_probs()
    filler = np.arange(4096, dtype=np.float64)
    np.savez(path, probs=probs, filler=filler)
    data = path.read_bytes()
    offsets = _member_offsets(data)
    assert len(offsets) >= 2, "expected two members"
    path.write_bytes(data[: offsets[1] + 40])  # filler header survives, its data does not
    return probs


class TestCarving:
    def test_intact_archive_recovers_every_member(self, tmp_path):
        p = tmp_path / "ok.npz"
        a, b = _valid_probs(), np.arange(12, dtype=np.int64)
        np.savez(p, probs=a, aux=b)
        report = salvage_npz(p)
        assert report.ok
        assert report.recovered == ["aux", "probs"]
        assert np.array_equal(report.arrays["probs"], a)
        assert np.array_equal(report.arrays["aux"], b)
        assert report.n_lost == 0
        assert all(o.status == RECOVERED for o in report.outcomes)

    def test_compressed_archive_recovers(self, tmp_path):
        p = tmp_path / "ok.npz"
        a = _valid_probs()
        np.savez_compressed(p, probs=a)
        report = salvage_npz(p)
        assert np.array_equal(report.arrays["probs"], a)

    def test_tail_truncation_recovers_head_member(self, tmp_path):
        p = tmp_path / "cut.npz"
        probs = _write_salvageable_probs(p)
        report = salvage_npz(p)
        assert report.ok
        assert report.recovered == ["probs"]
        assert np.array_equal(report.arrays["probs"], probs)
        assert report.n_lost >= 1
        truncated = [o for o in report.outcomes if o.status == TRUNCATED]
        assert truncated and truncated[0].name == "filler.npy"

    def test_byte_flip_is_caught_by_crc(self, tmp_path):
        p = tmp_path / "flip.npz"
        np.savez(p, probs=_valid_probs(), aux=np.arange(12, dtype=np.int64))
        data = bytearray(p.read_bytes())
        offsets = _member_offsets(data)
        hit = _data_start(bytes(data), offsets[0]) + 200  # inside probs's payload
        assert hit < offsets[1]
        data[hit] ^= 0xFF
        p.write_bytes(bytes(data))
        report = salvage_npz(p)
        assert "probs" not in report.arrays
        assert np.array_equal(report.arrays["aux"], np.arange(12, dtype=np.int64))
        bad = {o.name: o.status for o in report.outcomes}
        assert bad["probs.npy"] == CRC_MISMATCH

    def test_hopeless_bytes_yield_empty_report_without_raising(self, tmp_path):
        p = tmp_path / "noise.npz"
        p.write_bytes(bytes(np.random.default_rng(0).integers(0, 256, size=2048, dtype=np.uint8)))
        report = salvage_npz(p)
        assert not report.ok
        assert report.arrays == {}

    def test_missing_file_propagates(self, tmp_path):
        with pytest.raises(ArtifactMissing):
            salvage_npz(tmp_path / "absent.npz")


class TestStoreSalvage:
    def _model_dir(self, tmp_path):
        mdir = tmp_path / "cache" / "m"
        mdir.mkdir(parents=True)
        return tmp_path / "cache", mdir

    def test_allow_salvaged_serves_carved_probs(self, tmp_path):
        root, mdir = self._model_dir(tmp_path)
        path = mdir / "ORG.val.probs.npz"
        probs = _write_salvageable_probs(path)

        store = ArtifactStore(root, allow_salvaged=True)
        out = store.load_probs("m", "ORG", "val")
        assert np.array_equal(out, probs.astype(np.float64))  # carved bytes, exactly
        assert store.is_salvaged(path)
        assert not store.is_quarantined(path)
        assert store.salvaged[str(path)].recovered == ["probs"]

    def test_default_store_quarantines_the_same_file(self, tmp_path):
        root, mdir = self._model_dir(tmp_path)
        path = mdir / "ORG.val.probs.npz"
        _write_salvageable_probs(path)

        store = ArtifactStore(root)  # allow_salvaged defaults off
        with pytest.raises(ArtifactCorrupt):
            store.load_probs("m", "ORG", "val")
        assert store.is_quarantined(path)
        assert not store.is_salvaged(path)

    def test_scan_model_reports_salvaged_status(self, tmp_path):
        root, mdir = self._model_dir(tmp_path)
        _write_salvageable_probs(mdir / "ORG.val.probs.npz")

        store = ArtifactStore(root, allow_salvaged=True)
        manifest = store.scan_model("m")
        by_file = {r.filename: r for r in manifest.records}
        record = by_file["ORG.val.probs.npz"]
        assert record.status.status == "salvaged"
        assert record.ok  # salvaged counts as usable
        assert manifest.n_salvaged == 1

    def test_semantic_garbage_is_never_salvaged(self, tmp_path):
        """Carving rescues bytes, not meaning: a carved probs matrix that is
        off the simplex must still be quarantined."""

        root, mdir = self._model_dir(tmp_path)
        path = mdir / "ORG.val.probs.npz"
        bad = np.ones((10, 5), dtype=np.float32)  # rows sum to 5
        _write_salvageable_probs(path, probs=bad)

        store = ArtifactStore(root, allow_salvaged=True)
        with pytest.raises(ArtifactCorrupt):
            store.load_probs("m", "ORG", "val")
        assert store.is_quarantined(path)
        assert not store.is_salvaged(path)

    def test_intact_but_off_simplex_raises_integrity_mismatch(self, tmp_path):
        root, mdir = self._model_dir(tmp_path)
        path = mdir / "ORG.val.probs.npz"
        np.savez(path, probs=np.ones((10, 5), dtype=np.float32))

        store = ArtifactStore(root, allow_salvaged=True)
        with pytest.raises(IntegrityMismatch):
            store.load_probs("m", "ORG", "val")
        assert store.is_quarantined(path)

    def test_ensemble_runs_through_a_salvaged_member(self, synthetic_cache):
        """End to end: damage one member's container in a salvageable way and
        the ensemble keeps it (full result) when salvage is enabled."""

        from polygraphmr.ensemble import DegradedResult, EnsembleRuntime

        target = synthetic_cache / "tinynet" / "pp-Hist.val.probs.npz"
        intact = np.load(target)["probs"]
        filler_path = synthetic_cache / "tinynet" / "rebuilt.npz"
        np.savez(filler_path, probs=intact, filler=np.arange(4096, dtype=np.float64))
        rebuilt = filler_path.read_bytes()
        filler_path.unlink()
        offsets = _member_offsets(rebuilt)
        target.write_bytes(rebuilt[: offsets[1] + 40])

        salvaging = EnsembleRuntime(ArtifactStore(synthetic_cache, allow_salvaged=True))
        result = salvaging.run_model("tinynet")
        assert not isinstance(result, DegradedResult)
        assert "pp-Hist" in result.members

        strict = EnsembleRuntime(ArtifactStore(synthetic_cache))
        degraded = strict.run_model("tinynet")
        assert isinstance(degraded, DegradedResult)
        assert "pp-Hist" in degraded.quarantined

    def test_seed_cache_headers_are_cut_through(self, seed_store):
        """Honesty check: the seed cache's damage cuts through the member
        headers, so salvage must report zero recoveries, not invent data."""

        model = seed_store.models()[0]
        mdir = seed_store.model_dir(model)
        npzs = sorted(mdir.glob("*.npz"))[:3]
        assert npzs
        for path in npzs:
            report = salvage_npz(path)
            assert report.n_recovered == 0


def test_salvage_survives_copy(tmp_path):
    """salvage_npz(data=...) works on in-memory bytes identically."""

    p = tmp_path / "cut.npz"
    probs = _write_salvageable_probs(p)
    via_file = salvage_npz(p)
    via_bytes = salvage_npz(p, data=p.read_bytes())
    assert via_file.recovered == via_bytes.recovered == ["probs"]
    assert np.array_equal(via_bytes.arrays["probs"], probs)
