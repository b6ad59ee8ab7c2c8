"""Integrity layer: container validation, semantic checks, retry behavior."""

from __future__ import annotations

import numpy as np
import pytest

from polygraphmr.errors import (
    ArtifactCorrupt,
    ArtifactMissing,
    IntegrityMismatch,
    RetryPolicy,
    TransientIOError,
    retry_with_backoff,
)
from polygraphmr.integrity import (
    check_probs,
    check_weights,
    load_npz_validated,
    validate_zip_container,
)


def _write_npz(path, **arrays):
    np.savez(path, **arrays)
    return path


class TestContainerValidation:
    def test_valid_npz_passes(self, tmp_path):
        p = _write_npz(tmp_path / "ok.npz", probs=np.eye(3))
        report = validate_zip_container(p)
        assert report.ok
        assert "probs.npy" in report.members

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.npz"
        p.write_bytes(b"")
        report = validate_zip_container(p)
        assert not report.ok
        assert report.reason == "empty"

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.npz"
        p.write_bytes(b"this is not a zip file at all")
        report = validate_zip_container(p)
        assert not report.ok
        assert report.reason == "bad-magic"

    def test_no_eocd(self, tmp_path):
        src = _write_npz(tmp_path / "ok.npz", probs=np.eye(3))
        p = tmp_path / "headless.npz"
        p.write_bytes(src.read_bytes()[:40])  # keep local header, drop the rest
        report = validate_zip_container(p)
        assert not report.ok
        assert report.reason == "no-eocd"

    def test_middle_cut_detected_as_truncated(self, tmp_path):
        """The seed-cache damage pattern: head and tail intact, middle removed."""

        src = _write_npz(tmp_path / "ok.npz", probs=np.random.default_rng(0).random((64, 10)))
        data = src.read_bytes()
        cut = data[:100] + data[-120:]  # EOCD survives, offsets now lie
        p = tmp_path / "cut.npz"
        p.write_bytes(cut)
        report = validate_zip_container(p)
        assert not report.ok
        assert report.reason in ("truncated", "bad-zip")


class TestLoadNpz:
    def test_round_trip(self, tmp_path):
        p = _write_npz(tmp_path / "a.npz", probs=np.full((4, 2), 0.5))
        arrays = load_npz_validated(p, expect_keys=("probs",))
        assert arrays["probs"].shape == (4, 2)

    def test_missing_file_raises_artifact_missing(self, tmp_path):
        with pytest.raises(ArtifactMissing):
            load_npz_validated(tmp_path / "ghost.npz")

    def test_corrupt_raises_artifact_corrupt(self, tmp_path):
        p = tmp_path / "bad.npz"
        p.write_bytes(b"PK\x03\x04 followed by garbage")
        with pytest.raises(ArtifactCorrupt):
            load_npz_validated(p)

    def test_missing_keys_raise_integrity_mismatch(self, tmp_path):
        p = _write_npz(tmp_path / "b.npz", other=np.zeros(3))
        with pytest.raises(IntegrityMismatch) as exc_info:
            load_npz_validated(p, expect_keys=("probs",))
        assert exc_info.value.reason == "missing-keys"


class TestSemanticChecks:
    def test_good_probs(self):
        probs = np.full((5, 4), 0.25, dtype=np.float32)
        out = check_probs(probs, n_classes=4)
        assert out.dtype == np.float64

    @pytest.mark.parametrize(
        ("arr", "reason"),
        [
            (np.zeros(3), "probs-bad-shape"),
            (np.zeros((2, 3), dtype=np.int64), "probs-bad-dtype"),
            (np.array([[0.5, np.nan]]), "probs-not-finite"),
            (np.array([[1.5, -0.5]]), "probs-out-of-range"),
            (np.array([[0.3, 0.3]]), "probs-not-simplex"),
        ],
    )
    def test_bad_probs(self, arr, reason):
        with pytest.raises(IntegrityMismatch) as exc_info:
            check_probs(arr)
        assert exc_info.value.reason == reason

    def test_wrong_class_count(self):
        with pytest.raises(IntegrityMismatch) as exc_info:
            check_probs(np.full((2, 3), 1 / 3), n_classes=10)
        assert exc_info.value.reason == "probs-bad-classes"

    def test_weights_checks(self):
        ok = {"w": np.zeros((2, 2), dtype=np.float32)}
        assert check_weights(ok) is ok
        with pytest.raises(IntegrityMismatch):
            check_weights({})
        with pytest.raises(IntegrityMismatch):
            check_weights({"w": np.array([np.inf])})
        with pytest.raises(IntegrityMismatch):
            check_weights({"w": np.array([1, 2, 3])})


class TestRetry:
    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}
        waits: list[float] = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("blip")
            return "data"

        policy = RetryPolicy(attempts=3, base_delay=0.01, sleep=waits.append)
        assert retry_with_backoff(flaky, path="x", policy=policy) == "data"
        assert calls["n"] == 3
        assert waits == [0.01, 0.02]  # exponential

    def test_exhaustion_wraps_in_transient_io_error(self):
        def always_fails():
            raise OSError("dead disk")

        policy = RetryPolicy(attempts=2, base_delay=0.0, sleep=lambda _: None)
        with pytest.raises(TransientIOError) as exc_info:
            retry_with_backoff(always_fails, path="/dev/bad", policy=policy)
        assert exc_info.value.attempts == 2

    def test_non_transient_errors_propagate_immediately(self):
        calls = {"n": 0}

        def boom():
            calls["n"] += 1
            raise ValueError("logic bug")

        policy = RetryPolicy(attempts=5, sleep=lambda _: None)
        with pytest.raises(ValueError):
            retry_with_backoff(boom, policy=policy)
        assert calls["n"] == 1

    def test_backoff_is_capped(self):
        policy = RetryPolicy(attempts=10, base_delay=0.5, max_delay=1.0, sleep=lambda _: None)
        assert policy.schedule() == [0.5] + [1.0] * 8

    def test_backoff_sleeps_follow_the_schedule(self):
        waits: list[float] = []
        policy = RetryPolicy(attempts=4, base_delay=0.01, sleep=waits.append)

        def always_fails():
            raise OSError("blip")

        with pytest.raises(TransientIOError):
            retry_with_backoff(always_fails, path="x", policy=policy)
        assert waits == policy.schedule()
