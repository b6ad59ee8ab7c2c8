"""Shared fixtures: synthetic cache builders (every npz cache a test uses is
built here, never inline in a test file), plus paths into the real (seed)
``.repro_cache``, whose npz artifacts are all known-corrupt."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from polygraphmr.faults import build_synthetic_model
from polygraphmr.metrics import get_registry
from polygraphmr.naming import standard_roster
from polygraphmr.store import ArtifactStore

try:  # hypothesis is a dev extra; only the property tests need it
    from hypothesis import settings

    # journal appends fsync per record — wall-clock deadlines just flake
    settings.register_profile("polygraphmr", deadline=None)
    settings.load_profile("polygraphmr")
except ImportError:
    pass

REPO_ROOT = Path(__file__).resolve().parent.parent
SEED_CACHE = REPO_ROOT / ".repro_cache"


def shm_entries() -> set[str]:
    """Every entry under ``/dev/shm``, whoever made it: a campaign or a
    gateway that leaves one behind fails the before/after comparison."""

    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


@pytest.fixture(autouse=True)
def _reset_observability():
    """Metrics are process-global; isolate every test from the last."""

    get_registry().reset()
    yield
    get_registry().reset()

SYNTH_MEMBERS = ("ORG", "pp-Gamma_2", "pp-Hist", "pp-FlipX", "replica-001")


@pytest.fixture()
def synthetic_cache(tmp_path: Path) -> Path:
    """A cache root holding one fully-valid model named ``tinynet``."""

    root = tmp_path / "cache"
    build_synthetic_model(root, "tinynet", members=SYNTH_MEMBERS, n_val=160, n_test=160, seed=7)
    return root


@pytest.fixture()
def synthetic_store(synthetic_cache: Path) -> ArtifactStore:
    return ArtifactStore(synthetic_cache)


@pytest.fixture()
def multi_model_cache(tmp_path: Path) -> Path:
    """A cache root with four small valid models (``net-00`` … ``net-03``) —
    enough distinct models for a 4-worker parallel campaign, since trial
    ownership is partitioned by model."""

    root = tmp_path / "cache4"
    for i in range(4):
        build_synthetic_model(root, f"net-{i:02d}", n_val=64, n_test=64, seed=11 + i)
    return root


@pytest.fixture()
def wide_cache(tmp_path: Path) -> Path:
    """A cache root holding one 10-member model named ``wide`` (200 val +
    1000 test samples, 10 classes): the benchmark's member count at a
    tenth of its test split."""

    root = tmp_path / "wide"
    build_synthetic_model(root, "wide", members=tuple(standard_roster()[:10]), n_val=200, n_test=1000, seed=5)
    return root


@pytest.fixture()
def delta_cache(tmp_path: Path) -> Path:
    """A cache root holding one 6-member model named ``delta`` (300 val +
    1201 test samples, 10 classes): large enough that the built-in sparse
    faults touch a few percent of the samples, and one sample more than a
    whole number of 1200-sample slabs."""

    root = tmp_path / "delta"
    build_synthetic_model(root, "delta", members=tuple(standard_roster()[:6]), n_val=300, n_test=1201, seed=9)
    return root


@pytest.fixture(scope="session")
def cifar_cache(tmp_path_factory) -> Path:
    """A cache root holding one CIFAR-shaped model named ``cifar`` (10
    members, 10k val + 10k test samples, 10 classes), the benchmark's
    shape; built once per session and never written."""

    root = tmp_path_factory.mktemp("cifar")
    build_synthetic_model(root, "cifar", members=tuple(standard_roster()[:10]), n_val=10_000, n_test=10_000, seed=1)
    return root


@pytest.fixture()
def demo_cache(tmp_path: Path) -> Path:
    """A cache root holding :func:`build_synthetic_model`'s default model
    (``synthetic``, 200 val + 200 test samples, seed 0)."""

    root = tmp_path / "demo"
    build_synthetic_model(root, seed=0)
    return root


@pytest.fixture()
def bare_cache(tmp_path: Path):
    """Factory for a cache root with empty model directories — enough for
    campaign runners whose ``trial_fn`` is faked and never touches the store."""

    def build(*models: str) -> Path:
        root = tmp_path / "cache"
        for model in models or ("m",):
            (root / model).mkdir(parents=True)
        return root

    return build


@pytest.fixture()
def add_model(tmp_path: Path):
    """Factory that drops another fully-valid synthetic model into a cache."""

    def build(root: Path, model: str, *, n_val: int = 96, n_test: int = 96, seed: int = 3) -> Path:
        return build_synthetic_model(
            root, model, members=SYNTH_MEMBERS, n_val=n_val, n_test=n_test, seed=seed
        )

    return build


@pytest.fixture()
def write_probs():
    """Factory writing a raw probs npz (valid container, caller-chosen
    contents) — for tests that need a semantically-broken member."""

    def write(path: Path, probs: np.ndarray) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, probs=probs)
        return path

    return write


@pytest.fixture()
def write_labels():
    """Factory writing a raw labels npz — for tests that need labels the
    split's probs disagree with."""

    def write(path: Path, labels: np.ndarray) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, labels=labels)
        return path

    return write


@pytest.fixture()
def failing_reads(monkeypatch):
    """Factory that makes file reads fail: ``fail(name, times, exc)`` makes
    the next ``times`` reads (default: every read) of any file called
    ``name`` raise ``exc``; ``fail(name, 0)`` heals it.  Returns the reads
    still to fail, by file name."""

    left: dict[str, float] = {}
    raised: dict[str, type[OSError]] = {}
    real = Path.read_bytes

    def read_bytes(self: Path) -> bytes:
        if left.get(self.name, 0) > 0:
            left[self.name] -= 1
            raise raised[self.name](f"{self}: injected read failure")
        return real(self)

    monkeypatch.setattr(Path, "read_bytes", read_bytes)

    def fail(name: str, times: float = float("inf"), exc: type[OSError] = OSError) -> dict[str, float]:
        left[name] = times
        raised[name] = exc
        return left

    return fail


@pytest.fixture()
def clean_scorings(monkeypatch) -> list:
    """Records the member list of every clean-baseline scoring a runtime
    computes (memo misses of ``EnsembleRuntime.clean_baseline``)."""

    from polygraphmr import ensemble

    calls: list = []
    real = ensemble._score_clean
    monkeypatch.setattr(ensemble, "_score_clean", lambda session: calls.append(session.members) or real(session))
    return calls


@pytest.fixture()
def seed_store() -> ArtifactStore:
    if not SEED_CACHE.is_dir():
        pytest.skip("seed .repro_cache not present")
    return ArtifactStore(SEED_CACHE)
