"""Validated, quarantining artifact store over a ``.repro_cache`` directory.

Layout it understands::

    <root>/<model>/ORG.{val,test}.probs.npz
    <root>/<model>/ORG.weights.npz
    <root>/<model>/pp-<Preproc>.{val,test}.probs.npz     # metamorphic submodels
    <root>/<model>/pp-<Preproc>.weights.npz
    <root>/<model>/replica-00N.{val,test}.probs.npz      # independent replicas
    <root>/<model>/replica-00N.weights.npz
    <root>/<model>/greedy-{4,6}.json                     # selected display names
    <root>/<model>/labels.{val,test}.npz                 # optional ground truth

The store never lets a bad file crash a scan: corrupt artifacts are
quarantined with a structured reason and simply drop out of the usable set.
Every load, and every record of a roster scan, runs one pipeline,
:meth:`ArtifactStore._load`, configured per artifact kind by ``_KINDS``.
The roster scan (:meth:`ArtifactStore.scan_model`) is the cache audit's;
the ensemble runtime plans from :meth:`ArtifactStore.listed_stems`.
"""

from __future__ import annotations

import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .cache import PROBE_OK, ArtifactCache, NegativeEntry, is_file
from .errors import ArtifactCorrupt, ArtifactMissing, IntegrityMismatch, RetryPolicy, TransientIOError
from .integrity import check_probs, check_weights, load_npz_validated, read_bytes, validate_zip_container
from .metrics import get_registry
from .manifest import (
    CORRUPT,
    MISSING,
    VALID,
    ArtifactRecord,
    ArtifactStatus,
    CacheManifest,
    ModelManifest,
    expected_filenames,
)
from .naming import resolve_greedy_file, standard_roster

__all__ = ["ArtifactStore"]

_GREEDY_RE = re.compile(r"^greedy-(\d+)\.json$")
_ARTIFACT_RE = re.compile(r"^(?P<stem>ORG|pp-[^.]+|replica-\d{3})\.(?:(?P<split>val|test)\.probs|weights)\.npz$")


def _check_labels(arrays: dict[str, np.ndarray], *, path: Path) -> np.ndarray:
    labels = np.asarray(arrays["labels"]).reshape(-1)
    if not np.issubdtype(labels.dtype, np.integer):
        raise IntegrityMismatch(path, "labels-bad-dtype", f"expected integers, got {labels.dtype}")
    return labels.astype(np.int64)


@dataclass(frozen=True)
class _Kind:
    """How :meth:`ArtifactStore._load` reads and checks one artifact kind."""

    keys: tuple[str, ...] | None  # npz members the check needs (None: any)
    # check(arrays, path=...) -> the served value; None: probe the container, serve PROBE_OK
    check: Callable[..., object] | None


_KINDS = {
    "probs": _Kind(("probs",), lambda arrays, path: check_probs(arrays["probs"], path=path)),
    "weights": _Kind(None, check_weights),
    "labels": _Kind(("labels",), _check_labels),
    # the roster scan's view of a weights file
    "probe": _Kind(None, None),
}

# ``_load``'s default ``found``: the cache has not been consulted yet
_LOOKUP = object()


class ArtifactStore:
    """Read-only access to a cache root with validation and quarantine.

    Quarantine is cumulative per store instance: any artifact that fails
    container or semantic validation is recorded in :attr:`quarantine`
    (path → reason) and treated as absent from then on.  A read whose
    retries ran out (:class:`TransientIOError`) is not: the next load retries.

    With a ``cache`` attached (:class:`~polygraphmr.cache.ArtifactCache`),
    loads memoize their *validated* results keyed by stat signature: a hit
    skips disk I/O, CRC, and the semantic checks entirely, and a path that
    already failed validation is negative-cached so repeat encounters cost
    one ``stat`` instead of a full failed parse.  Caching changes timing
    only — every verdict a cached store reaches (served array, quarantine
    reason) is the one an uncached store would reach on the same bytes.

    **Fork-safety.**  The store keeps no open file handles, but its
    quarantine registry is mutable per-instance state, so each
    campaign worker builds its *own* store after ``fork`` (see
    :class:`polygraphmr.campaign.TrialExecutor` and :meth:`fresh`) and owns
    a private :class:`~polygraphmr.cache.ArtifactCache` that starts cold and
    fills with the artifacts of the models that worker owns.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        retry_policy: RetryPolicy | None = None,
        cache: ArtifactCache | None = None,
    ):
        self.root = Path(root)
        self.retry_policy = retry_policy
        self.cache = cache
        self.quarantine: dict[str, str] = {}
        # artifact paths built so far: every trial asks for the same few
        self._paths: dict[tuple[str, str], Path] = {}

    def fresh(self) -> ArtifactStore:
        """A new store over the same root with the same policy but empty
        quarantine — the safe way to hand a store's configuration to a
        forked worker.  The cache is carried over: its entries are immutable
        validated values, safe to share across store generations."""

        return ArtifactStore(self.root, retry_policy=self.retry_policy, cache=self.cache)

    # -- paths -----------------------------------------------------------

    def model_dir(self, model: str) -> Path:
        return self.root / model

    def models(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    def _path(self, model: str, filename: str) -> Path:
        path = self._paths.get((model, filename))
        if path is None:
            path = self._paths[(model, filename)] = self.model_dir(model) / filename
        return path

    def probs_path(self, model: str, stem: str, split: str) -> Path:
        return self._path(model, f"{stem}.{split}.probs.npz")

    def weights_path(self, model: str, stem: str) -> Path:
        return self._path(model, f"{stem}.weights.npz")

    def labels_path(self, model: str, split: str) -> Path:
        return self._path(model, f"labels.{split}.npz")

    def listed_stems(self, model: str) -> list[str]:
        """The sorted stems with any artifact file in the model directory,
        valid or not, or a file this store quarantined and that was deleted
        since (reported, not planned away): one ``listdir``, no ``stat``."""

        mdir = self.model_dir(model)
        try:
            names = os.listdir(mdir)
        except OSError:
            names = []
        if self.quarantine:
            prefix = f"{mdir}{os.sep}"
            names += [path[len(prefix) :] for path in self.quarantine if path.startswith(prefix)]
        return sorted({m.group("stem") for m in map(_ARTIFACT_RE.match, names) if m})

    # -- quarantine ------------------------------------------------------

    def is_quarantined(self, path: str | Path) -> bool:
        return str(path) in self.quarantine

    # -- loading ---------------------------------------------------------

    @contextmanager
    def _observed_load(self, kind: str):
        """Meter one load: result counter + latency histogram.  The body
        may refine the yielded success result; a failure is classified by
        its exception type.  Observing never changes what a load returns."""

        obs = {"result": "hit"}
        start = time.perf_counter()
        try:
            yield obs
        except ArtifactMissing:
            obs["result"] = "missing"
            raise
        except TransientIOError:
            obs["result"] = "io-error"
            raise
        except IntegrityMismatch:
            obs["result"] = "mismatch"
            raise
        except ArtifactCorrupt as exc:
            obs["result"] = "quarantined-hit" if exc.detail == "previously quarantined" else "corrupt"
            raise
        finally:
            registry = get_registry()
            registry.counter("store_load_total", kind=kind, result=obs["result"]).inc()
            registry.histogram("store_load_seconds", kind=kind).observe(time.perf_counter() - start)

    def _load(self, path: Path, kind: str, found: object = _LOOKUP) -> object:
        """The one load pipeline every artifact kind goes through.

        In order: refuse a quarantined path; consult the cache (``found``
        is a lookup the caller already made); read and check the file;
        quarantine and negative-cache a corrupt or mismatched file; cache
        the checked value; and meter the load once.
        A :class:`TransientIOError` fails this load only — nothing is
        remembered, so the next load reads the file again.
        """

        spec = _KINDS[kind]
        with self._observed_load(kind) as obs:
            if self.is_quarantined(path):
                raise ArtifactCorrupt(path, self.quarantine[str(path)], "previously quarantined")
            if found is _LOOKUP:
                found = None if self.cache is None else self.cache.lookup(path, kind)
            if isinstance(found, NegativeEntry):
                self.quarantine[str(path)] = found.reason
                if found.exc_type == "IntegrityMismatch":
                    raise IntegrityMismatch(path, found.reason, found.detail)
                raise ArtifactCorrupt(path, found.reason, "previously quarantined")
            if found is not None:
                obs["result"] = "cache-hit"
                return found.value
            try:
                value = self._read(path, spec)
            except (ArtifactCorrupt, IntegrityMismatch) as exc:
                self.quarantine[str(path)] = exc.reason
                if self.cache is not None:
                    self.cache.put_negative(
                        path, exc_type=type(exc).__name__, reason=exc.reason, detail=exc.detail
                    )
                raise
            return value if self.cache is None else self.cache.put(path, kind, value)

    def _read(self, path: Path, spec: _Kind) -> object:
        """Read ``path`` once and return the checked value ``spec`` serves."""

        if spec.check is None:
            validate_zip_container(path, data=read_bytes(path, policy=self.retry_policy))
            return PROBE_OK
        arrays = load_npz_validated(path, expect_keys=spec.keys, policy=self.retry_policy)
        return spec.check(arrays, path=path)

    def load_probs(self, model: str, stem: str, split: str) -> np.ndarray:
        """Load and validate one probability matrix; raises on any problem.

        With a cache attached, a verified hit skips disk I/O, CRC, and the
        simplex checks entirely (load result ``cache-hit``); a negative hit
        re-raises the remembered failure after a single ``stat``.
        """

        return self._load(self.probs_path(model, stem, split), "probs")

    def load_weights(self, model: str, stem: str) -> dict[str, np.ndarray]:
        """Load and validate one weights bundle; raises on any problem.  A
        shallow copy: the arrays stay shared (read-only when cached)."""

        return dict(self._load(self.weights_path(model, stem), "weights"))

    def try_load_probs(self, model: str, stem: str, split: str) -> np.ndarray | None:
        """Like :meth:`load_probs` but returns ``None`` instead of raising —
        the degraded-mode workhorse.  A bad file is quarantined first; a
        read that failed (:class:`TransientIOError`) is not, so it costs
        the member for this call only and the next call reads again."""

        try:
            return self.load_probs(model, stem, split)
        except (ArtifactCorrupt, ArtifactMissing, IntegrityMismatch, TransientIOError):
            return None

    def load_labels(self, model: str, split: str) -> np.ndarray | None:
        """Optional ground-truth labels (``labels.<split>.npz``, key
        ``labels``, integer dtype) as ``int64``; ``None`` when the file is
        missing, corrupt or mismatched.  An absent file is normal: it counts
        as ``missing`` but raises nothing."""

        path = self.labels_path(model, split)
        if not is_file(path):
            with self._observed_load("labels") as obs:
                obs["result"] = "missing"
            return None
        try:
            return self._load(path, "labels")
        except (ArtifactCorrupt, ArtifactMissing, IntegrityMismatch):
            return None

    # -- manifests -------------------------------------------------------

    def _status_of(self, path: Path, kind: str) -> ArtifactStatus:
        """One manifest record's status, through :meth:`_load`: probs get
        the full load (container and simplex checks), weights only the
        container probe.  Never raises."""

        if self.is_quarantined(path):
            return ArtifactStatus(CORRUPT, self.quarantine[str(path)])
        if not is_file(path):
            return ArtifactStatus(MISSING, "not-found")
        kind = "probs" if kind == "probs" else "probe"
        found = None if self.cache is None else self.cache.lookup(path, kind)
        if isinstance(found, NegativeEntry):
            # rebuilt from the remembered strings: no exception constructed
            self.quarantine[str(path)] = found.reason
            return ArtifactStatus(CORRUPT, found.reason, found.detail)
        try:
            self._load(path, kind, found)
        except (ArtifactCorrupt, IntegrityMismatch) as exc:
            return ArtifactStatus(CORRUPT, exc.reason, exc.detail)
        except TransientIOError as exc:
            return ArtifactStatus(CORRUPT, "io-error", repr(exc))
        except ArtifactMissing:
            return ArtifactStatus(MISSING, "not-found")
        return ArtifactStatus(VALID)

    def scan_model(self, model: str) -> ModelManifest:
        """Build the available-vs-expected manifest for one model: the
        cache audit's view (``scripts/audit_cache.py``).

        Expected = the standard roster ∪ stems named by greedy files ∪ stems
        of files actually present, so both "file missing from roster" and
        "file present but corrupt" are visible.  Never raises on bad files.
        """

        mdir = self.model_dir(model)
        manifest = ModelManifest(model=model)
        known: set[str] = set()

        if mdir.is_dir():
            for f in sorted(p.name for p in mdir.iterdir() if p.is_file()):
                gm = _GREEDY_RE.match(f)
                if gm:
                    try:
                        manifest.greedy[f"greedy-{gm.group(1)}"] = resolve_greedy_file(mdir / f)
                    except (ArtifactCorrupt, ValueError):
                        self.quarantine[str(mdir / f)] = "bad-json"
                    continue
                if not _ARTIFACT_RE.match(f) and not f.startswith("labels."):
                    manifest.unexpected.append(f)

        expected_stems = set(standard_roster()) | set(self.listed_stems(model))
        for stems in manifest.greedy.values():
            expected_stems.update(stems)

        for stem in sorted(expected_stems):
            for kind, split, filename in expected_filenames(stem):
                path = mdir / filename
                key = filename
                if key in known:
                    continue
                known.add(key)
                manifest.records.append(
                    ArtifactRecord(
                        model=model,
                        stem=stem,
                        kind=kind,
                        split=split,
                        filename=filename,
                        status=self._status_of(path, kind),
                    )
                )
        return manifest

    def scan_all(self) -> CacheManifest:
        """Manifest for every model directory under the root; never raises."""

        cache = CacheManifest(root=str(self.root))
        for model in self.models():
            cache.models[model] = self.scan_model(model)
        return cache
