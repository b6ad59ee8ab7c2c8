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
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .cache import ArtifactCache, NegativeEntry, is_file
from .errors import ArtifactCorrupt, ArtifactMissing, IntegrityMismatch, RetryPolicy, TransientIOError
from .integrity import check_probs, check_weights, load_npz_validated, probe_artifact
from .metrics import get_registry
from .manifest import (
    CORRUPT,
    MISSING,
    SALVAGED,
    VALID,
    ArtifactRecord,
    ArtifactStatus,
    CacheManifest,
    ModelManifest,
    expected_filenames,
)
from .naming import resolve_greedy_file, standard_roster
from .salvage import SalvageReport, salvage_npz

__all__ = ["ArtifactStore"]

_GREEDY_RE = re.compile(r"^greedy-(\d+)\.json$")
_ARTIFACT_RE = re.compile(r"^(?P<stem>ORG|pp-[^.]+|replica-\d{3})\.(?:(?P<split>val|test)\.probs|weights)\.npz$")


class ArtifactStore:
    """Read-only access to a cache root with validation and quarantine.

    Quarantine is cumulative per store instance: any artifact that fails
    container or semantic validation is recorded in :attr:`quarantine`
    (path → reason) and treated as absent from then on.

    With ``allow_salvaged=True``, an artifact whose *container* is corrupt
    gets one best-effort carving pass (:func:`polygraphmr.salvage.salvage_npz`)
    before quarantine: if the needed arrays survive the cut and pass the same
    semantic checks as a clean load, they are served and the path is recorded
    in :attr:`salvaged` (path → :class:`SalvageReport`) instead.  Semantic
    failures (wrong shape, off-simplex rows) are never salvaged — carving can
    rescue bytes, not meaning.

    With a ``cache`` attached (:class:`~polygraphmr.cache.ArtifactCache`),
    loads memoize their *validated* results keyed by stat signature: a hit
    skips disk I/O, CRC, and the semantic checks entirely, and a path that
    already failed validation is negative-cached so repeat encounters cost
    one ``stat`` instead of a full failed parse.  Caching changes timing
    only — every verdict a cached store reaches (served array, quarantine
    reason, salvage) is the one an uncached store would reach on the same
    bytes.

    **Fork-safety.**  The store keeps no open file handles — every load
    reads whole files into memory — but its quarantine/salvage registries
    are mutable per-instance state.  Multiprocess campaign workers must
    therefore build their *own* store after ``fork`` (see
    :class:`polygraphmr.campaign.TrialExecutor`, which constructs the store
    lazily, and :meth:`fresh` for an explicit re-open) rather than share a
    parent's instance across processes.  The same holds for the attached
    :class:`~polygraphmr.cache.ArtifactCache`: each worker's executor owns
    a private cache that starts cold and fills from disk with the
    artifacts of the models that worker owns.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        retry_policy: RetryPolicy | None = None,
        allow_salvaged: bool = False,
        cache: ArtifactCache | None = None,
    ):
        self.root = Path(root)
        self.retry_policy = retry_policy
        self.allow_salvaged = allow_salvaged
        self.cache = cache
        self.quarantine: dict[str, str] = {}
        self.salvaged: dict[str, SalvageReport] = {}
        # artifact paths built so far: every trial asks for the same few
        self._paths: dict[tuple[str, str], Path] = {}

    def fresh(self) -> ArtifactStore:
        """A new store over the same root with the same policy but empty
        quarantine/salvage state — the safe way to hand a store's
        configuration to a forked worker.  The cache is carried over: its
        entries are immutable validated values, safe to share across store
        generations."""

        return ArtifactStore(
            self.root,
            retry_policy=self.retry_policy,
            allow_salvaged=self.allow_salvaged,
            cache=self.cache,
        )

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

    # -- quarantine ------------------------------------------------------

    def _quarantine(self, path: Path, reason: str) -> None:
        self.quarantine[str(path)] = reason

    def is_quarantined(self, path: str | Path) -> bool:
        return str(path) in self.quarantine

    def is_salvaged(self, path: str | Path) -> bool:
        return str(path) in self.salvaged

    # -- salvage ---------------------------------------------------------

    def _try_salvage(self, path: Path) -> SalvageReport | None:
        """One carving pass over a container-corrupt artifact, or ``None``."""

        if not self.allow_salvaged:
            return None
        try:
            report = salvage_npz(path)
        except ArtifactMissing:
            return None
        return report if report.ok else None

    # -- loading ---------------------------------------------------------

    @contextmanager
    def _observed_load(self, kind: str):
        """Meter one ``load_*`` call: result counter + latency histogram.

        The yielded mutable dict lets the body refine the success result
        (``hit`` vs ``salvaged``); failure results are classified from the
        exception type.  Strictly out-of-band — observing can never change
        what the load returns or raises.
        """

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

    def _raise_negative(self, path: Path, neg: NegativeEntry) -> None:
        """Surface a negative-cache verdict the way an uncached store would
        on a repeat encounter: quarantine locally, then raise the remembered
        failure (one ``stat`` paid, no re-parse)."""

        self._quarantine(path, neg.reason)
        if neg.exc_type == "IntegrityMismatch":
            raise IntegrityMismatch(path, neg.reason, neg.detail)
        raise ArtifactCorrupt(path, neg.reason, "previously quarantined")

    def _cache_negative(self, path: Path, exc: ArtifactCorrupt | IntegrityMismatch) -> None:
        if self.cache is not None:
            self.cache.put_negative(
                path, exc_type=type(exc).__name__, reason=exc.reason, detail=exc.detail
            )

    def load_probs(self, model: str, stem: str, split: str, *, n_classes: int | None = None) -> np.ndarray:
        """Load and validate one probability matrix; raises on any problem.

        With a cache attached, a verified hit skips disk I/O, CRC, and the
        simplex checks entirely (load result ``cache-hit``); a negative hit
        re-raises the remembered failure after a single ``stat``.
        """

        path = self.probs_path(model, stem, split)
        with self._observed_load("probs") as obs:
            if self.is_quarantined(path):
                raise ArtifactCorrupt(path, self.quarantine[str(path)], "previously quarantined")
            if self.cache is not None:
                found = self.cache.lookup(path, "probs")
                if isinstance(found, NegativeEntry):
                    self._raise_negative(path, found)
                if found is not None:
                    arr = found.value
                    if n_classes is not None and arr.shape[1] != n_classes:
                        # stricter caller than the one that validated the
                        # entry; quarantine here but leave the cache alone —
                        # the array is still valid for lenient callers
                        self._quarantine(path, "probs-bad-classes")
                        raise IntegrityMismatch(
                            path,
                            "probs-bad-classes",
                            f"expected {n_classes} classes, got {arr.shape[1]}",
                        )
                    if found.salvage is not None:
                        self.salvaged[str(path)] = found.salvage
                        obs["result"] = "cache-salvaged"
                    else:
                        obs["result"] = "cache-hit"
                    return arr
            try:
                arrays = load_npz_validated(path, expect_keys=("probs",), policy=self.retry_policy)
                out = check_probs(arrays["probs"], path=path, n_classes=n_classes)
            except ArtifactCorrupt as exc:
                report = self._try_salvage(path)
                if report is not None and "probs" in report.arrays:
                    try:
                        out = check_probs(report.arrays["probs"], path=path, n_classes=n_classes)
                    except IntegrityMismatch:
                        pass
                    else:
                        self.salvaged[str(path)] = report
                        obs["result"] = "salvaged"
                        if self.cache is not None:
                            out = self.cache.put(path, "probs", out, salvage=report)
                        return out
                self._quarantine(path, exc.reason)
                self._cache_negative(path, exc)
                raise
            except IntegrityMismatch as exc:
                self._quarantine(path, exc.reason)
                self._cache_negative(path, exc)
                raise
            if self.cache is not None:
                out = self.cache.put(path, "probs", out)
            return out

    def load_weights(self, model: str, stem: str) -> dict[str, np.ndarray]:
        """Load and validate one weights bundle; raises on any problem."""

        path = self.weights_path(model, stem)
        with self._observed_load("weights") as obs:
            if self.is_quarantined(path):
                raise ArtifactCorrupt(path, self.quarantine[str(path)], "previously quarantined")
            if self.cache is not None:
                found = self.cache.lookup(path, "weights")
                if isinstance(found, NegativeEntry):
                    self._raise_negative(path, found)
                if found is not None:
                    if found.salvage is not None:
                        self.salvaged[str(path)] = found.salvage
                        obs["result"] = "cache-salvaged"
                    else:
                        obs["result"] = "cache-hit"
                    # shallow copy: callers may add/drop keys, the arrays
                    # themselves stay shared and read-only
                    return dict(found.value)
            try:
                arrays = load_npz_validated(path, policy=self.retry_policy)
                out = check_weights(arrays, path=path)
            except ArtifactCorrupt as exc:
                report = self._try_salvage(path)
                if report is not None:
                    try:
                        out = check_weights(dict(report.arrays), path=path)
                    except IntegrityMismatch:
                        pass
                    else:
                        self.salvaged[str(path)] = report
                        obs["result"] = "salvaged"
                        if self.cache is not None:
                            out = dict(self.cache.put(path, "weights", out, salvage=report))
                        return out
                self._quarantine(path, exc.reason)
                self._cache_negative(path, exc)
                raise
            except IntegrityMismatch as exc:
                self._quarantine(path, exc.reason)
                self._cache_negative(path, exc)
                raise
            if self.cache is not None:
                out = dict(self.cache.put(path, "weights", out))
            return out

    def try_load_probs(
        self, model: str, stem: str, split: str, *, n_classes: int | None = None
    ) -> np.ndarray | None:
        """Like :meth:`load_probs` but returns ``None`` (after quarantining)
        instead of raising — the degraded-mode workhorse."""

        try:
            return self.load_probs(model, stem, split, n_classes=n_classes)
        except (ArtifactCorrupt, ArtifactMissing, IntegrityMismatch):
            return None

    def load_labels(self, model: str, split: str) -> np.ndarray | None:
        """Optional ground-truth labels (``labels.<split>.npz``, key ``labels``)."""

        path = self.labels_path(model, split)
        with self._observed_load("labels") as obs:
            if not is_file(path) or self.is_quarantined(path):
                obs["result"] = "quarantined-hit" if self.is_quarantined(path) else "missing"
                return None
            if self.cache is not None:
                found = self.cache.lookup(path, "labels")
                if isinstance(found, NegativeEntry):
                    self._quarantine(path, found.reason)
                    obs["result"] = "corrupt" if found.exc_type == "ArtifactCorrupt" else "mismatch"
                    return None
                if found is not None:
                    obs["result"] = "cache-hit"
                    return found.value
            try:
                arrays = load_npz_validated(path, expect_keys=("labels",), policy=self.retry_policy)
            except (ArtifactCorrupt, IntegrityMismatch) as exc:
                self._quarantine(path, exc.reason)
                self._cache_negative(path, exc)
                obs["result"] = "corrupt" if isinstance(exc, ArtifactCorrupt) else "mismatch"
                return None
            labels = np.asarray(arrays["labels"]).reshape(-1)
            if not np.issubdtype(labels.dtype, np.integer):
                self._quarantine(path, "labels-bad-dtype")
                if self.cache is not None:
                    self.cache.put_negative(
                        path, exc_type="IntegrityMismatch", reason="labels-bad-dtype"
                    )
                obs["result"] = "mismatch"
                return None
            out = labels.astype(np.int64)
            if self.cache is not None:
                out = self.cache.put(path, "labels", out)
            return out

    # -- manifests -------------------------------------------------------

    def _salvage_status(self, path: Path, kind: str) -> ArtifactStatus | None:
        """SALVAGED status when carving rescues what ``kind`` needs, else ``None``."""

        report = self._try_salvage(path)
        if report is None:
            return None
        try:
            if kind == "probs":
                if "probs" not in report.arrays:
                    return None
                check_probs(report.arrays["probs"], path=path)
            else:
                check_weights(dict(report.arrays), path=path)
        except IntegrityMismatch:
            return None
        self.salvaged[str(path)] = report
        return ArtifactStatus(
            SALVAGED,
            "salvaged",
            f"{report.n_recovered} member(s), {report.rows_recovered} rows recovered, {report.n_lost} lost",
        )

    def _status_of(self, path: Path, kind: str) -> ArtifactStatus:
        if self.is_salvaged(path):
            report = self.salvaged[str(path)]
            return ArtifactStatus(SALVAGED, "salvaged", f"{report.n_recovered} member(s) recovered")
        if self.is_quarantined(path):
            return ArtifactStatus(CORRUPT, self.quarantine[str(path)])
        if not is_file(path):
            return ArtifactStatus(MISSING, "not-found")
        # Cached verdicts make the per-trial roster scan O(stat): probs use
        # the full validated array (so the assemble that follows hits too),
        # weights need only the container-probe marker.  Negative verdicts
        # become CORRUPT statuses built from the remembered strings — no
        # exception is constructed, mirroring the probe path below.
        cache_kind = "probs" if kind == "probs" else "probe"
        if self.cache is not None:
            found = self.cache.lookup(path, cache_kind)
            if isinstance(found, NegativeEntry):
                self._quarantine(path, found.reason)
                return ArtifactStatus(CORRUPT, found.reason, found.detail)
            if found is not None:
                if found.salvage is not None:
                    self.salvaged[str(path)] = found.salvage
                    report = found.salvage
                    return ArtifactStatus(
                        SALVAGED, "salvaged", f"{report.n_recovered} member(s) recovered"
                    )
                return ArtifactStatus(VALID)
        report = probe_artifact(path)
        if not report.ok:
            status = self._salvage_status(path, kind)
            if status is not None:
                return status
            self._quarantine(path, report.reason)
            if self.cache is not None:
                self.cache.put_negative(
                    path, exc_type="ArtifactCorrupt", reason=report.reason, detail=report.detail
                )
            return ArtifactStatus(CORRUPT, report.reason, report.detail)
        # container is sound; run the cheap semantic check for probs
        if kind == "probs":
            try:
                arrays = load_npz_validated(path, expect_keys=("probs",), policy=self.retry_policy)
                checked = check_probs(arrays["probs"], path=path)
            except (ArtifactCorrupt, IntegrityMismatch) as exc:
                self._quarantine(path, exc.reason)
                self._cache_negative(path, exc)
                return ArtifactStatus(CORRUPT, exc.reason, exc.detail)
            if self.cache is not None:
                self.cache.put(path, "probs", checked)
        elif self.cache is not None:
            self.cache.put_probe(path)
        return ArtifactStatus(VALID)

    def scan_model(self, model: str) -> ModelManifest:
        """Build the available-vs-expected manifest for one model.

        Expected = the standard roster ∪ stems named by greedy files ∪ stems
        of files actually present, so both "file missing from roster" and
        "file present but corrupt" are visible.  Never raises on bad files.
        """

        mdir = self.model_dir(model)
        manifest = ModelManifest(model=model)
        present_stems: set[str] = set()
        known: set[str] = set()

        if mdir.is_dir():
            for f in sorted(p.name for p in mdir.iterdir() if p.is_file()):
                gm = _GREEDY_RE.match(f)
                if gm:
                    try:
                        manifest.greedy[f"greedy-{gm.group(1)}"] = resolve_greedy_file(mdir / f)
                    except (ArtifactCorrupt, ValueError):
                        self._quarantine(mdir / f, "bad-json")
                    continue
                am = _ARTIFACT_RE.match(f)
                if am:
                    present_stems.add(am.group("stem"))
                elif not f.startswith("labels."):
                    manifest.unexpected.append(f)

        expected_stems = set(standard_roster()) | present_stems
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
