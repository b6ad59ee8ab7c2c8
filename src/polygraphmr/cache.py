"""Verified-once artifact cache and zero-copy shared-memory plane.

Fault-injection campaigns evaluate the same submodel probability artifacts
thousands of times.  Without caching, every trial re-reads each npz from
disk and re-runs full container + semantic validation, and every forked
worker redoes all of it after ``fork``.  This module removes that redundant
work in two layers:

:class:`ArtifactCache`
    An in-process bounded LRU keyed by ``(path, kind)`` that memoizes
    *validated* values — a hit skips disk I/O, CRC, and simplex checks
    entirely.  Each entry carries the file's ``(size, mtime_ns)`` stat
    signature; a signature change invalidates the entry and forces a
    re-validation.  Paths that failed validation are *negative-cached* so a
    corrupt cache member costs one ``stat`` per trial instead of a full
    failed parse.

:class:`SharedMemoryPlane`
    A read-only, zero-copy publication of a parallel campaign's working
    set.  The parent loads and validates every artifact once, copies the
    arrays into a single ``multiprocessing.shared_memory`` segment, and
    immediately unlinks it; forked workers inherit the mapping and serve
    ``writeable=False`` views out of it — amortized O(1) store loads per
    trial regardless of worker count.  When shared memory is unavailable,
    ``publish`` returns ``None`` and campaigns fall back to per-worker
    loading, which is always correct.

Both layers are strictly transparent: they change *when* bytes are read
and checked, never what a trial observes.  Journal and checkpoint bytes
are identical with the cache on or off (see ``tests/test_cache.py``).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import count
from pathlib import Path

import numpy as np

from .errors import ArtifactCorrupt, ArtifactMissing, IntegrityMismatch, TransientIOError
from .integrity import probe_artifact
from .metrics import get_registry
from .tracing import get_tracer

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "PLANE_PREFIX",
    "ArtifactCache",
    "CacheEntry",
    "NegativeEntry",
    "SharedMemoryPlane",
    "stat_signature",
]

DEFAULT_CACHE_BYTES = 256 * 1024 * 1024
PLANE_PREFIX = "pgmr-"

# Shared-memory offsets are aligned so views start on cache-line boundaries.
_ALIGN = 64
# Marker value for "container probed sound"; its accounting cost is nominal.
PROBE_OK = "probe-ok"
_PROBE_NBYTES = 64

_plane_seq = count()


def stat_signature(path: str | Path) -> tuple[int, int] | None:
    """``(st_size, st_mtime_ns)`` for ``path``, or ``None`` if unstattable.

    The signature is the cache's notion of file identity: same signature,
    same verdict.  ``None`` always reads as a miss so the store's own
    missing-file handling stays authoritative.
    """

    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_size, st.st_mtime_ns)


@dataclass
class CacheEntry:
    """A validated value plus the stat signature it was validated against."""

    kind: str
    sig: tuple[int, int]
    value: object
    nbytes: int
    source: str = "memory"
    # the SalvageReport that produced the value, when it was carved rather
    # than cleanly loaded — lets a cached store restore its salvage registry
    salvage: object | None = None


@dataclass(frozen=True)
class NegativeEntry:
    """A remembered validation failure for a path (any kind)."""

    sig: tuple[int, int]
    exc_type: str
    reason: str
    detail: str = ""


def _freeze(value: object) -> tuple[object, int]:
    """Make ``value`` safe to share and return it with its accounted bytes.

    Arrays are shared, never copied — the cleared write flag is what makes
    sharing safe.  Dicts of arrays (weights bundles) freeze each member.
    """

    if isinstance(value, np.ndarray):
        value.setflags(write=False)
        return value, int(value.nbytes)
    if isinstance(value, dict):
        total = 0
        for member in value.values():
            if isinstance(member, np.ndarray):
                member.setflags(write=False)
                total += int(member.nbytes)
        return value, total
    return value, _PROBE_NBYTES


class ArtifactCache:
    """Bounded LRU of validated artifacts with negative caching.

    Positive entries are keyed ``(path, kind)`` — ``kind`` is one of
    ``probs``/``weights``/``labels``/``probe`` — because one file can back
    several views of different cost.  Negative entries are keyed by path
    alone: a corrupt container is corrupt for every kind.

    Thread-safe: the campaign watchdog can abandon a trial thread that
    still holds the executor's store, so a successor thread may race it
    here.  Entries are pure functions of the file bytes, so a racing
    double-insert is harmless; the lock only protects the LRU bookkeeping.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_CACHE_BYTES,
        *,
        plane: SharedMemoryPlane | None = None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self.plane = plane
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, str], CacheEntry] = OrderedDict()
        self._negative: dict[str, NegativeEntry] = {}
        self._bytes = 0

    # ------------------------------------------------------------------
    # lookups

    def lookup(self, path: str | Path, kind: str) -> CacheEntry | NegativeEntry | None:
        """The cached verdict for ``path``, or ``None`` (load from disk).

        A :class:`CacheEntry` holds the validated value; a
        :class:`NegativeEntry` means the same bytes already failed
        validation.  A stat-signature mismatch drops the stale verdict and
        reads as a miss, which forces re-validation.
        """

        spath = str(path)
        sig = stat_signature(spath)
        registry = get_registry()
        if sig is None:
            registry.counter("artifact_cache_misses_total", kind=kind).inc()
            return None
        with self._lock:
            neg = self._negative.get(spath)
            if neg is not None:
                if neg.sig == sig:
                    registry.counter("artifact_cache_negative_hits_total", kind=kind).inc()
                    return neg
                del self._negative[spath]
                registry.counter("artifact_cache_invalidations_total", kind=kind).inc()
            entry = self._entries.get((spath, kind))
            if entry is not None:
                if entry.sig == sig:
                    self._entries.move_to_end((spath, kind))
                    registry.counter(
                        "artifact_cache_hits_total", kind=kind, source=entry.source
                    ).inc()
                    return entry
                self._drop(spath, kind)
                registry.counter("artifact_cache_invalidations_total", kind=kind).inc()
        if self.plane is not None:
            shared = self.plane.lookup(spath, kind, sig)
            if isinstance(shared, NegativeEntry):
                with self._lock:
                    self._negative[spath] = shared
                registry.counter("artifact_cache_negative_hits_total", kind=kind).inc()
                return shared
            if shared is not None:
                # Promote into the LRU so repeat lookups skip the plane
                # index; plane entries are zero-copy (nbytes == 0) and never
                # pressure the byte budget.
                with self._lock:
                    self._entries[(spath, kind)] = shared
                registry.counter("artifact_cache_hits_total", kind=kind, source="plane").inc()
                return shared
        registry.counter("artifact_cache_misses_total", kind=kind).inc()
        return None

    # ------------------------------------------------------------------
    # insertions

    def put(
        self,
        path: str | Path,
        kind: str,
        value: object,
        *,
        salvage: object | None = None,
    ) -> object:
        """Insert a *validated* value; returns the (read-only) cached value.

        Values larger than the whole budget are frozen but not cached.  Any
        negative verdict for ``path`` is dropped — the bytes evidently
        validate now.
        """

        spath = str(path)
        sig = stat_signature(spath)
        frozen, nbytes = _freeze(value)
        if sig is None or nbytes > self.max_bytes:
            return frozen
        entry = CacheEntry(kind=kind, sig=sig, value=frozen, nbytes=nbytes, salvage=salvage)
        registry = get_registry()
        evicted = 0
        with self._lock:
            self._negative.pop(spath, None)
            self._drop(spath, kind)
            self._entries[(spath, kind)] = entry
            self._bytes += nbytes
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                _, victim = self._entries.popitem(last=False)
                self._bytes -= victim.nbytes
                evicted += 1
            held = self._bytes
        if evicted:
            registry.counter("artifact_cache_evictions_total").inc(evicted)
        registry.gauge("artifact_cache_bytes").set(float(held))
        return frozen

    def put_probe(self, path: str | Path) -> None:
        """Record that ``path``'s container probed sound (CRC-complete).

        Enough for roster scans to accept the file without re-reading it;
        full loads still validate content on first use.
        """

        self.put(path, "probe", PROBE_OK)

    def put_negative(
        self,
        path: str | Path,
        *,
        exc_type: str,
        reason: str,
        detail: str = "",
    ) -> None:
        """Remember a validation failure so future trials pay one ``stat``
        instead of a full parse-and-fail.  Drops any positive entries for
        the path (every kind — the container itself is bad)."""

        spath = str(path)
        sig = stat_signature(spath)
        if sig is None:
            return
        with self._lock:
            for key in [k for k in self._entries if k[0] == spath]:
                self._drop(*key)
            self._negative[spath] = NegativeEntry(
                sig=sig, exc_type=exc_type, reason=reason, detail=detail
            )
            held = self._bytes
        get_registry().gauge("artifact_cache_bytes").set(float(held))

    # ------------------------------------------------------------------
    # bookkeeping

    def _drop(self, spath: str, kind: str) -> None:
        """Remove one positive entry and release its bytes (lock held)."""

        old = self._entries.pop((spath, kind), None)
        if old is not None:
            self._bytes -= old.nbytes

    def stats(self) -> dict:
        """A point-in-time snapshot for logs and bench output."""

        with self._lock:
            return {
                "entries": len(self._entries),
                "negative_entries": len(self._negative),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "plane": self.plane is not None,
            }


@dataclass(frozen=True)
class PlaneRecord:
    """One published artifact in a :class:`SharedMemoryPlane` index."""

    kind: str  # "probs" | "labels" | "probe" | "negative"
    sig: tuple[int, int]
    dtype: str = ""
    shape: tuple[int, ...] = ()
    offset: int = 0
    exc_type: str = ""
    reason: str = ""
    detail: str = ""


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedMemoryPlane:
    """Read-only, zero-copy publication of a campaign's validated working set.

    Lifecycle (fork inheritance — never attach-by-name):

    1. The parent calls :meth:`publish` *before forking*: it loads and
       validates every artifact once, copies the arrays into a single
       shared-memory segment, and immediately **unlinks** the segment.  The
       mapping stays valid for this process and every child forked from it,
       but no ``/dev/shm`` entry outlives the copy — SIGKILL at any point
       leaks nothing.
    2. Forked workers inherit the plane object through ``Process`` args
       (the ``fork`` start method passes it by reference, not pickling) and
       serve ``writeable=False`` numpy views out of the mapping.
    3. Everyone calls :meth:`close` best-effort; process exit reclaims the
       mapping regardless.

    :meth:`publish` returns ``None`` whenever shared memory is unavailable
    or nothing is publishable; callers then fall back to per-worker
    loading, which is always correct — the plane is an accelerator, never
    a dependency.
    """

    def __init__(self, shm: object | None, index: dict[str, PlaneRecord], nbytes: int) -> None:
        self._shm = shm
        self.index = index
        self.nbytes = nbytes
        self._views: dict[str, np.ndarray] = {}
        self.sealed = shm is None

    # ------------------------------------------------------------------
    # publication (parent side)

    @classmethod
    def publish(
        cls,
        store,
        models: list[str],
        *,
        max_bytes: int = DEFAULT_CACHE_BYTES,
    ) -> SharedMemoryPlane | None:
        """Load, validate, and share the working set for ``models``.

        ``store`` should be a throwaway :class:`~polygraphmr.store.ArtifactStore`
        with the campaign's ``allow_salvaged`` policy and no cache — every
        load here is the one verification the whole campaign amortizes.
        Salvaged arrays are *not* published (workers re-carve locally so
        their stores record the salvage); weights bundles publish only a
        probe verdict (they are small and model-fit wants private copies).
        """

        registry = get_registry()
        with get_tracer().span("cache.plane.publish", models=len(models)) as span:
            if shared_memory is None:
                span.set(outcome="unavailable")
                return None
            try:
                index, arrays, total, skipped = cls._collect(store, models, max_bytes)
            except Exception as exc:  # pragma: no cover - defensive fallback
                span.set(outcome="collect-failed", error=type(exc).__name__)
                return None
            if not index:
                span.set(outcome="empty")
                return None
            shm = None
            if total:
                shm = cls._create_segment(total)
                if shm is None:
                    span.set(outcome="no-segment")
                    return None
                for spath, arr in arrays:
                    rec = index[spath]
                    dst = np.ndarray(
                        rec.shape, dtype=np.dtype(rec.dtype), buffer=shm.buf, offset=rec.offset
                    )
                    dst[:] = arr
                    del dst
            plane = cls(shm, index, total)
            # Unlink before any fork: children inherit the mapping, the
            # name never has to survive, and a SIGKILL leaks nothing.
            plane.seal()
            for rec in index.values():
                registry.counter("artifact_cache_plane_published_total", kind=rec.kind).inc()
            if skipped:
                registry.counter(
                    "artifact_cache_plane_skipped_total", reason="budget-or-salvage"
                ).inc(skipped)
            registry.gauge("artifact_cache_plane_bytes").set(float(total))
            span.set(outcome="published", records=len(index), bytes=total, skipped=skipped)
            return plane

    @classmethod
    def _collect(
        cls, store, models: list[str], max_bytes: int
    ) -> tuple[dict[str, PlaneRecord], list[tuple[str, np.ndarray]], int, int]:
        """Walk the models' artifact files and build the publication plan."""

        from .store import _ARTIFACT_RE

        index: dict[str, PlaneRecord] = {}
        arrays: list[tuple[str, np.ndarray]] = []
        offset = 0
        skipped = 0

        def add_array(spath: str, kind: str, sig: tuple[int, int], arr: np.ndarray) -> bool:
            nonlocal offset, skipped
            if offset + arr.nbytes > max_bytes:
                skipped += 1
                return False
            index[spath] = PlaneRecord(
                kind=kind,
                sig=sig,
                dtype=arr.dtype.str,
                shape=tuple(arr.shape),
                offset=offset,
            )
            arrays.append((spath, arr))
            offset = _aligned(offset + arr.nbytes)
            return True

        for model in sorted(set(models)):
            model_dir = store.model_dir(model)
            if not model_dir.is_dir():
                continue
            for name in sorted(p.name for p in model_dir.iterdir() if p.is_file()):
                path = model_dir / name
                spath = str(path)
                sig = stat_signature(path)
                if sig is None:
                    continue
                match = _ARTIFACT_RE.match(name)
                if match and match.group("split"):
                    stem, split = match.group("stem"), match.group("split")
                    try:
                        arr = store.load_probs(model, stem, split)
                    except (ArtifactCorrupt, IntegrityMismatch) as exc:
                        index[spath] = PlaneRecord(
                            kind="negative",
                            sig=sig,
                            exc_type=type(exc).__name__,
                            reason=exc.reason,
                            detail=exc.detail,
                        )
                        continue
                    except (ArtifactMissing, TransientIOError):
                        continue
                    if store.is_salvaged(path):
                        # Workers must re-carve so their own stores record
                        # the salvage; publishing would hide the damage.
                        skipped += 1
                        continue
                    add_array(spath, "probs", sig, arr)
                elif match:
                    report = probe_artifact(path)
                    if report.ok:
                        index[spath] = PlaneRecord(kind="probe", sig=sig)
                elif name.startswith("labels.") and name.endswith(".npz"):
                    split = name.split(".")[1]
                    arr = store.load_labels(model, split)
                    if arr is not None:
                        add_array(spath, "labels", sig, arr)
        return index, arrays, offset, skipped

    @staticmethod
    def _create_segment(total: int):
        """A fresh anonymous-ish segment, or ``None`` if /dev/shm refuses."""

        for _ in range(8):
            name = f"{PLANE_PREFIX}{os.getpid()}-{next(_plane_seq)}"
            try:
                return shared_memory.SharedMemory(create=True, size=total, name=name)
            except FileExistsError:
                continue
            except OSError:
                return None
        return None

    # ------------------------------------------------------------------
    # consumption (any process post-fork)

    def lookup(
        self, path: str | Path, kind: str, sig: tuple[int, int]
    ) -> CacheEntry | NegativeEntry | None:
        """A zero-copy entry for ``path`` if published with a matching
        signature, else ``None``.  Negative records match every kind."""

        rec = self.index.get(str(path))
        if rec is None or rec.sig != sig:
            return None
        if rec.kind == "negative":
            return NegativeEntry(
                sig=rec.sig, exc_type=rec.exc_type, reason=rec.reason, detail=rec.detail
            )
        if rec.kind == "probe":
            if kind != "probe":
                return None
            return CacheEntry(kind=kind, sig=sig, value=PROBE_OK, nbytes=0, source="plane")
        if rec.kind != kind:
            return None
        view = self._view(str(path), rec)
        if view is None:
            return None
        return CacheEntry(kind=kind, sig=sig, value=view, nbytes=0, source="plane")

    def _view(self, spath: str, rec: PlaneRecord) -> np.ndarray | None:
        if self._shm is None:
            return None
        view = self._views.get(spath)
        if view is None:
            view = np.ndarray(
                rec.shape, dtype=np.dtype(rec.dtype), buffer=self._shm.buf, offset=rec.offset
            )
            view.setflags(write=False)
            self._views[spath] = view
        return view

    # ------------------------------------------------------------------
    # lifecycle

    def seal(self) -> None:
        """Unlink the segment name.  Existing mappings — this process and
        every child forked from it — stay valid.  Idempotent."""

        if self.sealed:
            return
        self.sealed = True
        try:
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass

    def close(self) -> None:
        """Best-effort release of this process's mapping.

        With numpy views outstanding the underlying mmap cannot be released
        early (``BufferError``); that is fine — process exit reclaims it,
        and the name is already unlinked.
        """

        self._views.clear()
        if self._shm is None:
            return
        try:
            self._shm.close()
        except BufferError:  # views still referenced somewhere
            pass
