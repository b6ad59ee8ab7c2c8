"""Verified-once artifact cache.

Fault-injection campaigns evaluate the same submodel probability artifacts
thousands of times.  Without caching, every trial re-reads each npz from
disk and re-runs full container + semantic validation.
:class:`ArtifactCache` removes that redundant work: an in-process bounded
LRU keyed by ``(path, kind)`` that memoizes *validated* values — a hit
skips disk I/O, CRC, and simplex checks entirely.  Each entry carries the
file's ``(size, mtime_ns)`` stat signature; a signature change invalidates
the entry and forces a re-validation.  Paths that failed validation are
*negative-cached* so a corrupt cache member costs one ``stat`` per trial
instead of a full failed parse.  The store's one load pipeline
(:meth:`polygraphmr.store.ArtifactStore._load`) is the only writer: it
caches what it checked and never caches a transient read failure.

A parallel campaign needs nothing more: every trial of a model runs on one
worker (:func:`polygraphmr.parallel.trial_owner`), so each worker's private
cache validates its own models' artifacts once and no artifact is read by
two workers.

The cache is strictly transparent: it changes *when* bytes are read and
checked, never what a trial observes.  Journal and checkpoint bytes are
identical with the cache on or off (see ``tests/test_cache.py``).
"""

from __future__ import annotations

import os
import stat
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .metrics import get_registry

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "ArtifactCache",
    "CacheEntry",
    "NegativeEntry",
    "check_cache_bytes",
    "is_file",
    "stat_once",
    "stat_signature",
]

DEFAULT_CACHE_BYTES = 256 * 1024 * 1024


def check_cache_bytes(max_bytes: int) -> None:
    """Refuse a cache budget below one byte, naming the field, so a CLI can
    reject ``--cache-bytes`` before it writes or binds anything."""

    if max_bytes <= 0:
        raise ConfigError("cache.max_bytes", "out-of-range", f"max_bytes must be positive, got {max_bytes!r}")


# The ``probe`` kind's value: "container probed sound" (the roster scan's
# view of a weights file); its accounting cost is nominal.
PROBE_OK = "probe-ok"
_PROBE_NBYTES = 64


# the active stat_once() memo of this thread: path -> os.stat result or None
_scope = threading.local()


@contextmanager
def stat_once():
    """Within the block, each path is statted at most once on this thread:
    :func:`stat_signature` and :func:`is_file` answer from the first
    ``stat``.  A trial prepares under one scope, so the store's existence
    check and the cache's lookup of one artifact file share one ``stat``,
    and a file rewritten after it shows as changed to the next trial.
    Nested scopes share the outer memo."""

    if getattr(_scope, "memo", None) is not None:
        yield
        return
    _scope.memo = {}
    try:
        yield
    finally:
        _scope.memo = None


def _stat(path: str | Path) -> os.stat_result | None:
    memo = getattr(_scope, "memo", None)
    key = os.fspath(path)
    if memo is not None and key in memo:
        return memo[key]
    try:
        st = os.stat(key)
    except OSError:
        st = None
    if memo is not None:
        memo[key] = st
    return st


def stat_signature(path: str | Path) -> tuple[int, int] | None:
    """``(st_size, st_mtime_ns)`` for ``path``, or ``None`` if unstattable.

    The signature is the cache's notion of file identity: same signature,
    same verdict.  ``None`` always reads as a miss so the store's own
    missing-file handling stays authoritative.
    """

    st = _stat(path)
    return None if st is None else (st.st_size, st.st_mtime_ns)


def is_file(path: str | Path) -> bool:
    """``Path.is_file`` through the :func:`stat_once` memo."""

    st = _stat(path)
    return st is not None and stat.S_ISREG(st.st_mode)


@dataclass
class CacheEntry:
    """A validated value plus the stat signature it was validated against."""

    kind: str
    sig: tuple[int, int]
    value: object
    nbytes: int


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

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        check_cache_bytes(max_bytes)
        self.max_bytes = int(max_bytes)
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
                    registry.counter("artifact_cache_hits_total", kind=kind).inc()
                    return entry
                self._drop(spath, kind)
                registry.counter("artifact_cache_invalidations_total", kind=kind).inc()
        registry.counter("artifact_cache_misses_total", kind=kind).inc()
        return None

    # ------------------------------------------------------------------
    # insertions

    def put(self, path: str | Path, kind: str, value: object) -> object:
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
        entry = CacheEntry(kind=kind, sig=sig, value=frozen, nbytes=nbytes)
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
            }
