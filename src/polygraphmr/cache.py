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
instead of a full failed parse.

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
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import get_registry

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "ArtifactCache",
    "CacheEntry",
    "NegativeEntry",
    "stat_signature",
]

DEFAULT_CACHE_BYTES = 256 * 1024 * 1024

# Marker value for "container probed sound"; its accounting cost is nominal.
PROBE_OK = "probe-ok"
_PROBE_NBYTES = 64


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

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
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
            }
