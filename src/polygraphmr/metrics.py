"""Dependency-free metrics: counters, gauges, and mergeable histograms.

PolygraphMR's value claim is a reliability/overhead *trade-off*, which makes
the instrumentation itself part of the reproduction: without counters and
latency histograms on the hot paths there is no way to say what the
polygraph ensemble costs.  This module is the registry those hot paths
(artifact store, ensemble runtime, decision module, breakers, campaign
executors) record into.

Three metric kinds, chosen for **exact mergeable state**:

* **Counter** — a monotonically increasing integer.  Merge = addition.
* **Gauge** — a point-in-time float.  Merge = ``max`` (commutative and
  associative, unlike last-write-wins).
* **Histogram** — fixed, finite bucket upper bounds with integer per-bucket
  counts plus an observation count and value sum.  Merge = bucket-wise
  integer addition.

Bucket counts and counters are integers, so shard merges are *exact* and
order-independent; only the histogram ``sum`` is a float, folded with
:func:`math.fsum` so an n-ary merge is permutation-invariant.

**Strictly out-of-band.**  Nothing in this module may ever feed campaign
journal or checkpoint bytes: the journal stays a pure function of the
campaign config (see :mod:`polygraphmr.campaign`), and metrics live in
separate files — ``metrics.json`` per campaign directory, with per-worker
shards ``metrics.wNN.json`` merged deterministically at completion, the
same shape as the journal-shard merge.

A process-global default registry (:func:`get_registry`) keeps the wiring
zero-cost for callers; multiprocess campaign workers reset it after
``fork`` so their shards hold only their own deltas.

The registry is the program's one timing mechanism: a timed hot path takes
``time.perf_counter()`` on entry and observes the elapsed seconds into its
histogram.  ``campaign_trial_seconds`` (per trial) observes in a
``finally``, once per trial whatever the outcome.  No timing is kept that the exports
below do not carry.

Campaign counters of note: ``campaign_trials_total{outcome}`` for every
trial, plus ``campaign_scenario_trials_total{scenario, outcome}`` when the
campaign sweeps declarative scenarios (:mod:`polygraphmr.scenarios`) — the
out-of-band mirror of the per-scenario rows ``python -m
polygraphmr.campaign report`` derives from the journal.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from pathlib import Path

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "REQUEST_LATENCY_BUCKETS",
    "BATCH_SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "merge_registries",
    "metrics_shard_name",
    "metrics_shards",
    "load_registry",
]

EXPORT_VERSION = 1

# Prometheus-style latency buckets (seconds), wide enough for sub-ms npz
# loads and multi-second sleep-padded benchmark trials alike.  The
# 50 ms–1 s band is deliberately dense: benchmark trials land there.
DEFAULT_LATENCY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.075,
    0.1,
    0.15,
    0.2,
    0.25,
    0.3,
    0.35,
    0.4,
    0.5,
    0.75,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

# The serving gateway's per-request latency (serve_request_seconds): a
# closed-loop reply takes about 0.5-2 ms on a 2-core host, where the default
# edges are 0.5, 1 and 2.5 ms, so every p50 and p90 read as one of those.
# Edges every 0.1 ms up to 2 ms resolve them; above that, the default edges.
REQUEST_LATENCY_BUCKETS = tuple(round(0.0001 * k, 4) for k in range(1, 21)) + tuple(
    b for b in DEFAULT_LATENCY_BUCKETS if b > 0.002
)

# Power-of-two sizing buckets for the serving gateway's batch-size histogram
# (serve_batch_size): a coalesced batch holds at most --batch-max requests,
# so the distribution shows how full the dispatcher's batches run.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

LabelKey = tuple[tuple[str, str], ...]


# label sets seen before, as passed -> their sorted key; only all-string
# sets are kept, so values that compare equal but print differently (1 and
# True) can never share an entry
_LABEL_KEYS: dict[tuple, LabelKey] = {}
_LABEL_KEYS_MAX = 4096


def _label_key(labels: dict[str, object]) -> LabelKey:
    raw = tuple(labels.items())
    try:
        key = _LABEL_KEYS.get(raw)
    except TypeError:  # an unhashable label value
        key = None
    if key is None:
        key = tuple(sorted((str(k), str(v)) for k, v in raw))
        if len(_LABEL_KEYS) < _LABEL_KEYS_MAX and all(type(v) is str for _, v in raw):
            _LABEL_KEYS[raw] = key
    return key


class Counter:
    """Monotonically increasing integer counter."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up; got {n}")
        with self._lock:
            self.value += int(n)


class Gauge:
    """Point-in-time float value; merge semantics are ``max``."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def set(self, v: float) -> None:
        with self._lock:
            self.value = float(v)


class Histogram:
    """Fixed-bucket histogram with exact (integer) mergeable bucket state.

    ``bounds`` are strictly increasing, finite upper bounds; an implicit
    overflow (+Inf) bucket catches everything above the last bound.
    """

    __slots__ = ("_lock", "bounds", "bucket_counts", "count", "sum")

    def __init__(self, bounds: tuple[float, ...], lock: threading.Lock):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError(f"bucket bounds must be finite: {bounds}")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self._lock = lock
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = overflow
        self.count = 0
        self.sum = 0.0

    def observe(self, v: float) -> None:
        v = float(v)
        i = bisect_left(self.bounds, v)  # first bound >= v
        with self._lock:
            self.bucket_counts[i] += 1
            self.count += 1
            self.sum = math.fsum((self.sum, v))


class MetricsRegistry:
    """Named, labelled metrics for one process (or one merged campaign).

    Metrics are keyed by ``(name, sorted label items)``; the first use of a
    name fixes its kind (and, for histograms, its buckets) — a conflicting
    re-registration raises :class:`ValueError` instead of silently forking
    the series.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}
        self._kinds: dict[str, str] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}

    # -- registration ----------------------------------------------------

    def _claim(self, name: str, kind: str) -> None:
        seen = self._kinds.setdefault(name, kind)
        if seen != kind:
            raise ValueError(f"metric {name!r} already registered as a {seen}, not a {kind}")

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            self._claim(name, "counter")
            c = self._counters.get(key)
            if c is None:
                c = self._counters[key] = Counter(self._lock)
        return c

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            self._claim(name, "gauge")
            g = self._gauges.get(key)
            if g is None:
                g = self._gauges[key] = Gauge(self._lock)
        return g

    def histogram(
        self, name: str, *, buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS, **labels: object
    ) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            self._claim(name, "histogram")
            h = self._histograms.get(key)
            if h is None:
                bounds = self._buckets.setdefault(name, tuple(float(b) for b in buckets))
                h = self._histograms[key] = Histogram(bounds, self._lock)
        return h

    def reset(self) -> None:
        """Drop every metric — used by forked campaign workers so their
        shards carry only their own deltas, and by test isolation."""

        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._kinds.clear()
            self._buckets.clear()

    # -- reading ---------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> int:
        c = self._counters.get((name, _label_key(labels)))
        return c.value if c is not None else 0

    def counter_total(self, name: str) -> int:
        """Sum of a counter across every label set."""

        return sum(c.value for (n, _), c in self._counters.items() if n == name)

    def gauge_value(self, name: str, **labels: object) -> float:
        g = self._gauges.get((name, _label_key(labels)))
        return g.value if g is not None else 0.0

    def histogram_for(self, name: str, **labels: object) -> Histogram | None:
        return self._histograms.get((name, _label_key(labels)))

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot, deterministically ordered."""

        def rows(table, render):
            return [
                {"name": name, "labels": dict(labels), **render(metric)}
                for (name, labels), metric in sorted(table.items())
            ]

        return {
            "version": EXPORT_VERSION,
            "counters": rows(self._counters, lambda c: {"value": c.value}),
            "gauges": rows(self._gauges, lambda g: {"value": g.value}),
            "histograms": rows(
                self._histograms,
                lambda h: {
                    "bounds": list(h.bounds),
                    "bucket_counts": list(h.bucket_counts),
                    "count": h.count,
                    "sum": h.sum,
                },
            ),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> MetricsRegistry:
        if payload.get("version") != EXPORT_VERSION:
            raise ValueError(f"unsupported metrics export version: {payload.get('version')!r}")
        reg = cls()
        for row in payload.get("counters", []):
            c = reg.counter(row["name"], **row.get("labels", {}))
            c.inc(int(row["value"]))
        for row in payload.get("gauges", []):
            reg.gauge(row["name"], **row.get("labels", {})).set(float(row["value"]))
        for row in payload.get("histograms", []):
            h = reg.histogram(row["name"], buckets=tuple(row["bounds"]), **row.get("labels", {}))
            counts = [int(n) for n in row["bucket_counts"]]
            if len(counts) != len(h.bucket_counts):
                raise ValueError(f"histogram {row['name']!r}: bucket count mismatch")
            for i, n in enumerate(counts):
                h.bucket_counts[i] += n
            h.count += int(row["count"])
            h.sum = math.fsum((h.sum, float(row["sum"])))
        return reg

    # -- exports ---------------------------------------------------------

    def write_json(self, path: str | Path) -> Path:
        """Write the registry as deterministic JSON."""

        return _write_text(path, json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")

    def write_prometheus(self, path: str | Path) -> Path:
        """Write the registry as Prometheus text (:meth:`to_prometheus`)."""

        return _write_text(path, self.to_prometheus())

    def to_prometheus(self) -> str:
        """Prometheus text exposition (0.0.4) of every metric."""

        def esc(v: str) -> str:
            return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")

        def labelstr(labels: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
            items = [*labels, *extra]
            if not items:
                return ""
            return "{" + ",".join(f'{k}="{esc(v)}"' for k, v in items) + "}"

        def fmt(v: float) -> str:
            return repr(int(v)) if float(v).is_integer() else repr(float(v))

        lines: list[str] = []
        typed: set[str] = set()

        def type_line(name: str, kind: str) -> None:
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for (name, labels), c in sorted(self._counters.items()):
            type_line(name, "counter")
            lines.append(f"{name}{labelstr(labels)} {c.value}")
        for (name, labels), g in sorted(self._gauges.items()):
            type_line(name, "gauge")
            lines.append(f"{name}{labelstr(labels)} {fmt(g.value)}")
        for (name, labels), h in sorted(self._histograms.items()):
            type_line(name, "histogram")
            cumulative = 0
            for bound, n in zip(h.bounds, h.bucket_counts):
                cumulative += n
                lines.append(f"{name}_bucket{labelstr(labels, (('le', fmt(bound)),))} {cumulative}")
            lines.append(f"{name}_bucket{labelstr(labels, (('le', '+Inf'),))} {h.count}")
            lines.append(f"{name}_sum{labelstr(labels)} {fmt(h.sum)}")
            lines.append(f"{name}_count{labelstr(labels)} {h.count}")
        return "\n".join(lines) + "\n"


def _write_text(path: str | Path, text: str) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text, encoding="utf-8")
    return p


def merge_registries(registries) -> MetricsRegistry:
    """Fold any number of registries into a fresh one.

    The merge is deterministic and order-independent: counters and histogram
    buckets are integer additions, gauges fold with ``max``, and histogram
    sums fold with :func:`math.fsum` over every component at once, so any
    permutation of shards produces the identical merged registry.
    """

    registries = list(registries)
    out = MetricsRegistry()
    for reg in registries:
        for (name, labels), c in sorted(reg._counters.items()):
            out.counter(name, **dict(labels)).inc(c.value)
        for (name, labels), g in sorted(reg._gauges.items()):
            mine = out.gauge(name, **dict(labels))
            mine.set(max(mine.value, g.value))
    # histograms: collect per-key components first so sums fsum exactly once
    hist_parts: dict[tuple[str, LabelKey], list[Histogram]] = {}
    for reg in registries:
        for key, h in sorted(reg._histograms.items()):
            hist_parts.setdefault(key, []).append(h)
    for (name, labels), parts in sorted(hist_parts.items()):
        h = out.histogram(name, buckets=parts[0].bounds, **dict(labels))
        for part in parts:
            if part.bounds != h.bounds:
                raise ValueError(f"histogram {name!r}: shards disagree on buckets")
            for i, n in enumerate(part.bucket_counts):
                h.bucket_counts[i] += n
            h.count += part.count
        h.sum = math.fsum(part.sum for part in parts)
    return out


# -- campaign metrics shards ------------------------------------------------

METRICS_NAME = "metrics.json"
_SHARD_PREFIX = "metrics.w"


def metrics_shard_name(worker: int) -> str:
    """Metrics shard filename for one campaign worker, e.g. ``metrics.w03.json``."""

    return f"metrics.w{worker:02d}.json"


def metrics_shards(out_dir: str | Path) -> dict[int, Path]:
    """Every metrics shard in ``out_dir``, keyed by worker id."""

    out: dict[int, Path] = {}
    d = Path(out_dir)
    if d.is_dir():
        for p in sorted(d.iterdir()):
            name = p.name
            if name.startswith(_SHARD_PREFIX) and name.endswith(".json"):
                digits = name[len(_SHARD_PREFIX) : -len(".json")]
                if digits.isdigit() and len(digits) >= 2:
                    out[int(digits)] = p
    return out


def load_registry(path: str | Path) -> MetricsRegistry | None:
    """Read a registry export; ``None`` when absent or unparseable (metrics
    are best-effort observability, never a reason to fail a campaign)."""

    p = Path(path)
    if not p.is_file():
        return None
    try:
        return MetricsRegistry.from_dict(json.loads(p.read_text(encoding="utf-8")))
    except (json.JSONDecodeError, ValueError, KeyError, TypeError):
        return None


# -- process-global default registry ----------------------------------------

_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry the library's hot paths record into."""

    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry (returns the previous one)."""

    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
