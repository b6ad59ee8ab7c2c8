"""Order statistics and the host-speed probe."""

from __future__ import annotations

import math
import time

# candidate percentiles for the tail a sample can resolve
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""

    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the ``p``-th percentile."""

    return math.floor(n * (100.0 - p) / 100.0 + 1e-9)


def top_percentile(n: int) -> float | None:
    """The highest percentile of :data:`PERCENTILE_LADDER` with at least 10
    of ``n`` samples beyond it, or ``None`` when even the median has fewer."""

    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= 10:
            best = p
    return best


def ref_kernel_ms() -> float:
    """Median wall time of a fixed numpy + pure-Python kernel.

    Timed before and after each measured window so a slow phase of the host
    can be told apart from a regression; nothing is normalised by it.
    """

    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((200, 200))
    data = list(range(300_000))
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        b = a
        for _ in range(8):
            b = np.tanh(b @ a) * 0.5
        np.sort(rng.standard_normal(200_000))
        total = 0
        for x in data:
            total += x * x % 7
        samples.append((time.perf_counter() - start) * 1000.0)
    return median(samples)
