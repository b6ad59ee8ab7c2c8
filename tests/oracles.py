"""Slow, obviously-correct reference implementations the vectorized kernels
are checked against.  Used only by tests; the program runs the batched
kernels (:func:`polygraphmr.decision.ensemble_features_batch`,
:func:`polygraphmr.faults.sanitize_probs_batch`,
:func:`polygraphmr.faults.apply_fault_batch`,
:meth:`polygraphmr.faults.FaultSpec.apply_batch`) and the rank-based
``polygraphmr.decision._rank_auc``."""

from __future__ import annotations

import numpy as np

from polygraphmr.faults import select_fault_indices


def apply_fault(
    arr: np.ndarray,
    *,
    surface: str,
    kind: str,
    rate: float = 0.0,
    sigma: float = 0.0,
    step: float = 0.0,
    count: int = 0,
    rng: np.random.Generator,
) -> np.ndarray:
    """One surface × fault-model injection into one tensor; returns a new
    array, the input is never mutated.

    ``bitflip`` flips one random IEEE-754 bit per selected float32 element;
    ``gaussian`` adds N(0, sigma) to the selected elements; ``quantize``
    snaps them to the nearest multiple of ``step``; ``stuck0``/``stuck1``
    clamp them to 0.0 / 1.0.  The surface decides *which* elements those
    are; the selection is drawn first, then the bit positions or noise.
    """

    if kind == "bitflip":
        out = np.ascontiguousarray(arr, dtype=np.float32).copy()
    else:
        out = np.asarray(arr, dtype=np.float64).copy()
    idx = select_fault_indices(out.shape, surface, rate=rate, count=count, rng=rng)
    if idx.size == 0:
        return out
    flat = out.reshape(-1)
    if kind == "bitflip":
        bits = rng.integers(0, 32, size=idx.size, dtype=np.uint32)
        flat.view(np.uint32)[idx] ^= np.uint32(1) << bits
    elif kind == "gaussian":
        flat[idx] += rng.normal(0.0, sigma, size=idx.size)
    elif kind == "quantize":
        flat[idx] = np.round(flat[idx] / step) * step
    elif kind == "stuck0":
        flat[idx] = 0.0
    elif kind == "stuck1":
        flat[idx] = 1.0
    else:
        raise ValueError(f"unknown fault kind {kind!r}")
    return out


def apply_scenario(scenario, arr: np.ndarray, seed: int) -> np.ndarray:
    """:func:`apply_fault` with a :class:`~polygraphmr.scenarios.Scenario`'s
    parameters and a fresh generator seeded with ``seed``."""

    s = scenario
    return apply_fault(
        arr,
        surface=s.surface,
        kind=s.kind,
        rate=s.rate,
        sigma=s.sigma,
        step=s.step,
        count=s.count,
        rng=np.random.default_rng(seed),
    )


def inject_bitflips(arr: np.ndarray, *, rate: float, rng: np.random.Generator) -> np.ndarray:
    """The legacy whole-tensor bit-flip: one random bit flipped in a
    ``rate`` fraction of float32 elements.  Returns a new array."""

    out = np.ascontiguousarray(arr, dtype=np.float32).copy()
    flat = out.reshape(-1)
    n_hit = int(round(rate * flat.size))
    if n_hit == 0:
        return out.reshape(arr.shape)
    idx = rng.choice(flat.size, size=n_hit, replace=False)
    bits = rng.integers(0, 32, size=n_hit, dtype=np.uint32)
    view = flat.view(np.uint32)
    view[idx] ^= (np.uint32(1) << bits)
    return out.reshape(arr.shape)


def inject_gaussian(arr: np.ndarray, *, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """The legacy whole-tensor gaussian: zero-mean noise on every element;
    returns a new float64 array."""

    out = np.asarray(arr, dtype=np.float64).copy()
    return out + rng.normal(0.0, sigma, size=out.shape)


def ensemble_features(stacked: np.ndarray) -> np.ndarray:
    """Feature matrix from a stacked probability tensor ``(M, N, C)``.

    Concatenates every member's probability vector with cheap agreement
    statistics (mean-prob entropy, max mean-prob, top-1 vote agreement,
    ORG-vs-ensemble disagreement) that carry most of the detection signal
    and keep the feature map usable when members drop out.
    """

    m, n, c = stacked.shape
    flat = np.transpose(stacked, (1, 0, 2)).reshape(n, m * c)
    mean = stacked.mean(axis=0)  # (N, C)
    eps = 1e-12
    entropy = -(mean * np.log(mean + eps)).sum(axis=1, keepdims=True)
    max_mean = mean.max(axis=1, keepdims=True)
    votes = stacked.argmax(axis=2)  # (M, N)
    majority = np.apply_along_axis(lambda col: np.bincount(col, minlength=c).argmax(), 0, votes)
    agreement = (votes == majority[None, :]).mean(axis=0, keepdims=True).T  # (N, 1)
    org_disagrees = (votes[0] != majority).astype(np.float64)[:, None]
    return np.concatenate([flat, entropy, max_mean, agreement, org_disagrees], axis=1)


def sanitize_probs(arr: np.ndarray) -> np.ndarray:
    """Repair a faulted probability matrix so downstream code keeps running:
    non-finite → 0, clip to [0, 1], renormalise rows (uniform if a row dies)."""

    out = np.asarray(arr, dtype=np.float64).copy()
    out[~np.isfinite(out)] = 0.0
    np.clip(out, 0.0, 1.0, out=out)
    sums = out.sum(axis=1, keepdims=True)
    dead = sums.reshape(-1) <= 0.0
    out[dead] = 1.0 / out.shape[1]
    sums[dead.reshape(-1)] = 1.0
    return out / sums


def pairwise_auc(scores: np.ndarray, targets: np.ndarray) -> float:
    """Mann-Whitney AUC by direct O(n²) pair counting: the share of
    (positive, negative) pairs whose positive scores higher, ties counting ½;
    0.5 when one class is absent.

    NaN scores tie with each other and outrank every finite score, so a gate
    whose output went NaN has a defined, order-free AUC."""

    def key(x: float) -> tuple[bool, float]:
        return (True, 0.0) if np.isnan(x) else (False, float(x))

    pos = [key(s) for s, t in zip(scores, targets) if t > 0.5]
    neg = [key(s) for s, t in zip(scores, targets) if not t > 0.5]
    if not pos or not neg:
        return 0.5
    wins = 0.0
    for p in pos:
        for q in neg:
            wins += 1.0 if p > q else 0.5 if p == q else 0.0
    return wins / (len(pos) * len(neg))
