"""Slow, obviously-correct reference implementations the vectorized kernels
are checked against.  Used only by tests; the program runs the batched
kernels (:func:`polygraphmr.decision.ensemble_features_batch`,
:func:`polygraphmr.faults.sanitize_probs_batch`) and the rank-based
``polygraphmr.decision._rank_auc``."""

from __future__ import annotations

import numpy as np


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
