"""Trainable decision module: flag likely CNN mispredictions.

PolygraphMR's decision module looks at the outputs of the whole submodel
ensemble for one input and predicts whether the original model's (ORG's)
top-1 prediction is wrong.  Here it is a seeded logistic regression over
features derived from the stacked probability tensor, trained on the ``val``
split and evaluated on ``test`` — pure numpy, no external ML dependency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .metrics import get_registry

__all__ = [
    "DetectionMetrics",
    "LogisticDecisionModule",
    "ensemble_features",
    "ensemble_features_batch",
    "misprediction_targets",
]


@dataclass(frozen=True)
class DetectionMetrics:
    """Quality of misprediction detection on one split."""

    n: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float
    base_rate: float  # fraction of samples that actually are mispredictions

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "accuracy": round(self.accuracy, 6),
            "precision": round(self.precision, 6),
            "recall": round(self.recall, 6),
            "f1": round(self.f1, 6),
            "auc": round(self.auc, 6),
            "base_rate": round(self.base_rate, 6),
        }


def ensemble_features(stacked: np.ndarray) -> np.ndarray:
    """Feature matrix from a stacked probability tensor ``(M, N, C)``: the
    batch-of-one form of :func:`ensemble_features_batch`."""

    return ensemble_features_batch(stacked[None])[0]


def ensemble_features_batch(batched: np.ndarray) -> np.ndarray:
    """Feature matrices from a batch of stacked tensors ``(B, M, N, C)``.

    Concatenates every member's probability vector with cheap agreement
    statistics (mean-prob entropy, max mean-prob, top-1 vote agreement,
    ORG-vs-ensemble disagreement) that carry most of the detection signal
    and keep the feature map usable when members drop out.  Every statistic
    reduces over the member or class axis elementwise, so ``out[b]`` depends
    on ``batched[b]`` alone; the majority vote is a vote tally + argmax,
    which breaks ties toward the lowest class.

    Member columns and statistics are written straight into one
    preallocated ``(B, N, M·C + 4)`` matrix; each statistic is computed in
    the input's dtype, exactly as if the pieces were concatenated.
    """

    b, m, n, c = batched.shape
    out = np.empty((b, n, m * c + 4), dtype=np.result_type(batched.dtype, np.float64))
    # splitting the last axis of the column block is always a view
    out[..., : m * c].reshape(b, n, m, c)[...] = batched.transpose(0, 2, 1, 3)
    mean = batched.mean(axis=1)  # (B, N, C)
    eps = 1e-12
    out[..., m * c] = -(mean * np.log(mean + eps)).sum(axis=2)  # entropy
    out[..., m * c + 1] = mean.max(axis=2)
    votes = batched.argmax(axis=3)  # (B, M, N)
    # one tally over every (trial, sample) row: vote v of row r lands in bin r·C + v
    rows = np.arange(b * n).reshape(b, 1, n)
    counts = np.bincount((votes + rows * c).ravel(), minlength=b * n * c).reshape(b, n, c)
    majority = counts.argmax(axis=2)  # (B, N)
    out[..., m * c + 2] = (votes == majority[:, None, :]).mean(axis=1)  # agreement
    out[..., m * c + 3] = votes[:, 0] != majority  # ORG disagrees
    return out


def misprediction_targets(org_probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Binary target: 1 where ORG's top-1 prediction is wrong."""

    return (org_probs.argmax(axis=1) != np.asarray(labels).reshape(-1)).astype(np.float64)


def _rank_auc(scores: np.ndarray, targets: np.ndarray) -> float:
    """Mann-Whitney AUC via average ranks; 0.5 when one class is absent.

    Equal scores share their group's average rank.  NaN scores (a gate whose
    weights were bit-flipped to NaN) form one tie group ranked above every
    finite score, so the result never depends on row order; all-NaN gives 0.5.
    """

    pos = targets > 0.5
    n_pos = int(pos.sum())
    n_neg = len(targets) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    starts = np.cumsum(counts) - counts
    ranks = (starts + (counts + 1) / 2.0)[group]
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class LogisticDecisionModule:
    """L2-regularised logistic regression trained by full-batch gradient descent.

    Deterministic for a fixed ``seed``; features are standardised with the
    training split's statistics.
    """

    def __init__(self, *, lr: float = 0.5, epochs: int = 400, l2: float = 1e-3, seed: int = 0):
        self.lr = lr
        self.epochs = epochs
        self.l2 = l2
        self.seed = seed
        self.w: np.ndarray | None = None
        self.b: float = 0.0
        self._mu: np.ndarray | None = None
        self._sigma: np.ndarray | None = None

    # -- internals -------------------------------------------------------

    def _standardise(self, x: np.ndarray, *, fit: bool) -> np.ndarray:
        """``(x - mu) / sigma`` in one new float64 array; ``x`` is never
        written, so callers may pass shared feature matrices."""

        if fit:
            self._mu = x.mean(axis=0)
            self._sigma = x.std(axis=0)
            self._sigma[self._sigma < 1e-9] = 1.0
        assert self._mu is not None and self._sigma is not None
        out = np.subtract(x, self._mu, dtype=np.float64)
        out /= self._sigma
        return out

    @staticmethod
    def _sigmoid(z: np.ndarray) -> np.ndarray:
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    # -- API -------------------------------------------------------------

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "LogisticDecisionModule":
        start = time.perf_counter()
        x = self._standardise(np.asarray(features, dtype=np.float64), fit=True)
        y = np.asarray(targets, dtype=np.float64).reshape(-1)
        rng = np.random.default_rng(self.seed)
        n, d = x.shape
        self.w = rng.normal(0.0, 0.01, size=d)
        self.b = 0.0
        for _ in range(self.epochs):
            p = self._sigmoid(x @ self.w + self.b)
            err = p - y
            self.w -= self.lr * (x.T @ err / n + self.l2 * self.w)
            self.b -= self.lr * float(err.mean())
        get_registry().histogram("decision_fit_seconds").observe(time.perf_counter() - start)
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        if self.w is None:
            raise RuntimeError("decision module is not fitted")
        start = time.perf_counter()
        x = self._standardise(features, fit=False)
        out = self._sigmoid(x @ self.w + self.b)
        get_registry().histogram("decision_predict_seconds").observe(time.perf_counter() - start)
        return out

    @staticmethod
    def flag(scores: np.ndarray, *, threshold: float = 0.5) -> np.ndarray:
        """Decision flags (1 = ORG predicted wrong) from :meth:`predict_proba` scores."""

        return (scores >= threshold).astype(np.int64)

    def predict(self, features: np.ndarray, *, threshold: float = 0.5) -> np.ndarray:
        return self.flag(self.predict_proba(features), threshold=threshold)

    def evaluate(self, scores: np.ndarray, targets: np.ndarray, *, threshold: float = 0.5) -> DetectionMetrics:
        """Detection metrics of ``scores`` (from :meth:`predict_proba`)
        against ``targets``; takes scores rather than features so a caller
        that also needs the flags computes them once."""

        y = np.asarray(targets, dtype=np.float64).reshape(-1)
        pred = self.flag(scores, threshold=threshold).astype(np.float64)
        tp = float(((pred == 1) & (y == 1)).sum())
        fp = float(((pred == 1) & (y == 0)).sum())
        fn = float(((pred == 0) & (y == 1)).sum())
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        return DetectionMetrics(
            n=len(y),
            accuracy=float((pred == y).mean()) if len(y) else 0.0,
            precision=precision,
            recall=recall,
            f1=f1,
            auc=_rank_auc(scores, y),
            base_rate=float(y.mean()) if len(y) else 0.0,
        )
