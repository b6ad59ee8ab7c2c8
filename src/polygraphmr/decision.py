"""Trainable decision module: flag likely CNN mispredictions.

PolygraphMR's decision module looks at the outputs of the whole submodel
ensemble for one input and predicts whether the original model's (ORG's)
top-1 prediction is wrong.  Here it is a logistic regression over six
agreement statistics of the stacked probability tensor, fitted by Newton's
method on the ``val`` split and evaluated on ``test`` — pure numpy, no
external ML dependency.

The features are computed class-major (:func:`plane_features`): the
``(M, N, C)`` stack as ``C`` contiguous planes of shape ``(M, N)``, so each
reduction over a sample's classes (row sums, votes) is ``C - 1`` whole-plane
ufunc calls in the order numpy's row reductions use, bit-equal to them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .metrics import get_registry

__all__ = [
    "FEATURE_NAMES",
    "DetectionMetrics",
    "LogisticDecisionModule",
    "baseline_aucs",
    "class_major",
    "ensemble_features",
    "ensemble_features_batch",
    "misprediction_targets",
    "plane_argmax",
    "plane_features",
    "plane_sums",
]

# samples per class-major copy in ensemble_features_batch: the gate fit and
# the clean baseline featurize a whole memoised split (8 MB at CIFAR shape),
# and copying it whole raised a campaign-cifar command's peak RSS by 3-4 MB
FEATURE_SLAB = 1000

# the gate's feature columns, in order (see :func:`ensemble_features_batch`)
FEATURE_NAMES = (
    "entropy",
    "max_mean_prob",
    "agreement",
    "org_disagrees",
    "org_support",
    "org_max_prob",
)


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
    """Feature matrix ``(N, 6)`` from a stacked probability tensor
    ``(M, N, C)``: the batch-of-one form of :func:`ensemble_features_batch`."""

    return ensemble_features_batch(stacked[None])[0]


def ensemble_features_batch(batched: np.ndarray) -> np.ndarray:
    """Feature matrices ``(B, N, 6)`` from a batch of stacked tensors
    ``(B, M, N, C)``, ORG at member index 0: :func:`plane_features` of
    class-major copies (:func:`class_major`) of :data:`FEATURE_SLAB`
    samples at a time.  Every feature is per sample, so the slabs do not
    change a byte."""

    n = batched.shape[2]
    out = np.empty((batched.shape[0], n, len(FEATURE_NAMES)), dtype=np.result_type(batched.dtype, np.float64))
    for lo in range(0, n, FEATURE_SLAB):
        out[:, lo : lo + FEATURE_SLAB] = plane_features(class_major(batched[:, :, lo : lo + FEATURE_SLAB]))[0]
    return out


def class_major(arr: np.ndarray, dtype=None) -> np.ndarray:
    """A C-ordered copy of ``arr`` with its last (class) axis moved to the
    front: ``(..., C)`` becomes ``C`` contiguous planes ``(C, ...)``, in
    ``dtype`` (default: ``arr``'s).  The input is never written."""

    return np.array(np.moveaxis(arr, -1, 0), dtype=dtype, order="C")


def plane_sums(planes: np.ndarray) -> np.ndarray:
    """``planes.sum(axis=0)`` added in the order numpy's ``sum(axis=-1)``
    adds one row of the row-major layout, so the two are bit-equal.

    numpy sums a contiguous row pairwise: below 8 elements in sequence;
    up to 128 in eight interleaved accumulators, combined as a tree, then
    the tail in sequence; above that it splits the row in two (the first
    half a multiple of 8) and adds the halves' sums.  The reduction starts
    from the identity, so ``0.0`` is added last (it only turns ``-0.0``
    into ``0.0``).  Each step is a whole-plane ufunc call into buffers
    allocated once per call."""

    out = np.empty(planes.shape[1:], dtype=planes.dtype)
    _pairwise_into(planes, out)
    out += 0.0
    return out


def _pairwise_into(planes: np.ndarray, out: np.ndarray) -> None:
    n = len(planes)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        _pairwise_into(planes[:half], out)
        rest = np.empty_like(out)
        _pairwise_into(planes[half:], rest)
        out += rest
    elif n < 8:
        out[...] = planes[0] if n else 0.0
        for k in range(1, n):
            out += planes[k]
    else:
        block = n - n % 8
        acc = planes[:8]
        if block > 8:
            acc = planes[:8] + planes[8:16]
            for lo in range(16, block, 8):
                acc += planes[lo : lo + 8]
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the tail
        right = np.empty_like(out)
        scratch = np.empty_like(out)
        np.add(acc[0], acc[1], out=out)
        np.add(acc[2], acc[3], out=right)
        out += right
        np.add(acc[4], acc[5], out=right)
        np.add(acc[6], acc[7], out=scratch)
        right += scratch
        out += right
        for k in range(block, n):
            out += planes[k]


def plane_argmax(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``argmax(axis=0)`` of ``planes`` and the value there, with numpy's
    ``argmax`` semantics: the first maximum wins, and a NaN beats every
    number, the first NaN winning.  Votes are the smallest unsigned dtype
    that holds ``C - 1``.

    One pass per plane: a strict-greater compare against the running
    maximum, and a blend ``max(votes, gt · k)`` (``k`` exceeds every
    earlier vote) instead of a masked write, which costs far more on
    random masks.  NaN is rare (sanitized planes hold none), so the rows
    whose maximum went NaN are re-voted afterwards from a gather."""

    c = len(planes)
    votes = np.zeros(planes.shape[1:], dtype=np.min_scalar_type(max(c - 1, 0)))
    best = planes[0].copy()
    gt = np.empty(best.shape, dtype=bool)
    step = np.empty_like(votes)
    for k in range(1, c):
        np.greater(planes[k], best, out=gt)
        np.maximum(best, planes[k], out=best)
        np.multiply(gt.view(np.uint8), votes.dtype.type(k), out=step)
        np.maximum(votes, step, out=votes)
    nan = np.flatnonzero(np.isnan(best))
    if nan.size:
        votes.reshape(-1)[nan] = np.isnan(planes.reshape(c, -1)[:, nan]).argmax(axis=0)
    return votes, best


def plane_features(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gate's feature matrices ``(..., N, 6)`` and every member's vote
    ``(..., M, N)`` from class-major planes ``(C, ..., M, N)``
    (:func:`class_major` of ``(..., M, N, C)`` stacks), ORG at member
    index 0.

    Six agreement statistics per sample, in :data:`FEATURE_NAMES` order:
    the member-mean probabilities' entropy and maximum, the share of
    members voting the majority class, whether ORG's vote differs from the
    majority, ORG *support* (the member-mean probability of ORG's top-1
    class: how strongly the redundant submodels back ORG's answer) and
    ORG's own max probability.  They do not depend on the member count, so
    the layout stays the same when members drop out.  Every statistic
    reduces over the member or class axis elementwise, so a sample's row
    depends on that sample alone.  Votes are :func:`plane_argmax`; the
    majority is the most-voted class, ties toward the lowest.  Each
    statistic is computed in the planes' dtype and stored as float64, and
    equals the row-major computation bit for bit (:func:`plane_sums`)."""

    c, m = planes.shape[0], planes.shape[-2]
    mean = planes.mean(axis=-2)  # (C, ..., N)
    out = np.empty((*mean.shape[1:], len(FEATURE_NAMES)), dtype=np.result_type(planes.dtype, np.float64))
    eps = 1e-12
    out[..., 0] = -plane_sums(mean * np.log(mean + eps))  # entropy
    out[..., 1] = mean.max(axis=0)
    votes, top = plane_argmax(planes)  # (..., M, N)
    # the votes tallied per class, as planes: counts[k] = members voting k
    counts = np.empty((c, *mean.shape[1:]), dtype=np.min_scalar_type(m))
    hit = np.empty(votes.shape, dtype=bool)
    for k in range(c):
        np.equal(votes, k, out=hit)
        np.add.reduce(hit.view(np.uint8), axis=-2, out=counts[k])
    majority, agreeing = plane_argmax(counts)  # (..., N)
    org_vote = votes[..., 0, :]
    np.divide(agreeing, m, out=out[..., 2])  # agreement
    out[..., 3] = org_vote != majority
    out[..., 4] = np.take_along_axis(mean, org_vote[None].astype(np.intp), axis=0)[0]  # ORG support
    out[..., 5] = top[..., 0, :]  # ORG's max prob: the prob of its vote
    return out, votes


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


# the Newton fit stops once no coordinate of a step exceeds NEWTON_TOL; it
# converges in about ten steps, the cap only bounds a pathological input
NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-10

# training-free baselines: each reads one feature column as "the lower, the
# likelier ORG is wrong" — ORG's max-softmax confidence (the paper's
# baseline) and ORG support (the ensemble's backing of ORG's answer)
BASELINES = {"org_max_softmax": "org_max_prob", "org_support": "org_support"}


def baseline_aucs(features: np.ndarray, targets: np.ndarray) -> dict[str, float]:
    """Misprediction-detection AUC of each :data:`BASELINES` score over a
    feature matrix from :func:`ensemble_features`."""

    return {
        name: _rank_auc(-features[:, FEATURE_NAMES.index(column)], targets)
        for name, column in BASELINES.items()
    }


class LogisticDecisionModule:
    """L2-regularised logistic regression fitted by Newton's method (IRLS).

    Minimises the mean log-loss plus ``l2 / 2 · (|w|² + b²)`` over features
    standardised with the training split's statistics.  The bias is
    penalised like the weights, so the loss is strictly convex and has a
    finite minimiser even when every target is one class.  The solve starts
    from zero and is deterministic: the same data gives the same bytes.
    """

    def __init__(self, *, l2: float = 1e-3):
        self.l2 = l2
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

    def _loss(self, x: np.ndarray, y: np.ndarray, theta: np.ndarray) -> float:
        """The penalised loss at ``theta`` = ``(w, b)`` over bias-augmented ``x``."""

        z = x @ theta
        return float((np.logaddexp(0.0, z) - y * z).mean() + 0.5 * self.l2 * (theta @ theta))

    # -- API -------------------------------------------------------------

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "LogisticDecisionModule":
        start = time.perf_counter()
        n, d = np.shape(features)
        x = np.empty((n, d + 1))
        x[:, :d] = self._standardise(np.asarray(features, dtype=np.float64), fit=True)
        x[:, d] = 1.0  # the bias column
        y = np.asarray(targets, dtype=np.float64).reshape(-1)
        theta = np.zeros(d + 1)
        ridge = self.l2 * np.eye(d + 1)
        loss = self._loss(x, y, theta)
        for _ in range(NEWTON_MAX_ITER):
            p = self._sigmoid(x @ theta)
            grad = x.T @ (p - y) / n + self.l2 * theta
            hess = (x.T * (p * (1.0 - p))) @ x / n + ridge
            step = np.linalg.solve(hess, grad)
            if np.abs(step).max() <= NEWTON_TOL:
                theta -= step
                break
            # halve the Newton step until the loss does not rise: the full
            # step is taken near the optimum, damping only guards the start
            t = 1.0
            while True:
                trial = theta - t * step
                trial_loss = self._loss(x, y, trial)
                if trial_loss <= loss or t < 1e-6:
                    break
                t *= 0.5
            theta, loss = trial, trial_loss
        self.w = theta[:d].copy()
        self.b = float(theta[d])
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
