"""Slow, obviously-correct reference implementations the vectorized kernels
are checked against.  Used only by tests; the program runs the batched
kernels (:func:`polygraphmr.decision.ensemble_features_batch`,
:func:`polygraphmr.faults.sanitize_probs_batch`, and the injector: one
seed's :func:`polygraphmr.faults.draw_fault` or
:meth:`polygraphmr.faults.FaultSpec.draw`, written into every member's
slice by :meth:`polygraphmr.faults.FaultDraw.apply`), the rank-based
``polygraphmr.decision._rank_auc`` and the gate's split ``_sigmoid`` and
Newton fit."""

from __future__ import annotations

import math

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
    """The gate's six features ``(N, 6)`` of a stacked tensor ``(M, N, C)``,
    one sample at a time (see :data:`polygraphmr.decision.FEATURE_NAMES`).

    Vote agreement is computed the way pypuf's ``reliabilities_PUF`` treats
    repeated responses: every member's vote is a ±1 response, +1 where it
    agrees with the reference vote (here the majority, ties to the lowest
    class).  pypuf's reliability is ``|mean(responses)|``; the share of
    agreeing members is its signed form ``(M + Σ responses) / 2M``, which
    is exactly ``k / M`` for ``k`` agreeing members.  ORG disagrees where
    its own response is −1.
    """

    m, n, _ = stacked.shape
    eps = 1e-12
    rows = []
    for i in range(n):
        sample = stacked[:, i, :]  # (M, C), ORG first
        mean = sample.mean(axis=0)
        votes = [int(np.argmax(sample[k])) for k in range(m)]
        majority = int(np.argmax(np.bincount(votes)))
        responses = [1 if v == majority else -1 for v in votes]
        rows.append(
            [
                -(mean * np.log(mean + eps)).sum(),  # entropy of the mean probs
                mean.max(),
                (m + sum(responses)) / (2 * m),  # agreement
                1.0 if responses[0] < 0 else 0.0,  # ORG disagrees
                mean[votes[0]],  # ORG support
                sample[0].max(),  # ORG max prob
            ]
        )
    return np.array(rows, dtype=np.float64).reshape(n, 6)


def v3_ensemble_features(stacked: np.ndarray) -> np.ndarray:
    """The journal-v3 gate's features ``(N, M·C + 4)``, kept as a reference:
    every member's probability vector, then the mean probs' entropy and
    maximum, majority-vote agreement and ORG-disagrees."""

    m, n, c = stacked.shape
    flat = np.transpose(stacked, (1, 0, 2)).reshape(n, m * c)
    return np.concatenate([flat, ensemble_features(stacked)[:, :4]], axis=1)


def sigmoid(z: float) -> float:
    """The logistic function of one float, split at zero so neither branch
    overflows; NaN stays NaN."""

    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def penalised_loss_and_grad(x: np.ndarray, y: np.ndarray, w: np.ndarray, b: float, l2: float):
    """The gate's training objective by scalar loops: mean log-loss plus
    ``l2 / 2 · (|w|² + b²)`` over (already standardised) ``x``, and its
    gradient with respect to ``(w, b)`` as one array, the bias last."""

    n, d = x.shape
    loss = 0.0
    grad = [0.0] * (d + 1)
    for i in range(n):
        z = b + sum(float(w[j]) * float(x[i, j]) for j in range(d))
        # log(1 + e^z) without overflow
        loss += max(z, 0.0) + math.log1p(math.exp(-abs(z))) - float(y[i]) * z
        err = sigmoid(z) - float(y[i])
        for j in range(d):
            grad[j] += err * float(x[i, j])
        grad[d] += err
    theta = [float(v) for v in w] + [float(b)]
    loss = loss / n + 0.5 * l2 * sum(t * t for t in theta)
    return loss, np.array([g / n + l2 * t for g, t in zip(grad, theta)])


def gradient_descent_fit(x: np.ndarray, y: np.ndarray, *, lr=0.5, epochs=400, l2=1e-3, seed=0):
    """The journal-v3 gate's fit, kept as a reference: full-batch gradient
    descent from a seeded N(0, 0.01²) weight draw, the bias unpenalised.
    Returns ``(w, b)`` over (already standardised) ``x``."""

    n, d = x.shape
    w = np.random.default_rng(seed).normal(0.0, 0.01, size=d)
    b = 0.0
    for _ in range(epochs):
        err = 1.0 / (1.0 + np.exp(-(x @ w + b))) - y
        w -= lr * (x.T @ err / n + l2 * w)
        b -= lr * float(err.mean())
    return w, b


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
