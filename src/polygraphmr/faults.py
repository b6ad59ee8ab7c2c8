"""MRFI-style multi-resolution fault-injection harness.

One seeded, reproducible tensor injector plus artifact-level damage:

* **Tensor faults** — an injection is two steps.  :func:`draw_fault` draws
  a :class:`FaultDraw` from the fault's seed on one slice's shape: the
  flat indices a surface selects (a ``rate`` fraction of the whole
  tensor, a ``rate`` fraction of last-axis channels, or ``count``
  addressed elements) and, per index, what the fault model does there
  (IEEE-754 bit-flip, additive gaussian, quantization rounding,
  stuck-at-0/1).  :func:`_inject` then copies a stack into class-major
  planes ``(C, M, N)`` (:meth:`FaultDraw.apply`) and writes that one draw
  into every member: the members of a trial share its seed, so they share
  its draw.  :meth:`FaultSpec.apply_batch` and
  :meth:`polygraphmr.scenarios.ScenarioFault.apply_batch` are the two
  steps on a whole stack, returned in its layout; a single tensor is a
  batch of one (``arr[None]``).  The declarative :mod:`polygraphmr.scenarios`
  subsystem drives it; :class:`FaultSpec`, the legacy
  ``--kind/--rate/--sigma`` sweep's fault, drives it for bit-flips and
  keeps its own whole-tensor gaussian noise (a draw with no index
  selection: every element).
* **Sparse trials** — every member of a trial shares its seed, so they
  share one selection, and most selections touch few samples.
  :func:`degradation_report` gathers only the touched samples, injects,
  sanitizes and featurizes them, and splices them into a memoised
  reference of the clean split before the gate scores every sample in one
  call; a dense fault (the legacy gaussian, the ``channel`` surface, or
  more than :data:`DENSE_SHARE` of the samples) runs the same steps over
  every sample.  Both give the same bytes.  From injection to features
  the samples stay class-major, so every reduction over a sample's ``C``
  classes is ``C - 1`` whole-plane calls
  (:func:`~polygraphmr.decision.plane_features`) rather than one numpy
  call per ``C``-wide row.
* **Artifact-level** — byte truncation and header damage applied to copies
  of ``.npz`` files, used to exercise the store's quarantine path.

Run ``python -m polygraphmr.faults --help`` for the measurement CLI.
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import shutil
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .cache import DEFAULT_CACHE_BYTES, ArtifactCache, stat_once
from .decision import FEATURE_NAMES, DetectionMetrics, baseline_aucs, class_major, plane_features, plane_sums
from .ensemble import EnsembleRuntime, ModelSession
from .errors import ConfigError
from .metrics import get_registry
from .store import ArtifactStore

__all__ = [
    "SURFACES",
    "FAULT_MODELS",
    "FAULT_SPEC_KINDS",
    "DENSE_SHARE",
    "FaultSpec",
    "FaultDraw",
    "fault_dtype",
    "select_fault_indices",
    "draw_fault",
    "sanitize_probs_batch",
    "corrupt_file_truncate",
    "corrupt_file_header",
    "DegradationContext",
    "prepare_degradation",
    "degradation_report",
    "measure_degradation",
    "main",
]

SURFACES = ("tensor", "channel", "element")
FAULT_MODELS = ("bitflip", "gaussian", "quantize", "stuck0", "stuck1")
FAULT_SPEC_KINDS = ("bitflip", "gaussian")

# a trial whose selection touches more than this share of the test samples
# runs over every sample: at CIFAR shape the gather-and-splice trial broke
# even with the whole-split one between 0.75 and 0.86 of the samples, for
# bit-flips (float32) and stuck-at-0 (float64) alike; 0.75 is the low end
DENSE_SHARE = 0.75
# samples per slab when a fault reference is built (see _fault_reference)
REFERENCE_SLAB = 1000


def _require_number(field: str, value, *, low: float | None = None, high: float | None = None) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
        raise ConfigError(field, "bad-type", f"expected a finite number, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(field, "out-of-range", f"must be >= {low}, got {value!r}")
    if high is not None and value > high:
        raise ConfigError(field, "out-of-range", f"must be <= {high}, got {value!r}")


@dataclass(frozen=True)
class FaultSpec:
    """Declarative description of a tensor-level fault campaign.

    The simple whole-tensor spec the legacy ``--kind/--rate/--sigma`` sweep
    uses; surface-aware faults live in :class:`polygraphmr.scenarios.Scenario`.
    Parameters are validated at construction: an unknown ``kind`` or an
    out-of-range ``rate``/``sigma`` raises :class:`~polygraphmr.errors.ConfigError`
    naming the offending field, instead of a deep ``ValueError`` mid-sweep.
    """

    kind: str  # "bitflip" | "gaussian"
    rate: float = 0.0  # bitflip: fraction of elements hit
    sigma: float = 0.0  # gaussian: noise stddev
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_SPEC_KINDS:
            raise ConfigError(
                "fault.kind",
                "unknown-kind",
                f"got {self.kind!r}; known kinds: {', '.join(FAULT_SPEC_KINDS)} "
                "(surface-aware kinds like quantize/stuck0/stuck1 are Scenario-only)",
            )
        _require_number("fault.rate", self.rate, low=0.0, high=1.0)
        _require_number("fault.sigma", self.sigma, low=0.0)

    @property
    def dtype(self) -> np.dtype:
        """The dtype the fault is injected in (:func:`fault_dtype`)."""

        return fault_dtype(self.kind)

    def draw(self, shape: tuple[int, ...]) -> FaultDraw:
        """This fault's draw on one slice of ``shape``, from ``self.seed``.

        ``bitflip`` is exactly the tensor-surface bit-flip: the same
        (choice, integers) draws, and no draw at all when the rate rounds to
        zero hits.  ``gaussian`` noise covers the *whole* tensor with no
        index selection, a stream no surface draws."""

        if self.kind == "bitflip":
            return draw_fault(shape, surface="tensor", kind="bitflip", rate=self.rate, seed=self.seed)
        noise = np.random.default_rng(self.seed).normal(0.0, self.sigma, size=shape)
        return FaultDraw("gaussian", None, noise.reshape(-1))

    def apply_batch(self, stacked: np.ndarray) -> np.ndarray:
        """This fault's :meth:`draw` injected into a copy of every slice of
        ``stacked`` (:func:`_inject`); a single tensor is a batch of one
        (``spec.apply_batch(arr[None])[0]``).

        ``bitflip`` flips one random bit in a ``rate`` fraction of the
        slice's float32 elements; ``gaussian`` adds N(0, sigma) noise to
        every element (float64)."""

        return _apply_batch(self, stacked)

    def describe(self) -> dict:
        """The journalled ``fault`` stanza of a degradation report."""

        return {"kind": self.kind, "rate": self.rate, "sigma": self.sigma, "seed": self.seed}


# -- multi-resolution surfaces (MRFI) --------------------------------------


def select_fault_indices(
    shape: tuple[int, ...], surface: str, *, rate: float = 0.0, count: int = 0, rng: np.random.Generator
) -> np.ndarray:
    """Flat element indices an injection surface selects on a tensor.

    * ``tensor`` — a ``rate`` fraction of *all* elements, drawn without
      replacement (the whole tensor is the blast radius).
    * ``channel`` — a ``rate`` fraction of last-axis channels/columns;
      every element of a hit channel is selected (channel-masked faults,
      e.g. a dead feature-map plane or a stuck output class column).
    * ``element`` — exactly ``count`` addressed cells, modelling a small
      set of specific faulty storage locations rather than a rate.

    Selection is a pure function of ``(shape, surface, rate/count, rng
    state)`` — the property every scenario's determinism rides on.
    """

    size = int(np.prod(shape)) if shape else 0
    if size == 0:
        return np.empty(0, dtype=np.int64)
    if surface == "tensor":
        n = int(round(rate * size))
        return rng.choice(size, size=n, replace=False) if n else np.empty(0, dtype=np.int64)
    if surface == "element":
        n = min(int(count), size)
        return rng.choice(size, size=n, replace=False) if n else np.empty(0, dtype=np.int64)
    if surface == "channel":
        n_channels = shape[-1] if len(shape) >= 2 else size
        n = int(round(rate * n_channels))
        if n == 0:
            return np.empty(0, dtype=np.int64)
        channels = np.sort(rng.choice(n_channels, size=n, replace=False))
        rows = size // n_channels
        return (np.arange(rows, dtype=np.int64)[:, None] * n_channels + channels[None, :]).reshape(-1)
    raise ConfigError("scenario.surface", "unknown-surface", f"got {surface!r}; known surfaces: {', '.join(SURFACES)}")


def fault_dtype(kind: str) -> np.dtype:
    """The dtype a fault model works in: float32 for ``bitflip`` (its bits
    are IEEE-754 single-precision bits), float64 for every other kind."""

    if kind == "bitflip":
        return np.dtype(np.float32)
    if kind in FAULT_MODELS:
        return np.dtype(np.float64)
    raise ConfigError("scenario.kind", "unknown-kind", f"got {kind!r}; known kinds: {', '.join(FAULT_MODELS)}")


@dataclass(frozen=True)
class FaultDraw:
    """One seed's injection on one slice shape, drawn before anything is
    written: the flat element indices the surface selected (``None``:
    every element) and, per index, the bit to flip (``bitflip``) or the
    noise to add (``gaussian``).  ``quantize`` snaps to multiples of
    ``step``; ``stuck0``/``stuck1`` need no values."""

    kind: str
    idx: np.ndarray | None
    vals: np.ndarray | None = None
    step: float = 0.0

    def samples(self, width: int) -> np.ndarray | None:
        """The sorted samples the draw touches, a sample being one row of
        ``width`` elements of the slice, or ``None`` when it covers every
        element."""

        if self.idx is None:
            return None
        hit = np.zeros(-(-int(self.idx.max(initial=-1) + 1) // width), dtype=bool)
        hit[self.idx // width] = True
        return np.flatnonzero(hit)

    def on_rows(self, rows: np.ndarray, width: int) -> FaultDraw:
        """This draw re-addressed to a gather of the sorted samples
        ``rows``, which must hold every sample it touches (:meth:`samples`)."""

        sample, column = np.divmod(self.idx, width)
        return replace(self, idx=np.searchsorted(rows, sample) * width + column)

    def apply(self, planes: np.ndarray, members: np.ndarray) -> None:
        """Write ``members`` ``(B, R, C)`` (one slice per member, ``R``
        samples of ``C`` classes) into the class-major ``planes``
        ``(C, B, R)``, in :func:`fault_dtype` of the kind, with the draw
        applied to every member: the slice's flat index ``sample·C + class``
        is ``planes[class, :, sample]``.  Every member gets the same draw.

        Each member is one transposing copy; a draw with no selection adds
        its noise in that copy."""

        c = planes.shape[0]
        if self.idx is None:
            noise = np.ascontiguousarray(self.vals.reshape(-1, c).T)
            for i, member in enumerate(members):
                np.add(member.T, noise, out=planes[:, i])
            return
        for i, member in enumerate(members):
            planes[:, i] = member.T
        if not self.idx.size:
            return
        sample, column = np.divmod(self.idx, c)
        if self.kind == "bitflip":
            planes.view(np.uint32)[column, :, sample] ^= (np.uint32(1) << self.vals)[:, None]
        elif self.kind == "gaussian":
            planes[column, :, sample] += self.vals[:, None]
        elif self.kind == "quantize":
            planes[column, :, sample] = np.round(planes[column, :, sample] / self.step) * self.step
        elif self.kind == "stuck0":
            planes[column, :, sample] = 0.0
        else:
            planes[column, :, sample] = 1.0


def draw_fault(
    shape: tuple[int, ...],
    *,
    surface: str,
    kind: str,
    rate: float = 0.0,
    sigma: float = 0.0,
    step: float = 0.0,
    count: int = 0,
    seed: int,
) -> FaultDraw:
    """One surface × fault-model draw on one slice of ``shape``: the
    selection (:func:`select_fault_indices`) first, then its bit positions
    or noise values, all from ``np.random.default_rng(seed)``."""

    fault_dtype(kind)
    rng = np.random.default_rng(seed)
    idx = select_fault_indices(shape, surface, rate=rate, count=count, rng=rng)
    vals: np.ndarray | None = None
    if idx.size:
        if kind == "bitflip":
            vals = rng.integers(0, 32, size=idx.size, dtype=np.uint32)
        elif kind == "gaussian":
            vals = rng.normal(0.0, sigma, size=idx.size)
    return FaultDraw(kind, idx, vals, step)


def _inject(stack: np.ndarray, draw: FaultDraw, dtype: np.dtype, rows=slice(None)) -> np.ndarray:
    """The one injector: ``stack[:, rows]`` as new class-major planes
    ``(C, B, R)`` of ``dtype`` (:meth:`FaultDraw.apply`), ``C`` the last
    axis and ``B`` the leading (member) axis, with ``draw`` applied to every
    member; the input is never written.  ``rows`` is ``slice(None)`` or the
    sorted sample indices ``draw`` is addressed to
    (:meth:`FaultDraw.on_rows`)."""

    stack = np.asarray(stack)
    if stack.ndim < 2:
        raise ConfigError("fault.batch", "bad-shape", f"need a batch axis, got shape {stack.shape}")
    members = stack[:, rows] if isinstance(rows, slice) else np.take(stack, rows, axis=1)
    members = members.reshape(len(members), -1, stack.shape[-1])
    b, r, c = members.shape
    planes = np.empty((c, b, r), dtype=dtype)
    if planes.size:
        draw.apply(planes, members)
    return planes


def _apply_batch(fault, stacked: np.ndarray) -> np.ndarray:
    """``fault``'s draw injected into a copy of every slice of ``stacked``,
    in ``stacked``'s layout: the ``apply_batch`` of :class:`FaultSpec` and
    :class:`~polygraphmr.scenarios.ScenarioFault`."""

    planes = _inject(stacked, fault.draw(np.shape(stacked)[1:]), fault.dtype)
    return np.ascontiguousarray(np.moveaxis(planes, 0, -1)).reshape(np.shape(stacked))


def sanitize_probs_batch(arr: np.ndarray) -> np.ndarray:
    """Repair faulted probability rows so downstream code keeps running:
    non-finite → 0, clip to [0, 1], renormalise rows (uniform if a row dies).

    Rows live on the *last* axis and every step is per-row, so any number of
    leading batch axes (members, trials) may ride along.  Works on one
    float64 class-major copy (:func:`_sanitize_planes`); the input is never
    written."""

    planes = _sanitize_planes(class_major(arr, np.float64))
    return np.ascontiguousarray(np.moveaxis(planes, 0, -1))


def _sanitize_planes(planes: np.ndarray) -> np.ndarray:
    """:func:`sanitize_probs_batch`'s steps, in place on float64 class-major
    planes ``(C, ...)`` the caller owns; returns them.  The row sums are
    :func:`~polygraphmr.decision.plane_sums`, bit-equal to numpy's."""

    np.copyto(planes, 0.0, where=~np.isfinite(planes))
    np.clip(planes, 0.0, 1.0, out=planes)
    sums = plane_sums(planes)
    dead = sums <= 0.0
    if dead.any():
        np.copyto(planes, 1.0 / len(planes), where=dead)
        sums[dead] = 1.0
    planes /= sums
    return planes


def corrupt_file_truncate(src: str | Path, dst: str | Path, *, keep_fraction: float, seed: int = 0) -> Path:
    """Copy ``src`` to ``dst`` keeping head and tail but cutting bytes from the
    middle — the same damage pattern observed in the seed cache."""

    data = Path(src).read_bytes()
    rng = np.random.default_rng(seed)
    keep = max(8, int(len(data) * keep_fraction))
    cut = len(data) - keep
    if cut > 0:
        start = int(rng.integers(4, max(5, keep // 2)))
        data = data[:start] + data[start + cut :]
    dst = Path(dst)
    dst.write_bytes(data)
    return dst


def corrupt_file_header(src: str | Path, dst: str | Path, *, n_bytes: int = 4, seed: int = 0) -> Path:
    """Copy ``src`` to ``dst`` and overwrite the first ``n_bytes`` with noise."""

    dst = Path(dst)
    shutil.copyfile(src, dst)
    rng = np.random.default_rng(seed)
    with open(dst, "r+b") as fh:
        fh.write(bytes(int(b) for b in rng.integers(0, 256, size=n_bytes)))
    return dst


@dataclass
class DegradationContext:
    """The fault-independent half of a degradation measurement: the model's
    fitted :class:`~polygraphmr.ensemble.ModelSession` and its clean-split
    features, flags and metrics; :func:`degradation_report` supplies the
    per-fault half.

    The session's gate and the clean fields come from the runtime's shared
    trial state for the model (see
    :meth:`~polygraphmr.ensemble.EnsembleRuntime.session`), fitted and
    scored once while the store serves the same arrays for the same member
    set rather than once per context, so every context built on that state
    shares them and none may write to them.  ``references`` is that state's
    store of :class:`FaultReference` values, one per fault dtype."""

    session: ModelSession
    clean_features: np.ndarray
    clean_targets: np.ndarray
    clean_flags: np.ndarray
    clean: DetectionMetrics
    references: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FaultReference:
    """The features and ORG's misprediction targets of
    ``sanitize_probs_batch(clean.astype(dtype))``, the test split as a fault
    of that dtype leaves every sample it does not touch.  Read-only."""

    features: np.ndarray  # (N_test, 6)
    targets: np.ndarray


def prepare_degradation(
    store: ArtifactStore,
    model: str,
    *,
    members: list[str] | None = None,
    runtime: EnsembleRuntime | None = None,
) -> DegradationContext:
    """Build the model's :meth:`~polygraphmr.ensemble.EnsembleRuntime.session`
    and measure its clean baseline; ticks the runtime's breaker board once.

    Raises ``ValueError`` when ORG did not survive or the labels are missing
    or not sized to their split.  Without ``runtime`` a fresh one is built.
    The session is assembled on every call (its breaker calls are per-trial
    history) from one listing of the model directory and the runtime's
    stacks, and its gate and clean baseline come from the runtime's shared
    trial state for the model.  All of it runs under one
    :func:`~polygraphmr.cache.stat_once` scope, so each artifact file is
    statted once per call.
    """

    if runtime is None:
        runtime = EnsembleRuntime(store)
    if runtime.breakers is not None:
        runtime.breakers.tick()
    with stat_once():
        session = runtime.session(model, members)
        if "ORG" not in session.members:
            raise ValueError(f"model {model!r}: ORG did not survive validation; cannot define targets")
        if session.module is None or session.test_labels is None:
            raise ValueError(f"model {model!r}: labels required to measure detection quality")
        baseline = runtime.clean_baseline(session)
    return DegradationContext(
        session=session,
        clean_features=baseline.features,
        clean_targets=baseline.targets,
        clean_flags=baseline.flags,
        clean=baseline.metrics,
        references=baseline.references,
    )


def _featurize_rows(session: ModelSession, planes: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """Sanitize the test samples ``rows`` as the class-major ``planes``
    ``(C, M, R)`` hold them and return their features and ORG's
    misprediction targets, read from ORG's votes.  Every step is per
    sample, so a sample's results do not depend on which samples ride
    along.  The caller hands over ``planes``: float64 ones are sanitized in
    place, any other is dropped once its float64 copy exists."""

    if planes.dtype != np.float64:
        planes = planes.astype(np.float64)
    features, votes = plane_features(_sanitize_planes(planes))
    org = votes[session.members.index("ORG")]
    return features, (org != session.test_labels[rows]).astype(np.float64)


def _slabs(n: int):
    for lo in range(0, n, REFERENCE_SLAB):
        yield slice(lo, lo + REFERENCE_SLAB)


def _fault_reference(ctx: DegradationContext, dtype: np.dtype) -> FaultReference:
    """The memoised :class:`FaultReference` of ``dtype``, built on first use
    in slabs of :data:`REFERENCE_SLAB` samples, so the build never holds a
    copy of the whole split.  Sanitizing works in float64, so when the
    clean split holds float32 values (checked once, also in slabs) the
    float32 reference serves float64 faults too."""

    ref = ctx.references.get(dtype)
    if ref is not None:
        return ref
    stack = ctx.session.test_stack
    n = stack.shape[1]
    f32 = np.dtype(np.float32)
    if dtype == np.float64 and all(
        np.array_equal(stack[:, rows].astype(f32).astype(np.float64), stack[:, rows], equal_nan=True)
        for rows in _slabs(n)
    ):
        ref = _fault_reference(ctx, f32)
    else:
        ref = FaultReference(np.empty((n, len(FEATURE_NAMES))), np.empty(n))
        for rows in _slabs(n):
            ref.features[rows], ref.targets[rows] = _featurize_rows(
                ctx.session, class_major(stack[:, rows], dtype), rows
            )
        for array in (ref.features, ref.targets):
            array.flags.writeable = False
    ctx.references[dtype] = ref
    return ref


def _faulted_scores(ctx: DegradationContext, spec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Features, targets and gate scores of the test split under a probs
    fault.  Only the samples the fault's draw touches are gathered,
    injected, sanitized and featurized, then spliced into copies of the
    :class:`FaultReference`; a dense draw (no index selection, or more than
    :data:`DENSE_SHARE` of the samples) takes every sample as its rows.
    The gate scores the whole spliced feature matrix in one call, as it
    would the whole split, so no score depends on how many rows were
    recomputed."""

    session = ctx.session
    stack = session.test_stack
    m, n, c = stack.shape
    draw = spec.draw(stack.shape[1:])
    rows = draw.samples(c)
    if rows is None or rows.size > DENSE_SHARE * n:
        features, targets = _featurize_rows(session, _inject(stack, draw, spec.dtype), slice(None))
    else:
        touched = _featurize_rows(session, _inject(stack, draw.on_rows(rows, c), spec.dtype, rows), rows)
        ref = _fault_reference(ctx, spec.dtype)
        features, targets = ref.features.copy(), ref.targets.copy()
        features[rows], targets[rows] = touched
    return features, targets, session.module.predict_proba(features)


def degradation_report(ctx: DegradationContext, spec, *, baselines: bool = False) -> dict:
    """Evaluate one fault against a prepared context: inject → sanitize →
    features over the samples the fault touches (:func:`_faulted_scores`;
    every sample when the fault is dense), then predict → evaluate over the
    whole split.  Every step before the gate is per sample, so splicing the
    touched samples' features into the memoised clean reference gives the
    bytes the whole split would, and the gate scores the spliced matrix in
    the one call it would make on the whole split.  One trial's arrays are
    live at a time and the faulted rows are dropped before the gate
    computes its scores.

    ``baselines=True`` adds a ``baselines`` stanza (see
    :func:`_baselines_stanza`); campaigns leave it off, so journal bytes do
    not depend on it."""

    module = ctx.session.module
    if getattr(spec, "target", "probs") == "weights":
        # the gate is shared by every trial of the runtime, so the faulted
        # weights go on a shallow copy and the shared gate is never written
        faulted_gate = copy.copy(module)
        w = _inject(module.w[None], spec.draw(module.w.shape), spec.dtype).reshape(-1)
        faulted_gate.w = np.asarray(w, dtype=np.float64)
        features, targets = ctx.clean_features, ctx.clean_targets
        scores = faulted_gate.predict_proba(features)
    else:
        features, targets, scores = _faulted_scores(ctx, spec)
    faulted = module.evaluate(scores, targets)
    faulted_flags = module.flag(scores)
    report = {
        "model": ctx.session.model,
        "members": ctx.session.members,
        "degraded": ctx.session.degraded,
        "fault": spec.describe(),
        "clean": ctx.clean.to_dict(),
        "faulted": faulted.to_dict(),
        # the gate "overrides" ORG wherever it flags a misprediction; the
        # flag rate under fault is the ensemble's override pressure
        "override": {
            "clean": round(float(ctx.clean_flags.mean()), 6),
            "faulted": round(float(faulted_flags.mean()), 6),
        },
        "delta": {
            k: round(faulted.to_dict()[k] - ctx.clean.to_dict()[k], 6)
            for k in ("accuracy", "precision", "recall", "f1", "auc")
        },
    }
    if baselines:
        report["baselines"] = _baselines_stanza(ctx, faulted, features, targets)
    return report


def _baselines_stanza(
    ctx: DegradationContext, faulted: DetectionMetrics, features: np.ndarray, targets: np.ndarray
) -> dict:
    """The gate's AUC next to the training-free baselines'
    (:data:`~polygraphmr.decision.BASELINES`), clean and faulted, and which
    baselines the gate scores below — reported, never hidden.  A gate-weights
    fault leaves the inputs clean, so its faulted baselines equal the clean
    ones."""

    stanza: dict = {}
    loses: dict = {}
    for side, gate_auc, feats, ys in (
        ("clean", ctx.clean.auc, ctx.clean_features, ctx.clean_targets),
        ("faulted", faulted.auc, features, targets),
    ):
        aucs = baseline_aucs(feats, ys)
        stanza[side] = {"gate": round(gate_auc, 6), **{k: round(v, 6) for k, v in aucs.items()}}
        loses[side] = sorted(k for k, v in aucs.items() if v > gate_auc)
    stanza["gate_loses_to"] = loses
    return stanza


def measure_degradation(
    store: ArtifactStore,
    model: str,
    spec,
    *,
    members: list[str] | None = None,
    runtime: EnsembleRuntime | None = None,
    baselines: bool = False,
) -> dict:
    """Clean-vs-faulted misprediction-detection metrics for one model.

    ``spec`` is any seeded fault — a :class:`FaultSpec` or a
    :class:`polygraphmr.scenarios.ScenarioFault`; it needs
    ``dtype``, ``draw(shape)``, ``describe()``, a ``seed`` attribute, and
    (optionally) a ``target`` attribute.

    Trains the decision module on clean ``val`` data, then evaluates on the
    clean ``test`` split and on a faulted copy.  For ``target="probs"``
    (the default) the fault lands in every member's probability tensor,
    sanitised back onto the simplex so the module sees plausible-but-wrong
    inputs rather than crashing.  For ``target="weights"`` the *decision
    gate itself* runs on faulty hardware: the module's fitted weight vector
    is perturbed while the inputs stay clean.

    Pass ``runtime`` to reuse one :class:`EnsembleRuntime` across many
    calls — the campaign runner does this so its circuit-breaker board
    accumulates state over trials instead of resetting every time.
    ``baselines`` adds :func:`degradation_report`'s baselines stanza.
    """

    ctx = prepare_degradation(store, model, members=members, runtime=runtime)
    return degradation_report(ctx, spec, baselines=baselines)


# -- synthetic demo cache (the seed cache has zero valid artifacts) --------


def _npz_bytes(**arrays: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _write_if_changed(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` unless the file already holds exactly
    those bytes, so an unchanged artifact keeps its ``mtime_ns`` (and with
    it every stat-keyed cache entry and gate memo)."""

    try:
        if path.read_bytes() == data:
            return
    except FileNotFoundError:
        pass
    path.write_bytes(data)


def build_synthetic_model(
    root: str | Path,
    model: str = "synthetic",
    *,
    members: tuple[str, ...] = ("ORG", "pp-Gamma_2", "pp-Hist", "pp-FlipX", "replica-001"),
    n_val: int = 200,
    n_test: int = 200,
    n_classes: int = 10,
    seed: int = 0,
) -> Path:
    """Write a small, fully-valid model directory for demos and tests.

    Samples share a per-example difficulty, so on hard inputs every member's
    probabilities blur together — giving the decision module a real
    disagreement signal to learn, as in the paper's setting.  Each file is
    rendered in memory and written only when its bytes differ from what is
    on disk, so rebuilding an existing model with the same arguments leaves
    it untouched.
    """

    rng = np.random.default_rng(seed)
    mdir = Path(root) / model
    mdir.mkdir(parents=True, exist_ok=True)
    for split, n in (("val", n_val), ("test", n_test)):
        labels = rng.integers(0, n_classes, size=n)
        difficulty = rng.uniform(0.0, 1.0, size=n)
        _write_if_changed(mdir / f"labels.{split}.npz", _npz_bytes(labels=labels))
        for stem in members:
            signal = 4.0 * (1.1 - difficulty)[:, None]
            logits = rng.normal(0.0, 1.0, size=(n, n_classes))
            logits[np.arange(n), labels] += signal[:, 0]
            z = logits - logits.max(axis=1, keepdims=True)
            probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            _write_if_changed(mdir / f"{stem}.{split}.probs.npz", _npz_bytes(probs=probs.astype(np.float32)))
    for stem in members:
        weights = _npz_bytes(
            dense=rng.normal(size=(16, n_classes)).astype(np.float32),
            bias=np.zeros(n_classes, dtype=np.float32),
        )
        _write_if_changed(mdir / f"{stem}.weights.npz", weights)
    _write_if_changed(mdir / "greedy-4.json", json.dumps(["ORG", "Gamma(2)", "Hist", "FlipX"]).encode("utf-8"))
    return mdir


# -- CLI -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m polygraphmr.faults",
        description="Measure misprediction-detection degradation under injected faults.",
    )
    parser.add_argument("--cache", default=".repro_cache", help="cache root (default: .repro_cache)")
    parser.add_argument("--model", default=None, help="model directory to target (default: every usable model)")
    parser.add_argument("--kind", choices=("bitflip", "gaussian"), default="bitflip")
    parser.add_argument("--rate", type=float, default=0.01, help="bit-flip rate (fraction of elements)")
    parser.add_argument("--sigma", type=float, default=0.05, help="gaussian noise stddev")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME|PATH",
        help="inject a named built-in scenario or a scenario config file "
        "(.json/.toml) instead of the --kind/--rate/--sigma whole-tensor fault",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list the built-in scenario library (name, surface, kind, sha256) and exit",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the schema'd machine-readable report (includes scenario id/hash), "
        "mirroring audit_cache.py --json",
    )
    parser.add_argument(
        "--synthetic",
        metavar="DIR",
        default=None,
        help="build a synthetic model under DIR and run against it "
        "(use when the cache has no valid artifacts, e.g. the seed cache)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the run's metrics registry (JSON) to this path",
    )
    parser.add_argument(
        "--metrics-prom",
        default=None,
        help="write the run's metrics in Prometheus text format to this path",
    )
    parser.add_argument(
        "--cache-bytes",
        type=int,
        default=DEFAULT_CACHE_BYTES,
        help="byte budget for the verified-once artifact cache "
        f"(default: {DEFAULT_CACHE_BYTES})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the verified-once artifact cache (every load re-reads and re-validates)",
    )
    args = parser.parse_args(argv)

    # Imported here, not at module top: scenarios imports the injector from
    # this module, so the package level must stay one-directional.
    from .scenarios import builtin_scenarios, resolve_scenarios

    if args.list_scenarios:
        library = builtin_scenarios()
        if args.json:
            payload = {
                "schema": "polygraphmr/scenario-library/v1",
                "scenarios": [
                    {**s.canonical(), "sha256": s.config_hash()} for s in library.values()
                ],
            }
            json.dump(payload, sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            for s in library.values():
                print(f"{s.name}  surface={s.surface} kind={s.kind} target={s.target}  sha256={s.config_hash()[:12]}")
        return 0

    scenario = None
    try:
        if args.scenario is not None:
            scenario = resolve_scenarios([args.scenario])[0]
            spec = scenario.fault(args.seed)
        else:
            spec = FaultSpec(kind=args.kind, rate=args.rate, sigma=args.sigma, seed=args.seed)
        cache = None if args.no_cache else ArtifactCache(args.cache_bytes)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.synthetic is not None:
        build_synthetic_model(args.synthetic, seed=args.seed)
        store = ArtifactStore(args.synthetic, cache=cache)
    else:
        store = ArtifactStore(args.cache, cache=cache)
    models = [args.model] if args.model else store.models()
    reports = []
    for model in models:
        try:
            reports.append(measure_degradation(store, model, spec, baselines=True))
        except Exception as exc:  # noqa: BLE001 - CLI reports, never crashes the sweep
            reports.append({"model": model, "error": repr(exc)})
    registry = get_registry()
    if args.metrics_out:
        registry.write_json(args.metrics_out)
    if args.metrics_prom:
        registry.write_prometheus(args.metrics_prom)
    if args.json:
        payload = {
            "schema": "polygraphmr/faults-report/v1",
            "scenario": None
            if scenario is None
            else {"name": scenario.name, "sha256": scenario.config_hash(), **scenario.canonical()},
            "fault": spec.describe(),
            "reports": reports,
        }
        json.dump(payload, sys.stdout, indent=2)
    else:
        json.dump({"reports": reports}, sys.stdout, indent=2)
    sys.stdout.write("\n")
    usable = [r for r in reports if "error" not in r]
    return 0 if usable else 1


if __name__ == "__main__":
    raise SystemExit(main())
