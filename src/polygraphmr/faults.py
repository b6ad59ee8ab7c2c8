"""MRFI-style multi-resolution fault-injection harness.

One seeded, reproducible tensor injector plus artifact-level damage:

* **Tensor faults** — :func:`apply_fault_batch` is the one surface × fault
  model injector (MRFI).  A surface selects the cells (a ``rate`` fraction
  of the whole tensor, a ``rate`` fraction of last-axis channels, or
  ``count`` addressed elements); a fault model perturbs them (IEEE-754
  bit-flip, additive gaussian, quantization rounding, stuck-at-0/1).  It
  takes a leading batch axis with one seed per slice, and a single tensor
  is a batch of one (``arr[None]``).  The declarative
  :mod:`polygraphmr.scenarios` subsystem drives it; :class:`FaultSpec`, the
  legacy ``--kind/--rate/--sigma`` sweep's fault, drives it for bit-flips
  and keeps its own whole-tensor gaussian noise.
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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cache import DEFAULT_CACHE_BYTES, ArtifactCache
from .decision import DetectionMetrics, baseline_aucs, ensemble_features
from .ensemble import EnsembleRuntime, ModelSession
from .errors import ConfigError
from .metrics import get_registry
from .store import ArtifactStore

__all__ = [
    "SURFACES",
    "FAULT_MODELS",
    "FAULT_SPEC_KINDS",
    "FaultSpec",
    "select_fault_indices",
    "apply_fault_batch",
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

    def apply_batch(self, stacked: np.ndarray, *, seeds=None) -> np.ndarray:
        """Inject this fault into every slice of ``stacked``; ``out[b]``
        depends only on ``stacked[b]`` and ``seeds[b]``, so a single tensor
        is a batch of one (``spec.apply_batch(arr[None])[0]``).  ``seeds``
        defaults to ``self.seed`` for every batch slice (the members of one
        trial share its seed); the input is never mutated.

        ``bitflip`` flips one random bit in a ``rate`` fraction of the
        slice's float32 elements; ``gaussian`` adds N(0, sigma) noise to
        every element (float64)."""

        stacked = np.asarray(stacked)
        if stacked.ndim < 2:
            raise ConfigError("fault.batch", "bad-shape", f"need a batch axis, got shape {stacked.shape}")
        seeds = _batch_seeds(self.seed, stacked.shape[0], seeds)
        if self.kind == "bitflip":
            # the legacy whole-tensor bitflip is exactly the tensor-surface
            # bitflip: the same (choice, integers) draws, and no draw at all
            # when the rate rounds to zero hits
            return apply_fault_batch(stacked, surface="tensor", kind="bitflip", rate=self.rate, seeds=seeds)
        # legacy gaussian noise covers the *whole* tensor (no index
        # selection), a stream no surface draws, so it keeps its own path
        out = np.array(stacked, dtype=np.float64, order="C")
        noise_for: dict[int, np.ndarray] = {}
        for b, seed in enumerate(seeds):
            noise = noise_for.get(seed)
            if noise is None:
                rng = np.random.default_rng(seed)
                noise = noise_for[seed] = rng.normal(0.0, self.sigma, size=out.shape[1:])
            out[b] += noise
        return out

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


def _batch_seeds(default: int, n: int, seeds) -> list[int]:
    if seeds is None:
        return [int(default)] * n
    seeds = [int(s) for s in seeds]
    if len(seeds) != n:
        raise ConfigError(
            "fault.seeds", "bad-shape", f"got {len(seeds)} seeds for a batch of {n}"
        )
    return seeds


def apply_fault_batch(
    stacked: np.ndarray,
    *,
    surface: str,
    kind: str,
    rate: float = 0.0,
    sigma: float = 0.0,
    step: float = 0.0,
    count: int = 0,
    seeds,
) -> np.ndarray:
    """One surface × fault-model injection into every slice of a batch;
    returns a new array, the input is never mutated.

    ``bitflip`` flips one random IEEE-754 bit per selected float32 element;
    ``gaussian`` adds N(0, sigma) to the selected elements; ``quantize``
    snaps them to the nearest multiple of ``step`` (a storage-grid rounding
    perturbation, e.g. ``step=1/16`` ≈ 4-bit cells); ``stuck0``/``stuck1``
    clamp them to 0.0 / 1.0.  The surface decides *which* elements those
    are (:func:`select_fault_indices`, on one slice's shape).

    ``out[b]`` depends only on ``stacked[b]`` and ``seeds[b]``: slice
    ``b`` draws its selection, then its bit positions or noise values, from
    ``np.random.default_rng(seeds[b])``, so a single tensor is a batch of
    one (``arr[None]``) and any batch equals its slices run one by one.
    Draws are memoized per *unique* seed, which makes the members of one
    trial (one seed) draw once, not once per member; the dtype conversion
    (in the one copy) and the element mutations run as single vectorized
    operations across the whole batch.
    """

    stacked = np.asarray(stacked)
    if stacked.ndim < 2:
        raise ConfigError("fault.batch", "bad-shape", f"need a batch axis, got shape {stacked.shape}")
    n_batch = stacked.shape[0]
    seeds = _batch_seeds(0, n_batch, seeds)
    # one C-ordered copy, converting the dtype on the way: the flat view
    # below writes through to it
    if kind == "bitflip":
        out = np.array(stacked, dtype=np.float32, order="C")
    elif kind in ("gaussian", "quantize", "stuck0", "stuck1"):
        out = np.array(stacked, dtype=np.float64, order="C")
    else:
        raise ConfigError("scenario.kind", "unknown-kind", f"got {kind!r}; known kinds: {', '.join(FAULT_MODELS)}")
    if n_batch == 0 or out[0].size == 0:
        return out

    # each unique seed's draw sequence: selection first, then the values
    draws: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
    for seed in seeds:
        if seed in draws:
            continue
        rng = np.random.default_rng(seed)
        idx = select_fault_indices(out.shape[1:], surface, rate=rate, count=count, rng=rng)
        vals: np.ndarray | None = None
        if idx.size:
            if kind == "bitflip":
                vals = rng.integers(0, 32, size=idx.size, dtype=np.uint32)
            elif kind == "gaussian":
                vals = rng.normal(0.0, sigma, size=idx.size)
        draws[seed] = (idx, vals)

    if not draws[seeds[0]][0].size:
        # selection count is shape-determined, so it is empty for every seed
        return out

    flat = out.reshape(n_batch, -1)
    idx_all = np.stack([draws[s][0] for s in seeds], axis=0)
    batch_rows = np.arange(n_batch)[:, None]
    if kind == "bitflip":
        bits_all = np.stack([draws[s][1] for s in seeds], axis=0)
        flat.view(np.uint32)[batch_rows, idx_all] ^= np.uint32(1) << bits_all
    elif kind == "gaussian":
        noise_all = np.stack([draws[s][1] for s in seeds], axis=0)
        flat[batch_rows, idx_all] += noise_all
    elif kind == "quantize":
        flat[batch_rows, idx_all] = np.round(flat[batch_rows, idx_all] / step) * step
    elif kind == "stuck0":
        flat[batch_rows, idx_all] = 0.0
    else:
        flat[batch_rows, idx_all] = 1.0
    return out


def sanitize_probs_batch(arr: np.ndarray) -> np.ndarray:
    """Repair faulted probability rows so downstream code keeps running:
    non-finite → 0, clip to [0, 1], renormalise rows (uniform if a row dies).

    Rows live on the *last* axis and every step is per-row, so any number of
    leading batch axes (members, trials) may ride along."""

    # the one copy (converting float32 on the way); every step after it
    # works in place, so the input is never written
    out = np.array(arr, dtype=np.float64, order="C")
    np.copyto(out, 0.0, where=~np.isfinite(out))
    np.clip(out, 0.0, 1.0, out=out)
    sums = out.sum(axis=-1, keepdims=True)
    dead = sums <= 0.0
    if dead.any():
        np.copyto(out, 1.0 / out.shape[-1], where=dead)
        sums[dead] = 1.0
    out /= sums
    return out


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
    features, flags and metrics.  Prepared once and shared across every
    fault evaluated against the same (model, breaker-steady) state — the
    batch kernel's amortized work; :func:`degradation_report` supplies the
    per-fault half.

    The session's gate comes from the runtime's
    :meth:`~polygraphmr.ensemble.EnsembleRuntime.fit_gate` memo, fitted once
    per (member set, artifact identity) rather than once per context, and
    the clean fields from its
    :meth:`~polygraphmr.ensemble.EnsembleRuntime.clean_baseline` memo, so
    every context of that runtime shares them and none may write to them."""

    session: ModelSession
    clean_features: np.ndarray
    clean_targets: np.ndarray
    clean_flags: np.ndarray
    clean: DetectionMetrics


def prepare_degradation(
    store: ArtifactStore,
    model: str,
    *,
    members: list[str] | None = None,
    runtime: EnsembleRuntime | None = None,
    tick: bool = True,
) -> DegradationContext:
    """Build the model's :meth:`~polygraphmr.ensemble.EnsembleRuntime.session`
    and measure its clean baseline.

    Raises ``ValueError`` when ORG did not survive or the labels are missing
    or not sized to their split.  Without ``runtime`` a fresh one is built.
    The session is assembled
    afresh on every call (its breaker calls are per-trial history), while
    the clean baseline comes from the runtime's
    :meth:`~polygraphmr.ensemble.EnsembleRuntime.clean_baseline` memo.

    ``tick=False`` skips the breaker-board tick — the batch kernel ticks
    once per *trial* itself, so its one shared context prep must not
    advance the board.
    """

    if runtime is None:
        runtime = EnsembleRuntime(store)
    if tick and runtime.breakers is not None:
        runtime.breakers.tick()
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
    )


def degradation_report(ctx: DegradationContext, spec, *, baselines: bool = False) -> dict:
    """Evaluate one fault against a prepared context: inject → sanitize →
    features → predict → evaluate.  Every trial runs through here, probe or
    batched, so one trial's arrays are live at a time and stay
    cache-resident; the faulted stack is dropped before the gate computes
    its scores.

    ``baselines=True`` adds a ``baselines`` stanza (see
    :func:`_baselines_stanza`); campaigns leave it off, so journal bytes do
    not depend on it."""

    module = ctx.session.module
    if getattr(spec, "target", "probs") == "weights":
        # the gate is shared by every trial of the runtime, so the faulted
        # weights go on a shallow copy and the shared gate is never written
        faulted_gate = copy.copy(module)
        faulted_gate.w = np.asarray(spec.apply_batch(module.w[None])[0], dtype=np.float64)
        features, targets = ctx.clean_features, ctx.clean_targets
        scores = faulted_gate.predict_proba(features)
    else:
        faulted_stack = sanitize_probs_batch(spec.apply_batch(ctx.session.test_stack))
        targets = ctx.session.test_targets(faulted_stack)
        features = ensemble_features(faulted_stack)
        del faulted_stack
        scores = module.predict_proba(features)
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
    ``apply_batch(stacked, *, seeds=None)``, ``describe()``, a ``seed``
    attribute, and (optionally) a ``target`` attribute.

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

    # Imported here, not at module top: scenarios imports apply_fault_batch from
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

    cache = None if args.no_cache else ArtifactCache(args.cache_bytes)
    if args.synthetic is not None:
        build_synthetic_model(args.synthetic, seed=args.seed)
        store = ArtifactStore(args.synthetic, cache=cache)
    else:
        store = ArtifactStore(args.cache, cache=cache)

    scenario = None
    if args.scenario is not None:
        try:
            scenario = resolve_scenarios([args.scenario])[0]
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        spec = scenario.fault(args.seed)
    else:
        spec = FaultSpec(kind=args.kind, rate=args.rate, sigma=args.sigma, seed=args.seed)
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
        prom = Path(args.metrics_prom)
        prom.parent.mkdir(parents=True, exist_ok=True)
        prom.write_text(registry.to_prometheus(), encoding="utf-8")
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
