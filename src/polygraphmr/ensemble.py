"""Graceful-degradation ensemble runtime.

Assembles whatever submodel artifacts validated into a stacked probability
tensor and fits the decision module on ``val``.  :meth:`EnsembleRuntime.session`
is the one builder of that fitted state, and two programs evaluate the
:class:`ModelSession` it returns: the fault-degradation measurement (the
campaign and ``python -m polygraphmr.faults``, through
:func:`~polygraphmr.faults.prepare_degradation` and
:meth:`EnsembleRuntime.clean_baseline`) and the serving gateway (through
:meth:`ModelSession.evaluate`).  A model with quarantined or missing members
still yields a session — its ``missing`` and ``quarantined`` name the
members that dropped out — and only when fewer than ``min_members`` survive
does it raise :class:`DegradedEnsemble`.

A runtime instance (store + breaker board + one shared trial state per
model) is mutable state and must stay within one process: multiprocess
campaign workers each build their own runtime after ``fork`` via
:class:`polygraphmr.campaign.TrialExecutor` rather than inherit the
parent's.  :meth:`EnsembleRuntime.session` reuses a model's gate and
clean baseline (with the fault module's per-dtype references) while the
store serves the same arrays for the same member set.

The store the runtime drives may carry a verified-once
:class:`~polygraphmr.cache.ArtifactCache`: the probability arrays it serves
are then shared read-only across trials.  That is safe here because
``assemble`` copies members into its stacked tensor (``np.stack``) and
never writes to a loaded array in place.  The stacked tensor is read-only
too: ``assemble`` hands out a model's previous stack of a split again
while the store serves the same arrays for its members.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .breaker import BreakerBoard
from .cache import is_file
from .decision import DetectionMetrics, LogisticDecisionModule, ensemble_features, misprediction_targets
from .errors import ConfigError, DegradedEnsemble
from .metrics import get_registry
from .store import ArtifactStore

__all__ = ["EnsembleBatch", "ModelSession", "CleanBaseline", "EnsembleRuntime", "fit_gate"]


@dataclass
class EnsembleBatch:
    """Stacked, validated probability tensors for one model and split."""

    model: str
    split: str
    members: list[str]  # stems, ORG first when present
    stacked: np.ndarray  # (M, N, C)
    missing: list[str] = field(default_factory=list)
    quarantined: dict[str, str] = field(default_factory=dict)  # stem -> reason


@dataclass
class ModelSession:
    """Fitted evaluation state for one (model, member set).

    Built by :meth:`EnsembleRuntime.session`: both splits stacked over the
    same members (ORG first when it survived), the decision gate fitted on
    ``val``, and the ``test`` labels when they match the split.  Every
    evaluation against it is then pure numpy on the resident tensors.
    """

    model: str
    members: list[str]
    val_stack: np.ndarray  # (M, N_val, C)
    test_stack: np.ndarray  # (M, N_test, C)
    module: LogisticDecisionModule | None  # None without ORG or usable val labels
    missing: list[str]
    quarantined: dict[str, str]
    test_labels: np.ndarray | None = None  # None when missing or not sized to the split

    @property
    def degraded(self) -> bool:
        return bool(self.missing or self.quarantined)

    @property
    def n_samples(self) -> int:
        return int(self.test_stack.shape[1])

    @property
    def n_classes(self) -> int:
        return int(self.test_stack.shape[2])

    def test_targets(self, stack: np.ndarray | None = None) -> np.ndarray:
        """1 where ORG mispredicts a test sample, read from ``stack`` (a
        faulted copy of ``test_stack``; the clean one by default).  Needs ORG
        and ``test_labels``."""

        stack = self.test_stack if stack is None else stack
        return misprediction_targets(stack[self.members.index("ORG")], self.test_labels)

    def evaluate(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mean probs, ensemble predictions, and decision flags for ``indices``.

        Per-sample math throughout (member-mean, argmax, features, logistic
        predict with frozen standardisation stats), so evaluating a
        concatenation and slicing equals evaluating each slice directly —
        bit for bit.
        """

        sub = self.test_stack[:, indices, :]  # (M, k, C)
        probs = sub.mean(axis=0)
        predictions = probs.argmax(axis=1)
        if self.module is not None:
            flags = self.module.predict(ensemble_features(sub))
        else:
            flags = np.zeros(len(indices), dtype=np.int64)
        return probs, predictions, flags


@dataclass(frozen=True)
class CleanBaseline:
    """A gate's scores on the clean ``test`` split of one (model, member
    set), built by :meth:`EnsembleRuntime.clean_baseline`."""

    features: np.ndarray  # (N_test, 6): decision.FEATURE_NAMES per test row
    targets: np.ndarray  # 1 where ORG mispredicts
    flags: np.ndarray  # the gate's decision flags
    metrics: DetectionMetrics
    # per fault dtype, the faults module's reference of the sanitized clean
    # split (faults.FaultReference): kept here, so whatever rescores this
    # baseline drops them too
    references: dict = field(default_factory=dict, compare=False, repr=False)


def _score_clean(session: ModelSession) -> CleanBaseline:
    module = session.module
    features = ensemble_features(session.test_stack)
    targets = session.test_targets()
    scores = module.predict_proba(features)
    flags = module.flag(scores)
    for array in (features, targets, flags):
        array.flags.writeable = False
    return CleanBaseline(features, targets, flags, module.evaluate(scores, targets))


def fit_gate(
    members: list[str], val_stack: np.ndarray, val_labels: np.ndarray | None
) -> LogisticDecisionModule | None:
    """A decision gate for ``members``, fitted on their ``val`` stack;
    ``None`` when ORG is absent or the val labels are missing or do not
    match the split.  Unmemoised: a runtime's sessions share their model's
    gate, and the gateway keeps the sessions it derives."""

    if val_labels is None or "ORG" not in members or len(val_labels) != val_stack.shape[1]:
        return None
    module = LogisticDecisionModule()
    org_val = val_stack[members.index("ORG")]
    module.fit(ensemble_features(val_stack), misprediction_targets(org_val, val_labels))
    return module


def _restack(batch: EnsembleBatch, members: list[str]) -> np.ndarray:
    """``batch``'s stack over ``members``: the stack itself when it already
    holds exactly those members in that order, else one re-indexed copy."""

    if batch.members == members:
        return batch.stacked
    return batch.stacked[[batch.members.index(s) for s in members]]


def _same_split(held: tuple, served: tuple) -> bool:
    """Whether ``served`` (assembled stack, labels) is ``held``: the same
    stack object (:meth:`EnsembleRuntime._stack` decides when the probs are
    the same) and the same labels, by identity or, uncached, by value."""

    (stack, labels), (new_stack, new_labels) = held, served
    # array_equal is False for None against an array: labels are 1-D
    return new_stack is stack and (new_labels is labels or np.array_equal(labels, new_labels))


@dataclass
class _SharedState:
    """What the trials of one model share while the store serves the same
    arrays for the same member set: per split, the key and its stack over
    ``members``; the gate fitted on ``val``; and the clean baseline of
    ``test`` once :meth:`EnsembleRuntime.clean_baseline` scores it."""

    members: list[str]
    val: tuple[np.ndarray, np.ndarray | None]  # (assembled stack, labels)
    test: tuple[np.ndarray, np.ndarray | None]
    val_stack: np.ndarray  # val over ``members``
    test_stack: np.ndarray
    gate: LogisticDecisionModule | None
    baseline: CleanBaseline | None = None


def check_min_members(min_members: int) -> None:
    """Refuse a ``min_members`` below 1: an ensemble of no members has no
    stack to assemble, so the refusal names the field here instead of a
    bare ``ValueError`` on the first request or trial."""

    if min_members < 1:
        raise ConfigError("ensemble.min_members", "out-of-range", f"must be >= 1, got {min_members!r}")


class EnsembleRuntime:
    """Drives assemble → fit → score over an :class:`ArtifactStore`."""

    def __init__(
        self,
        store: ArtifactStore,
        *,
        min_members: int = 2,
        breakers: BreakerBoard | None = None,
    ):
        check_min_members(min_members)
        self.store = store
        self.min_members = min_members
        self.breakers = breakers
        # one shared trial state per model (see ``session``)
        self._shared: dict[str, _SharedState] = {}
        # the last stack per model and split: (model, split) -> (members, arrays, stack)
        self._stacks: dict[tuple[str, str], tuple[list[str], list[np.ndarray], np.ndarray]] = {}

    # -- assembly --------------------------------------------------------

    def member_plan(self, model: str) -> list[str]:
        """Which stems to attempt: ORG, then every other stem with an
        artifact file in the model directory
        (:meth:`~polygraphmr.store.ArtifactStore.listed_stems`).

        Deliberately *not* restricted to valid artifacts: a stem whose
        files exist but are corrupt stays in the plan so the session
        reports it quarantined instead of silently pretending the ensemble
        was never bigger."""

        # ORG first: feature layout and targets rely on it
        return ["ORG"] + [s for s in self.store.listed_stems(model) if s != "ORG"]

    def assemble(self, model: str, split: str, *, members: list[str] | None = None) -> EnsembleBatch:
        """Load every planned member's probs for ``split``; quarantine, don't crash.

        Raises :class:`DegradedEnsemble` only when fewer than ``min_members``
        members survive validation (ORG included).

        When a :class:`~polygraphmr.breaker.BreakerBoard` is attached, a
        member whose breaker is open is skipped without touching the disk
        (reported quarantined as ``"circuit-open"``), and every corrupt load
        feeds the breaker.  Missing files do not trip breakers — a ``stat``
        is cheap; the breaker exists to avoid re-reading corrupt bytes.
        """

        registry = get_registry()
        plan = members if members is not None else self.member_plan(model)
        loaded: dict[str, np.ndarray] = {}
        missing: list[str] = []
        quarantined: dict[str, str] = {}
        n_shape: tuple[int, ...] | None = None
        for stem in plan:
            if self.breakers is not None and not self.breakers.allow(model, stem):
                quarantined[stem] = "circuit-open"
                registry.counter("ensemble_member_skips_total", reason="circuit-open").inc()
                continue
            path = self.store.probs_path(model, stem, split)
            if not is_file(path):
                missing.append(stem)
                registry.counter("ensemble_member_skips_total", reason="missing").inc()
                continue
            probs = self.store.try_load_probs(model, stem, split)
            if probs is None and not self.store.is_quarantined(path):
                # retries ran out: one more round, so one exhausted read costs no member
                probs = self.store.try_load_probs(model, stem, split)
            if probs is None:
                # not quarantined: the read failed, and only this session loses the member
                quarantined[stem] = self.store.quarantine.get(str(path), "io-error")
                registry.counter("ensemble_member_skips_total", reason="quarantined").inc()
                if self.breakers is not None:
                    self.breakers.record_failure(model, stem)
                continue
            if n_shape is not None and probs.shape != n_shape:
                quarantined[stem] = "probs-shape-disagrees"
                self.store.quarantine[str(path)] = "probs-shape-disagrees"
                registry.counter("ensemble_member_skips_total", reason="shape-disagrees").inc()
                if self.breakers is not None:
                    self.breakers.record_failure(model, stem)
                continue
            n_shape = probs.shape if n_shape is None else n_shape
            loaded[stem] = probs
            if self.breakers is not None:
                self.breakers.record_success(model, stem)
        survivors = [s for s in plan if s in loaded]
        registry.counter(
            "ensemble_assemble_total", degraded="true" if (missing or quarantined) else "false"
        ).inc()
        if len(survivors) < self.min_members:
            raise DegradedEnsemble(model, survivors, self.min_members)
        return EnsembleBatch(
            model=model,
            split=split,
            members=survivors,
            stacked=self._stack(model, split, survivors, [loaded[s] for s in survivors]),
            missing=missing,
            quarantined=quarantined,
        )

    def _stack(self, model: str, split: str, members: list[str], arrays: list[np.ndarray]) -> np.ndarray:
        """``np.stack(arrays)``, read-only; the model's previous stack of
        ``split`` when the store served the same arrays for the same
        members.  This is the one place that decides it: cached arrays by
        identity, before stacking; an uncached store's fresh copies by
        value, dropping the new stack for the previous one when they are
        equal, so the stack object stands for what the store served."""

        memo = self._stacks.get((model, split))
        same_members = memo is not None and memo[0] == members
        if same_members and all(a is b for a, b in zip(memo[1], arrays)):
            return memo[2]
        stacked = np.stack(arrays, axis=0)
        get_registry().counter("ensemble_stacks_total", split=split).inc()
        if same_members and np.array_equal(memo[2], stacked):
            stacked = memo[2]
        stacked.flags.writeable = False
        self._stacks[(model, split)] = (members, arrays, stacked)
        return stacked

    # -- the fitted session ---------------------------------------------

    def clean_baseline(self, session: ModelSession) -> CleanBaseline:
        """The clean ``test`` split of ``session`` scored by its gate: the
        features, misprediction targets, flags and metrics every fault is
        measured against.  Needs the gate and the test labels.

        Scored once while the model's entry (see :meth:`session`) holds
        this session's gate, test stack and test labels.  Callers share the
        returned arrays, which are read-only.
        """

        shared = self._shared.get(session.model)
        if (
            shared is None
            or shared.gate is not session.module
            or shared.test_stack is not session.test_stack
            or shared.test[1] is not session.test_labels
        ):
            return _score_clean(session)
        if shared.baseline is None:
            shared.baseline = _score_clean(session)
        return shared.baseline

    def session(self, model: str, members: list[str] | None = None) -> ModelSession:
        """Assemble both splits of ``model`` and fit its decision gate.

        Members are the intersection of the val and test survivors, so the
        feature layout is identical at fit and eval time.  Raises
        :class:`DegradedEnsemble` when fewer than ``min_members`` survive on
        either split or in their intersection.

        One reuse rule: the model's entry keeps its gate while ``assemble``
        returns the same val stack (see :meth:`_stack`) and the store the
        same val labels (:func:`_same_split`) for the same members, and its
        clean baseline while the same holds for test, so a gate is never
        paired with values it was not fitted on.  A new member set replaces
        the entry, so breaker churn cannot grow it.
        """

        plan = members if members is not None else self.member_plan(model)
        val = self.assemble(model, "val", members=plan)
        test = self.assemble(model, "test", members=plan)
        common = [s for s in val.members if s in set(test.members)]
        if len(common) < self.min_members:
            raise DegradedEnsemble(model, common, self.min_members)
        quarantined = {**val.quarantined, **test.quarantined}
        test_labels = self.store.load_labels(model, "test")
        if test_labels is not None and len(test_labels) != test.stacked.shape[1]:
            test_labels = None
        val_key = (val.stacked, self.store.load_labels(model, "val"))
        test_key = (test.stacked, test_labels)
        shared = self._shared.get(model)
        if shared is None or shared.members != common or not _same_split(shared.val, val_key):
            val_stack = _restack(val, common)
            shared = self._shared[model] = _SharedState(
                common, val_key, test_key, val_stack, _restack(test, common), fit_gate(common, val_stack, val_key[1])
            )
        elif not _same_split(shared.test, test_key):
            shared.test, shared.test_stack, shared.baseline = test_key, _restack(test, common), None
        return ModelSession(
            model=model,
            members=common,
            val_stack=shared.val_stack,
            test_stack=shared.test_stack,
            module=shared.gate,
            missing=sorted(s for s in plan if s not in common and s not in quarantined),
            quarantined=quarantined,
            test_labels=shared.test[1],
        )
