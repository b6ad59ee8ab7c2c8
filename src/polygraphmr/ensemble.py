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

A runtime instance (store + breaker board + memoised decision gates) is
mutable state and must stay within one process: multiprocess campaign
workers each build their own runtime after ``fork`` via
:class:`polygraphmr.campaign.TrialExecutor` rather than inherit the
parent's.  :meth:`EnsembleRuntime.fit_gate` fits each member set's gate once
per val-artifact identity, and :meth:`EnsembleRuntime.clean_baseline`
scores each gate's clean test split once per test-artifact identity (its
entry also holds the fault module's per-dtype references of the sanitized
clean split); discarding the runtime discards both memos.

The store the runtime drives may carry a verified-once
:class:`~polygraphmr.cache.ArtifactCache`: the probability arrays it serves
are then shared read-only across trials.  That is safe here because
``assemble`` copies members into its stacked tensor (``np.stack``) and
never writes to a loaded array in place.  The stacked tensor is read-only too: ``assemble`` hands
out the previous stack of a split again while its members are the very
same cached arrays, and :meth:`EnsembleRuntime.member_plan` reuses the
roster it scanned while the model directory lists the same files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .breaker import BreakerBoard
from .cache import is_file, stat_signature
from .decision import DetectionMetrics, LogisticDecisionModule, ensemble_features, misprediction_targets
from .errors import ConfigError, DegradedEnsemble
from .metrics import get_registry
from .store import ArtifactStore

__all__ = ["EnsembleBatch", "ModelSession", "CleanBaseline", "EnsembleRuntime"]


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
    # split (faults.FaultReference): memoised here, so the key that
    # invalidates this baseline invalidates them too
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


def _restack(batch: EnsembleBatch, members: list[str]) -> np.ndarray:
    """``batch``'s stack over ``members``: the stack itself when it already
    holds exactly those members in that order, else one re-indexed copy."""

    if batch.members == members:
        return batch.stacked
    return batch.stacked[[batch.members.index(s) for s in members]]


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
        # fitted gates: (model, members) -> (val artifact identity, gate)
        self._gates: dict[tuple, tuple[tuple, LogisticDecisionModule]] = {}
        # clean test baselines, one per model: model -> ((members, test
        # artifact identity), the gate that scored it, baseline)
        self._baselines: dict[str, tuple[tuple, LogisticDecisionModule, CleanBaseline]] = {}
        # default member plans: model -> (directory listing, plan)
        self._plans: dict[str, tuple[frozenset, list[str]]] = {}
        # the last stack per split: split -> (model, members, arrays, stack)
        self._stacks: dict[str, tuple[str, list[str], list[np.ndarray], np.ndarray]] = {}

    # -- assembly --------------------------------------------------------

    def member_plan(self, model: str) -> list[str]:
        """Which stems to attempt: every stem with artifacts on disk, ORG
        first.

        Deliberately *not* restricted to already-valid artifacts: a stem
        whose files exist but are corrupt stays in the plan so the session
        reports it quarantined instead of silently pretending the ensemble
        was never bigger.

        The plan depends only on which files the model directory holds, so
        it is memoised on the directory listing: a repeat call costs one
        ``listdir``, not a roster scan.  (The scan also counts files this
        store quarantined and that were deleted since; deleting them
        changes the listing too.)"""

        try:
            listing = frozenset(os.listdir(self.store.model_dir(model)))
        except OSError:
            listing = None
        memo = self._plans.get(model)
        if listing is not None and memo is not None and memo[0] == listing:
            return list(memo[1])
        # ORG first: feature layout and targets rely on it
        plan = ["ORG"] + [s for s in self.store.scan_model(model).present_stems() if s != "ORG"]
        if listing is not None:
            self._plans[model] = (listing, plan)
        return list(plan)

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
        """``np.stack(arrays)``, read-only; the split's previous stack when it
        was built for the same model and members from these very array
        objects.  Cached loads return one shared read-only array per file
        identity, so a repeat trial reuses its stack; an uncached store
        loads fresh arrays and always restacks."""

        memo = self._stacks.get(split)
        if (
            memo is not None
            and memo[0] == model
            and memo[1] == members
            and all(a is b for a, b in zip(memo[2], arrays))
        ):
            return memo[3]
        stacked = np.stack(arrays, axis=0)
        stacked.flags.writeable = False
        self._stacks[split] = (model, members, arrays, stacked)
        get_registry().counter("ensemble_stacks_total", split=split).inc()
        return stacked

    # -- the fitted session ---------------------------------------------

    def _split_identity(self, model: str, members: list[str], split: str) -> tuple | None:
        """Stat signatures of the members' ``split`` probs and the ``split``
        labels — the artifact cache's notion of file identity — or ``None``
        when a file cannot be statted."""

        paths = [self.store.probs_path(model, s, split) for s in members]
        sigs = tuple(stat_signature(p) for p in [*paths, self.store.labels_path(model, split)])
        return None if None in sigs else sigs

    def fit_gate(self, model: str, members: list[str], val_stack: np.ndarray) -> LogisticDecisionModule | None:
        """The decision gate for ``members``, fitted on their ``val`` stack;
        ``None`` when ORG is absent or the val labels are missing or do not
        match the split.

        ``val_stack`` must be those members' ``val`` artifacts as this
        runtime's store loaded them: the fit is a pure function of (model,
        members, val files, val labels), so the gate is memoised on
        the files' identity and fitted once per member set until a file
        changes.  Callers share the returned gate and must not mutate it.
        """

        val_labels = self.store.load_labels(model, "val")
        if val_labels is None or "ORG" not in members or len(val_labels) != val_stack.shape[1]:
            return None
        key = (model, tuple(members))
        identity = self._split_identity(model, members, "val")
        memo = self._gates.get(key)
        if memo is not None and memo[0] == identity:
            return memo[1]
        module = LogisticDecisionModule()
        org_val = val_stack[members.index("ORG")]
        module.fit(ensemble_features(val_stack), misprediction_targets(org_val, val_labels))
        if identity is not None:
            self._gates[key] = (identity, module)
        return module

    def clean_baseline(self, session: ModelSession) -> CleanBaseline:
        """The clean ``test`` split of ``session`` scored by its gate: the
        features, misprediction targets, flags and metrics every fault is
        measured against.  Needs the gate and the test labels.

        A pure function of (members, their test files, test labels, gate),
        so it is memoised on the member set, the test files' identity and
        the gate object itself — a refitted gate is a miss.  Each model
        keeps one entry: a new member set replaces the old one, so breaker
        churn over member subsets cannot grow the memo.  Callers share the
        returned arrays, which are read-only.
        """

        split = self._split_identity(session.model, session.members, "test")
        identity = None if split is None else (tuple(session.members), split)
        memo = self._baselines.get(session.model)
        if memo is not None and memo[0] == identity and memo[1] is session.module:
            return memo[2]
        baseline = _score_clean(session)
        if identity is not None:
            self._baselines[session.model] = (identity, session.module, baseline)
        return baseline

    def session(self, model: str, members: list[str] | None = None) -> ModelSession:
        """Assemble both splits of ``model`` and fit its decision gate.

        Members are the intersection of the val and test survivors, so the
        feature layout is identical at fit and eval time.  Raises
        :class:`DegradedEnsemble` when fewer than ``min_members`` survive on
        either split or in their intersection.
        """

        plan = members if members is not None else self.member_plan(model)
        val = self.assemble(model, "val", members=plan)
        test = self.assemble(model, "test", members=plan)
        common = [s for s in val.members if s in set(test.members)]
        if len(common) < self.min_members:
            raise DegradedEnsemble(model, common, self.min_members)
        val_stack, test_stack = _restack(val, common), _restack(test, common)
        quarantined = {**val.quarantined, **test.quarantined}
        test_labels = self.store.load_labels(model, "test")
        if test_labels is not None and len(test_labels) != test_stack.shape[1]:
            test_labels = None
        return ModelSession(
            model=model,
            members=common,
            val_stack=val_stack,
            test_stack=test_stack,
            module=self.fit_gate(model, common, val_stack),
            missing=sorted(s for s in plan if s not in common and s not in quarantined),
            quarantined=quarantined,
            test_labels=test_labels,
        )
