"""Crash-safe, resumable fault-injection campaign runner.

A reliability evaluation worth trusting takes thousands of configured
injection trials (MRFI-style), which makes the *evaluation loop itself* the
availability bottleneck: a sweep that dies at trial 4 312 of 5 000 must not
lose everything, and a hung trial must not stall the fleet.  This runner is
built around three guarantees:

* **Tamper-evident write-ahead journal** — every trial outcome is one
  append-only JSONL record, sealed with a SHA-256 over its canonical JSON
  and hash-chained to its predecessor (:mod:`polygraphmr.journal`, format
  v4).  Trials run one at a time and are journalled in windows of 16
  trials per model (:mod:`polygraphmr.batching`); each finished window is
  flushed and fsynced in index order, so a crash loses at most the
  unflushed window — which ``--resume`` re-runs to identical bytes — and a
  dropped, reordered, or spliced record anywhere breaks the chain.  ``python -m
  polygraphmr.campaign verify <dir>`` audits a finished (or interrupted)
  campaign end to end: chain walk, checkpoint-sealed head, and a replay of
  every trial spec from the journalled config.
* **Atomic checkpoints** — a small checksummed ``checkpoint.json`` is
  replaced atomically after every flushed window; it seals the journal's
  current chain head + record count, so on resume a journal that lost or
  rewrote committed records is refused.
* **Deterministic trials** — each trial's spec is derived from
  ``(campaign seed, trial index)`` alone, and every trial record is a pure
  function of the trial sub-sequence of its *model* (circuit-breaker boards
  are per model, see :class:`TrialExecutor`), so ``--resume`` replays an
  interrupted campaign *exactly* — and a parallel run
  (:mod:`polygraphmr.parallel`, ``--workers N``) produces a merged journal
  byte-identical to a serial one.

Journal records deliberately carry **no wall-clock data**: timing lives in
the run summary only, so the journal bytes depend on nothing but the config.

A per-trial watchdog bounds each trial's wall-clock; a trial that exceeds it
is journalled as ``trial_timeout`` and the sweep moves on.

Run ``python -m polygraphmr.campaign --help`` for the CLI.
"""

from __future__ import annotations

import argparse
import json
import queue
import signal
import sys
import threading
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .batching import execute_window, plan_windows
from .breaker import BreakerBoard, BreakerPolicy, merge_snapshots, non_closed_in_snapshot
from .cache import DEFAULT_CACHE_BYTES, ArtifactCache
from .ensemble import EnsembleRuntime
from .errors import CampaignError, ConfigError
from .faults import FaultSpec, build_synthetic_model, measure_degradation
from .journal import (
    CHECKPOINT_NAME,
    JOURNAL_NAME,
    JOURNAL_VERSION,
    VERIFIABLE_VERSIONS,
    CampaignJournal,
    CampaignState,
    ChainIssue,
    chain_genesis,
    config_chain_hash,
    load_checkpoint,
    merge_journal,
    read_checkpoint,
    scan_campaign,
    shard_journals,
    shard_name,
    walk_chain,
    write_checkpoint,
)
from .metrics import (
    METRICS_NAME,
    MetricsRegistry,
    get_registry,
    load_registry,
    merge_registries,
    metrics_shards,
)
from .store import ArtifactStore
from .tracing import get_tracer

__all__ = [
    "OUTCOME_OK",
    "OUTCOME_ERROR",
    "OUTCOME_TIMEOUT",
    "CampaignConfig",
    "TrialSpec",
    "TrialExecutor",
    "CampaignJournal",
    "CampaignState",
    "ChainIssue",
    "walk_chain",
    "scan_campaign",
    "shard_name",
    "shard_journals",
    "merge_journal",
    "validate_resume",
    "seal_finding",
    "read_checkpoint",
    "write_checkpoint",
    "checkpoint_payload",
    "config_from_dict",
    "config_genesis",
    "scenarios_config_field",
    "verify_campaign",
    "verify_main",
    "report_campaign",
    "report_main",
    "CampaignRunner",
    "main",
]

OUTCOME_OK = "ok"
OUTCOME_ERROR = "error"
OUTCOME_TIMEOUT = "trial_timeout"


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that defines a campaign; journalled in the header record so
    a resume can refuse to continue under different settings.

    Deliberately *not* part of the config: the worker count.  Parallelism is
    an execution detail — the journal a campaign produces is identical for
    any ``--workers`` value, so resuming with a different worker count is
    legal and exact.
    """

    cache: str
    n_trials: int = 10
    seed: int = 0
    kinds: tuple[str, ...] = ("bitflip", "gaussian")
    rates: tuple[float, ...] = (0.001, 0.01, 0.05)
    sigmas: tuple[float, ...] = (0.02, 0.05, 0.1)
    models: tuple[str, ...] = ()  # empty = every model in the cache
    # declarative scenario sweep: each entry is one scenario's *canonical
    # JSON* (hashable, and exactly the bytes its identity hash covers).
    # Empty = legacy kinds/rates/sigmas sweep.  Build with
    # ``scenarios_config_field``; recover objects with ``scenario_objects``.
    scenarios: tuple[str, ...] = ()
    timeout_s: float = 120.0  # <= 0 disables the watchdog
    allow_salvaged: bool = False
    failure_threshold: int = 3
    cooldown_ticks: int = 2
    min_members: int = 2
    trial_sleep_s: float = 0.0  # artificial per-trial latency (testing aid)

    def to_dict(self) -> dict:
        out = {
            "cache": self.cache,
            "n_trials": self.n_trials,
            "seed": self.seed,
            "kinds": list(self.kinds),
            "rates": list(self.rates),
            "sigmas": list(self.sigmas),
            "models": list(self.models),
            "timeout_s": self.timeout_s,
            "allow_salvaged": self.allow_salvaged,
            "failure_threshold": self.failure_threshold,
            "cooldown_ticks": self.cooldown_ticks,
            "min_members": self.min_members,
            "trial_sleep_s": self.trial_sleep_s,
        }
        if self.scenarios:
            # only present when sweeping scenarios, so legacy campaigns keep
            # journalling the exact same header bytes (and genesis hash)
            out["scenarios"] = [json.loads(s) for s in self.scenarios]
        return out

    def scenario_objects(self) -> tuple:
        """The sweep's :class:`~polygraphmr.scenarios.Scenario` objects,
        re-validated from their canonical JSON (cached per scenario list)."""

        return _scenarios_from_canonical(self.scenarios)

    def breaker_policy(self) -> BreakerPolicy:
        return BreakerPolicy(self.failure_threshold, self.cooldown_ticks)


def scenarios_config_field(scenarios) -> tuple[str, ...]:
    """Encode Scenario objects as the config's canonical-JSON tuple."""

    return tuple(s.canonical_json() for s in scenarios)


@lru_cache(maxsize=32)
def _scenarios_from_canonical(scenarios: tuple[str, ...]) -> tuple:
    from .scenarios import parse_scenario

    return tuple(parse_scenario(json.loads(s)) for s in scenarios)


def config_from_dict(d: dict) -> CampaignConfig:
    """Rebuild a :class:`CampaignConfig` from its journalled ``to_dict``
    form — the auditor's path from a sealed header back to a live config.

    Scenario entries are re-validated and re-canonicalised on the way in,
    so a journalled scenario that no longer parses (or was edited into an
    invalid state) surfaces as :class:`~polygraphmr.errors.ConfigError`
    here rather than as a derivation failure deep in the replay audit."""

    from .scenarios import parse_scenario

    return CampaignConfig(
        cache=d["cache"],
        n_trials=d["n_trials"],
        seed=d["seed"],
        kinds=tuple(d["kinds"]),
        rates=tuple(d["rates"]),
        sigmas=tuple(d["sigmas"]),
        models=tuple(d["models"]),
        scenarios=tuple(
            parse_scenario(s, source="config.scenarios").canonical_json() for s in d.get("scenarios", [])
        ),
        timeout_s=d["timeout_s"],
        allow_salvaged=d["allow_salvaged"],
        failure_threshold=d["failure_threshold"],
        cooldown_ticks=d["cooldown_ticks"],
        min_members=d["min_members"],
        trial_sleep_s=d["trial_sleep_s"],
    )


def config_genesis(config: CampaignConfig) -> str:
    """The canonical journal's chain-genesis hash for this campaign."""

    return chain_genesis(config_chain_hash(config.to_dict()))


@dataclass(frozen=True)
class TrialSpec:
    """One trial's full parameterisation — a pure function of (seed, index).

    In a scenario sweep, ``scenario``/``scenario_sha256`` name the trial's
    scenario and pin its canonical-config identity; ``kind``/``rate``/
    ``sigma`` then mirror the scenario's own parameters (informational —
    the scenario is the source of truth).  Legacy sweeps leave both None
    and their journalled form carries no scenario keys at all, so pre-
    scenario journals stay byte-identical.
    """

    index: int
    model: str
    kind: str
    rate: float
    sigma: float
    fault_seed: int
    scenario: str | None = None
    scenario_sha256: str | None = None

    def to_dict(self) -> dict:
        out = {
            "index": self.index,
            "model": self.model,
            "kind": self.kind,
            "rate": self.rate,
            "sigma": self.sigma,
            "fault_seed": self.fault_seed,
        }
        if self.scenario is not None:
            out["scenario"] = self.scenario
            out["scenario_sha256"] = self.scenario_sha256
        return out


def derive_trial_spec(
    config: CampaignConfig, models: list[str], index: int, *, scenarios=None
) -> TrialSpec:
    """Deterministically derive trial ``index``'s spec.

    Seeded with ``[config.seed, index]`` so any trial can be re-derived in
    isolation — the property that makes resume exact (and lets ``verify``
    replay-check a journal without running a single trial).  A scenario
    sweep draws one scenario from the configured list per trial; the
    scenario's canonical hash rides along in the spec, so the journalled
    record pins *what* was injected, not just which name.

    ``scenarios`` lets a hot loop pass the pre-resolved scenario objects
    (see :meth:`TrialExecutor.derive_spec`) instead of re-resolving the
    config's canonical JSON on every call.
    """

    if not models:
        raise CampaignError("no-models", f"cache {config.cache!r} has no model directories")
    rng = np.random.default_rng([config.seed, index])
    if config.scenarios:
        if scenarios is None:
            scenarios = config.scenario_objects()
        scenario = scenarios[int(rng.integers(len(config.scenarios)))]
        return TrialSpec(
            index=index,
            model=models[index % len(models)],
            kind=scenario.kind,
            rate=float(scenario.rate),
            sigma=float(scenario.sigma),
            fault_seed=int(rng.integers(2**31 - 1)),
            scenario=scenario.name,
            scenario_sha256=scenario.config_hash(),
        )
    return TrialSpec(
        index=index,
        model=models[index % len(models)],
        kind=config.kinds[int(rng.integers(len(config.kinds)))],
        rate=float(config.rates[int(rng.integers(len(config.rates)))]),
        sigma=float(config.sigmas[int(rng.integers(len(config.sigmas)))]),
        fault_seed=int(rng.integers(2**31 - 1)),
    )


def discover_models(config: CampaignConfig) -> list[str]:
    """The campaign's model roster: the configured subset, or every model
    directory in the cache (sorted, so the ``index -> model`` map is stable)."""

    if config.models:
        return list(config.models)
    return ArtifactStore(config.cache).models()


# -- resume guards ----------------------------------------------------------


def _version_mismatch_detail(found) -> str:
    if isinstance(found, int) and found < JOURNAL_VERSION:
        hint = (
            f"it predates the v{JOURNAL_VERSION} format, whose trials another decision gate "
            f"scored — finish it with a polygraphmr release that writes v{found} journals, "
            "or start a fresh --out directory"
        )
    else:
        hint = (
            "it was written by a newer polygraphmr than this one — upgrade this checkout, "
            "or start a fresh --out directory"
        )
    return f"journal format v{found}, this runner expects v{JOURNAL_VERSION}; {hint}"


def _checkpoint_defect(checkpoint: dict) -> str | None:
    """Why a checksum-valid checkpoint is still malformed, or ``None``:
    every record count must be a non-negative int, every sealed head a
    string, and every ``workers`` entry an object under a worker-id key."""

    marks = checkpoint.get("workers", {})
    if not isinstance(marks, dict):
        return f"workers is {type(marks).__name__}, not an object"
    bodies = [("", checkpoint, ("journal_records", "completed"))]
    for key, mark in marks.items():
        try:
            int(key)
        except ValueError:
            return f"malformed worker key {key!r}"
        if not isinstance(mark, dict):
            return f"worker {key} mark is {type(mark).__name__}, not an object"
        bodies.append((f"worker {key} ", mark, ("journalled",)))
    for where, body, counts in bodies:
        for name in counts:
            value = body.get(name, 0)
            if type(value) is not int or value < 0:
                return f"{where}{name} {value!r} is not a record count"
        head = body.get("chain_head")
        if head is not None and not isinstance(head, str):
            return f"{where}chain_head {head!r} is not a hash"
    return None


def seal_finding(
    state: CampaignState,
    checkpoint: dict | None,
    config: CampaignConfig | None = None,
    *,
    versions: tuple[int, ...] = (JOURNAL_VERSION,),
) -> tuple[str, int | None, str, str] | None:
    """The first header or checkpoint-seal finding in a campaign directory,
    as ``(file, line, reason, detail)``, or ``None`` when every rule holds.

    The one rule set behind both ``--resume`` (:func:`validate_resume`
    raises the finding) and ``campaign verify`` (which reports it):

    * the canonical journal opens with a header of one of ``versions`` (by
      default only this runner's) whose ``prev`` is that version's genesis
      hash of its own journalled config — and, given ``config``, that config
      is the resuming runner's;
    * a checkpoint is well-typed (:func:`_checkpoint_defect`), commits no
      more records to the journal or to any worker shard than that file
      still holds, seals the chain head each file actually carries at the
      committed count, and commits no more trials than journal + shards hold.
    """

    header = state.header
    if header is None:
        return JOURNAL_NAME, 1, "journal-no-header", "no verifiable header record"
    version = header.get("version")
    if type(version) is not int or version not in versions:
        return JOURNAL_NAME, 1, "journal-version-mismatch", _version_mismatch_detail(version)
    cfg = header.get("config")
    if config is not None and cfg != config.to_dict():
        return (
            JOURNAL_NAME,
            1,
            "config-mismatch",
            "journal was written by a campaign with different settings; "
            "start a fresh --out directory instead",
        )
    if not isinstance(cfg, dict):
        return JOURNAL_NAME, 1, "journal-bad-header", "header carries no config object"
    genesis = chain_genesis(config_chain_hash(cfg), version=version)
    if header.get("prev") != genesis:
        return (
            JOURNAL_NAME,
            1,
            "journal-chain-broken",
            f"header prev {str(header.get('prev'))[:12]}… is not the genesis hash "
            f"{genesis[:12]}… derived from the journalled config — the journal is not "
            "rooted in this campaign",
        )
    if checkpoint is None:
        return None
    defect = _checkpoint_defect(checkpoint)
    if defect is not None:
        return CHECKPOINT_NAME, None, "checkpoint-invalid", defect
    seals = [(JOURNAL_NAME, checkpoint, "journal_records", state.canonical_chain)]
    for key, mark in sorted(checkpoint.get("workers", {}).items()):
        seals.append((shard_name(int(key)), mark, "journalled", state.shard_chains.get(int(key), [])))
    for file, body, count_key, chain in seals:
        n = body.get(count_key, 0)
        if n > len(chain):
            return (
                file,
                None,
                "journal-behind-checkpoint",
                f"checkpoint committed {n} record(s) to {file} but it holds {len(chain)} "
                "— committed history was lost",
            )
        sealed = body.get("chain_head")
        if sealed is not None and n > 0 and chain[n - 1] != sealed:
            return (
                file,
                n,
                "journal-chain-broken",
                f"checkpoint seals chain head {sealed[:12]}… over record {n} but the "
                f"chain reads {chain[n - 1][:12]}… there — committed history was altered",
            )
    if checkpoint.get("completed", 0) > len(state.trials):
        return (
            JOURNAL_NAME,
            None,
            "journal-behind-checkpoint",
            f"checkpoint committed {checkpoint['completed']} trial(s) "
            f"but journal + shards hold {len(state.trials)}",
        )
    return None


def validate_resume(state: CampaignState, config: CampaignConfig, checkpoint: dict | None) -> dict:
    """Resume guard: returns the verified header record, or raises the first
    :func:`seal_finding` as a :class:`CampaignError` — extending tampered or
    foreign evidence is never allowed."""

    finding = seal_finding(state, checkpoint, config)
    if finding is not None:
        file, line, reason, detail = finding
        where = file if line is None else f"{file} line {line}"
        raise CampaignError(reason, f"{where}: {detail}")
    return state.header


def checkpoint_payload(
    config: CampaignConfig, done: dict[int, dict] | set[int], journal_records: int, chain_head: str
) -> dict:
    """The canonical checkpoint body — identical for serial and (post-merge)
    parallel runs, so the final checkpoints of both are byte-comparable.
    ``done`` holds the completed trial indices (a record map or a set).

    ``chain_head`` seals the canonical journal's chain at ``journal_records``
    records: together they pin the journal's entire committed history, the
    anchor ``verify`` and ``--resume`` cross-check.
    """

    next_index = next((i for i in range(config.n_trials) if i not in done), config.n_trials)
    return {
        "version": JOURNAL_VERSION,
        "n_trials": config.n_trials,
        "completed": len(done),
        "next_index": next_index,
        "journal_records": journal_records,
        "chain_head": chain_head,
    }


# -- trial execution -------------------------------------------------------


class _TrialThread:
    """The watchdog's daemon thread: runs trial bodies one at a time while
    the caller waits with a timeout.  It lives as long as its executor
    rather than one trial — at CIFAR shape a fresh thread per trial made
    the trial's numpy stages measurably slower."""

    def __init__(self) -> None:
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(target=self._serve, daemon=True, name="campaign-trial").start()

    def _serve(self) -> None:
        while (job := self._jobs.get()) is not None:
            fn, spec, box, done = job
            try:
                box["value"] = fn(spec)
            except BaseException as exc:  # noqa: BLE001 - the trial's error outcome
                box["error"] = exc
            done.set()

    def run(self, fn, spec, timeout: float) -> dict | None:
        """``fn(spec)``'s outcome (``{"value": …}`` or ``{"error": …}``), or
        ``None`` when it is still running after ``timeout`` seconds."""

        box: dict = {}
        done = threading.Event()
        self._jobs.put((fn, spec, box, done))
        return box if done.wait(timeout) else None

    def close(self) -> None:
        """Exit once the job in hand (if any) returns."""

        self._jobs.put(None)


class TrialExecutor:
    """Executes single trials deterministically — the one code path shared by
    the serial runner and every parallel worker.

    **Per-model breaker boards.**  Each model gets its own
    :class:`~polygraphmr.breaker.BreakerBoard`, ticked once per trial *of
    that model*.  Trial ``i`` always belongs to ``models[i % len(models)]``,
    so a model's trial sub-sequence — and therefore its board's entire
    state-machine history — is a pure function of the config, independent of
    how trials are spread over workers.  That is the invariant behind the
    serial ≡ parallel byte-identity guarantee: the journalled ``breakers``
    snapshot of trial ``i`` depends only on trials ``i % M, i % M + M, …``
    of the same model, never on interleaving.

    The executor opens its own :class:`ArtifactStore` lazily, so a parallel
    worker constructs it *after* ``fork`` — quarantine registries, salvage
    caches, and runtimes are never shared across processes.

    ``trial_fn(spec) -> dict`` is injectable for tests (e.g. to fake a hang
    for the watchdog); the default runs
    :func:`polygraphmr.faults.measure_degradation`.

    The executor owns one :class:`~polygraphmr.cache.ArtifactCache`
    (``use_cache=False`` disables it) shared by every store generation it
    builds — including rebuilds after a trial timeout, because cached
    entries are immutable validated values an abandoned thread cannot
    corrupt.  A parallel worker passes the parent's published
    :class:`~polygraphmr.cache.SharedMemoryPlane` as ``plane`` so cache
    misses resolve zero-copy instead of re-reading the disk.  Cache
    settings are executor tuning, not campaign identity: they never enter
    the journalled config.
    """

    def __init__(
        self,
        config: CampaignConfig,
        models: list[str],
        *,
        trial_fn=None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        use_cache: bool = True,
        plane=None,
    ):
        self.config = config
        self.models = list(models)
        self._trial_fn = trial_fn or self._run_trial
        # resolved once per executor: derive_spec and _scenario_for run in
        # the hot loop and must not re-parse the config's canonical JSON
        self.scenarios = config.scenario_objects()
        self.boards: dict[str, BreakerBoard] = {}
        self.cache = ArtifactCache(cache_bytes, plane=plane) if use_cache else None
        self._store: ArtifactStore | None = None
        self._runtimes: dict[str, EnsembleRuntime] = {}
        self._runner: _TrialThread | None = None

    def close(self) -> None:
        """Let the watchdog's trial thread exit; a later trial starts a new one."""

        if self._runner is not None:
            self._runner.close()
            self._runner = None

    @property
    def store(self) -> ArtifactStore:
        if self._store is None:
            self._store = ArtifactStore(
                self.config.cache,
                allow_salvaged=self.config.allow_salvaged,
                cache=self.cache,
            )
        return self._store

    def board_for(self, model: str) -> BreakerBoard:
        board = self.boards.get(model)
        if board is None:
            board = self.boards[model] = BreakerBoard(self.config.breaker_policy())
        return board

    def runtime_for(self, model: str) -> EnsembleRuntime:
        runtime = self._runtimes.get(model)
        if runtime is None:
            runtime = self._runtimes[model] = EnsembleRuntime(
                self.store,
                min_members=self.config.min_members,
                breakers=self.board_for(model),
            )
        return runtime

    def restore_boards(self, trials: dict[int, dict]) -> None:
        """Restore every model's board from the *latest* journalled trial of
        that model — the per-model analogue of PR 2's mid-sweep restore."""

        last: dict[str, dict] = {}
        for index in sorted(trials):
            record = trials[index]
            model = record.get("spec", {}).get("model")
            if model is not None and record.get("breakers") is not None:
                last[model] = record["breakers"]
        for model, snap in last.items():
            board = BreakerBoard(self.config.breaker_policy())
            board.restore(snap)
            self.boards[model] = board
            self._runtimes.pop(model, None)

    def _scenario_for(self, spec: TrialSpec):
        """Resolve a spec's scenario from the config, cross-checking the
        journalled hash — a spec naming a scenario the config does not carry
        (or carrying different bytes) must never silently run something else."""

        for scenario in self.scenarios:
            if scenario.name == spec.scenario:
                if scenario.config_hash() != spec.scenario_sha256:
                    raise CampaignError(
                        "scenario-mismatch",
                        f"trial {spec.index}: scenario {spec.scenario!r} hashes to "
                        f"{scenario.config_hash()[:12]}… in the config but the spec pins "
                        f"{str(spec.scenario_sha256)[:12]}…",
                    )
                return scenario
        raise CampaignError(
            "scenario-mismatch",
            f"trial {spec.index}: scenario {spec.scenario!r} is not in the campaign config",
        )

    def derive_spec(self, index: int) -> TrialSpec:
        """:func:`derive_trial_spec` against this executor's pre-resolved
        scenario objects — the hot-loop entry point."""

        return derive_trial_spec(self.config, self.models, index, scenarios=self.scenarios)

    def fault_for(self, spec: TrialSpec):
        """The seeded fault object a spec describes: a scenario-pinned
        :class:`~polygraphmr.scenarios.ScenarioFault` or a legacy
        :class:`~polygraphmr.faults.FaultSpec`."""

        if spec.scenario is not None:
            return self._scenario_for(spec).fault(spec.fault_seed)
        return FaultSpec(kind=spec.kind, rate=spec.rate, sigma=spec.sigma, seed=spec.fault_seed)

    def _run_trial(self, spec: TrialSpec) -> dict:
        fault = self.fault_for(spec)
        return measure_degradation(self.store, spec.model, fault, runtime=self.runtime_for(spec.model))

    def _call_with_watchdog(self, spec: TrialSpec):
        """(outcome, value, error) — never raises, never hangs past the timeout."""

        if self.config.timeout_s <= 0:
            try:
                return OUTCOME_OK, self._trial_fn(spec), None
            except Exception as exc:  # noqa: BLE001 - outcome, not crash
                return OUTCOME_ERROR, None, exc
        if self._runner is None:
            self._runner = _TrialThread()
        box = self._runner.run(self._trial_fn, spec, self.config.timeout_s)
        if box is None:
            # the thread stays stuck in this trial; it exits once the trial
            # returns, and the next trial gets a fresh thread
            self._runner.close()
            self._runner = None
            return OUTCOME_TIMEOUT, None, None
        if "error" in box:
            return OUTCOME_ERROR, None, box["error"]
        return OUTCOME_OK, box.get("value"), None

    def _rebuild_after_timeout(self, model: str, pre_snapshot: dict) -> None:
        # The abandoned watchdog thread still holds the old store and this
        # model's old board; replace both (and every runtime that referenced
        # the old store) so it cannot mutate anything later trials depend on.
        self._store = None
        self._runtimes = {}
        board = BreakerBoard(self.config.breaker_policy())
        board.restore(pre_snapshot)
        self.boards[model] = board

    def execute(self, index: int) -> dict:
        """Run one trial and build its (deterministic) journal record.

        Each trial is wrapped in a tracing span and metered into the
        ``campaign_trial_seconds`` histogram / ``campaign_trials_total``
        counter — all out-of-band; the returned record carries no timing.
        """

        registry = get_registry()
        spec = self.derive_spec(index)
        with get_tracer().span(
            "campaign.trial",
            index=index,
            model=spec.model,
            observe=registry.histogram("campaign_trial_seconds"),
        ) as span:
            if self.config.trial_sleep_s > 0:
                time.sleep(self.config.trial_sleep_s)
            pre_breakers = self.board_for(spec.model).snapshot()
            outcome, value, error = self._call_with_watchdog(spec)
            span.set(outcome=outcome)
            record = {
                "type": "trial",
                "index": index,
                "spec": spec.to_dict(),
                "outcome": outcome,
            }
            if outcome == OUTCOME_TIMEOUT:
                self._rebuild_after_timeout(spec.model, pre_breakers)
                record["breakers"] = pre_breakers
            else:
                record["breakers"] = self.boards[spec.model].snapshot()
            if outcome == OUTCOME_OK:
                record["result"] = value
            elif outcome == OUTCOME_ERROR:
                record["error"] = repr(error)
        registry.counter("campaign_trials_total", outcome=outcome).inc()
        if spec.scenario is not None:
            registry.counter(
                "campaign_scenario_trials_total", scenario=spec.scenario, outcome=outcome
            ).inc()
        if outcome == OUTCOME_TIMEOUT:
            # the watchdog firing was previously only journalled; count it so
            # dashboards see hung trials without parsing the journal
            registry.counter("campaign_watchdog_fired_total").inc()
        return record


def summarize_trials(config: CampaignConfig, done: dict[int, dict]) -> dict:
    """Outcome counts + merged non-closed breaker states, computed purely
    from journal records so serial and parallel summaries agree exactly."""

    outcomes = {OUTCOME_OK: 0, OUTCOME_ERROR: 0, OUTCOME_TIMEOUT: 0}
    last_snap: dict[str, dict] = {}
    for index in sorted(done):
        record = done[index]
        outcomes[record["outcome"]] = outcomes.get(record["outcome"], 0) + 1
        model = record.get("spec", {}).get("model")
        if model is not None and record.get("breakers") is not None:
            last_snap[model] = record["breakers"]
    merged = merge_snapshots(last_snap[m] for m in sorted(last_snap))
    return {
        "n_trials": config.n_trials,
        "completed": len(done),
        "outcomes": outcomes,
        "breakers": non_closed_in_snapshot(merged),
    }


def header_record(config: CampaignConfig, models: list[str], audit: dict | None = None) -> dict:
    record = {
        "type": "header",
        "version": JOURNAL_VERSION,
        "config": config.to_dict(),
        "models": list(models),
    }
    if audit is not None:
        record["audit"] = audit
    return record


class CampaignRunner:
    """Drives one campaign directory through its lifecycle, running trials in
    this process.

    :meth:`run` is the whole lifecycle: open the directory (fresh, resumed,
    or refused with ``journal-exists``), execute the pending trials, then
    finish — merge any worker shards into the canonical journal once every
    trial is journalled, fold metrics into ``metrics.json``, and summarise.
    Only the execution step (:meth:`_execute`) is specific to this class:
    :class:`polygraphmr.parallel.ParallelCampaignRunner` overrides it to fan
    trials out to worker processes and inherits everything else.  Both run
    every trial through :meth:`TrialExecutor.execute` and journal it in
    :mod:`polygraphmr.batching` windows, which is what keeps their journals
    byte-identical.
    """

    def __init__(
        self,
        config: CampaignConfig,
        out_dir: str | Path,
        *,
        trial_fn=None,
        audit: dict | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        use_cache: bool = True,
    ):
        self.config = config
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.journal = CampaignJournal(self.out_dir / JOURNAL_NAME, genesis=config_genesis(config))
        self.checkpoint_path = self.out_dir / CHECKPOINT_NAME
        self.audit = audit
        self.trial_fn = trial_fn
        self.cache_bytes = cache_bytes
        self.use_cache = use_cache
        self._stop = threading.Event()
        self.models = discover_models(config)

    @cached_property
    def executor(self) -> TrialExecutor:
        """The in-process trial executor (built on first use)."""

        return TrialExecutor(
            self.config,
            self.models,
            trial_fn=self.trial_fn,
            cache_bytes=self.cache_bytes,
            use_cache=self.use_cache,
        )

    def request_stop(self) -> None:
        """Graceful stop (SIGTERM): in-flight trials finish and their
        window's finished prefix is journalled, then the run checkpoints
        and returns an incomplete summary."""

        self._stop.set()

    def _open(self, resume: bool) -> CampaignState:
        """Open the directory: start a fresh journal, resume one (after tail
        repair and :func:`validate_resume`), or refuse to clobber records.

        Returns the directory's state — the canonical journal *and* any
        shards a parallel run left behind — with the header in place.
        """

        state = scan_campaign(self.out_dir, repair=True)
        if not (state.canonical_records or state.trials):
            state.header = header_record(self.config, self.models, self.audit)
            self.journal.append(state.header)
            state.canonical_records, state.canonical_chain = 1, [self.journal.head]
        elif not resume:
            raise CampaignError(
                "journal-exists",
                f"{self.journal.path} (or a shard) already holds records; "
                "pass resume=True / --resume",
            )
        else:
            validate_resume(state, self.config, read_checkpoint(self.checkpoint_path))
            self.journal.prime_head(state.canonical_chain[-1])
            # pin the model roster to what the interrupted run saw, so the
            # index -> model assignment cannot drift if the cache changed
            self.models = list(state.header.get("models", self.models))
        # metric shards are per-run scratch: a shard left by a dead run
        # would double-count if folded into this run's totals
        for path in metrics_shards(self.out_dir).values():
            path.unlink()
        return state

    def _write_checkpoint(self, done: dict[int, dict], journal_records: int, chain_head: str) -> None:
        write_checkpoint(
            self.checkpoint_path,
            checkpoint_payload(self.config, done, journal_records, chain_head),
        )

    def _execute(self, state: CampaignState, max_new_trials: int | None) -> tuple[dict[int, dict], dict]:
        """The execution step: plan windows over the pending trials, run each
        trial through the executor, and flush every completed window to the
        journal in index order with one fsync + one checkpoint per window.

        Returns ``(completed trials, summary fields)``.
        """

        done = dict(state.trials)
        journal_records = state.canonical_records
        self.executor.models = self.models
        self.executor.restore_boards(done)
        pending = [i for i in range(self.config.n_trials) if i not in done]
        bounded = pending if max_new_trials is None else pending[: max(0, max_new_trials)]
        stopped_early = len(bounded) < len(pending)
        new_trials = 0
        try:
            for window in plan_windows(bounded, len(self.models)):
                records, aborted = execute_window(self.executor, window, self._stop)
                if records:
                    self.journal.append_many(records)
                    journal_records += len(records)
                    for record in records:
                        done[record["index"]] = record
                    new_trials += len(records)
                    self._write_checkpoint(done, journal_records, self.journal.head)
                if aborted:
                    stopped_early = True
                    break
        finally:
            self.executor.close()
        return done, {"new_trials": new_trials, "stopped_early": stopped_early or self._stop.is_set()}

    def _finalize_metrics(self, completed: int) -> MetricsRegistry:
        """Fold the process-global registry with any worker shards into
        ``metrics.json``, then delete the shards.

        Never touches the journal or checkpoint — metrics files are a
        separate artefact with no determinism contract on their bytes.
        """

        registry = get_registry()
        registry.gauge("campaign_trials_completed").set(float(completed))
        paths = [p for _, p in sorted(metrics_shards(self.out_dir).items())]
        shards = [load_registry(p) for p in paths]
        merged = merge_registries([registry, *[s for s in shards if s is not None]])
        merged.write_json(self.out_dir / METRICS_NAME)
        for path in paths:
            path.unlink()
        self.merged_registry = merged
        return merged

    def run(self, *, resume: bool = False, max_new_trials: int | None = None) -> dict:
        """Run (or resume) the campaign; returns a summary dict.

        Without ``resume``, an existing non-empty journal (or any shard) is
        refused rather than clobbered.  ``max_new_trials`` bounds how many
        *new* trials this call executes — tests use it to simulate a
        mid-campaign crash.

        The process-global metrics registry and tracer are reset on entry so
        the campaign's ``metrics.json`` describes exactly one run, even when
        several runners execute in the same process.
        """

        get_registry().reset()
        get_tracer().reset()
        state = self._open(resume)
        done, fields = self._execute(state, max_new_trials)
        if all(i in done for i in range(self.config.n_trials)) and shard_journals(self.out_dir):
            # a parallel run (this one or an interrupted one) left shards:
            # fold everything into the canonical journal so the final
            # artefact is identical to a pure serial run's
            _, chain_head = merge_journal(self.out_dir, state.header, done)
            self.journal.prime_head(chain_head)
            self._write_checkpoint(done, 1 + len(done), chain_head)

        self._finalize_metrics(len(done))
        summary = summarize_trials(self.config, done)
        summary.update(fields)
        summary.update(
            {
                "journal": str(self.journal.path),
                "checkpoint": str(self.checkpoint_path),
                "metrics": str(self.out_dir / METRICS_NAME),
            }
        )
        return summary


# -- verification (`campaign verify`) ---------------------------------------

VERIFY_OK = 0
VERIFY_CHAIN_BREAK = 3
VERIFY_REPLAY_MISMATCH = 4


def _strip_links(record: dict) -> dict:
    """A record's chained identity minus its chain position — what must agree
    when the same trial appears in the canonical journal and a shard."""

    return {k: v for k, v in record.items() if k not in ("prev", "sha256")}


def verify_campaign(out_dir: str | Path) -> dict:
    """Audit a campaign directory end to end; returns the verification report.

    Four passes, stopping at the exact first offending record:

    1. **Chain walk** — every canonical-journal record's seal and ``prev``
       link; then every shard's chain, each rooted at its own shard genesis.
    2. **Header and checkpoint seal** — :func:`seal_finding`, the very rules
       ``--resume`` applies: the header is rooted at the genesis hash of its
       journalled config, and a well-typed checkpoint seals chain heads (and
       counts) the journal and every shard actually carry.  Unlike
       ``--resume``, verify accepts every format in
       :data:`~polygraphmr.journal.VERIFIABLE_VERSIONS` (v3 and v4), each
       checked against its own version's genesis.
    3. **Cross-file consistency** — a trial journalled in two files must be
       identical (minus chain position); duplicate indices within a file are
       refused.
    4. **Replay audit** — every trial's journalled spec must re-derive
       exactly from the journalled config + model roster, proving the
       journal replay-matches the campaign it claims to record.

    ``exit_code`` is 0 (ok), 3 (chain break: seal/link/checkpoint damage),
    or 4 (replay mismatch: the chain is intact but records don't re-derive
    from the config).  Verified-record and failure tallies flow into the
    ``journal_records_verified_total`` / ``journal_chain_breaks_total`` /
    ``journal_replay_mismatches_total`` counters, under a ``journal.verify``
    tracing span.

    Trust model: the chain makes *silent* history rewrites detectable — any
    splice forces re-sealing every later record and changes the chain head.
    An adversary who can rewrite journal, shards, *and* checkpoint together
    can still forge a self-consistent directory; pinning the reported
    ``chain_head`` somewhere external (CI log, signed release notes) closes
    that loop.
    """

    out = Path(out_dir)
    registry = get_registry()
    with get_tracer().span("journal.verify", out_dir=str(out)) as span:
        report = _verify_campaign(out)
        registry.counter("journal_records_verified_total").inc(report["records_verified"])
        if report["status"] == "chain-break":
            registry.counter("journal_chain_breaks_total").inc()
        elif report["status"] == "replay-mismatch":
            registry.counter("journal_replay_mismatches_total").inc()
        span.set(status=report["status"], records_verified=report["records_verified"])
    return report


def _verify_campaign(out: Path) -> dict:
    report: dict = {
        "out_dir": str(out),
        "ok": False,
        "status": "chain-break",
        "exit_code": VERIFY_CHAIN_BREAK,
        "records_verified": 0,
        "trials": 0,
        "complete": False,
        "chain_head": None,
        "shards": {},
        "checkpoint": {"present": False},
        "first_bad": None,
    }

    def fail(status: str, code: int, file: str, line: int | None, reason: str, detail: str) -> dict:
        report["status"] = status
        report["exit_code"] = code
        report["first_bad"] = {
            "file": file,
            "line": line,
            "record_index": None if line is None else line - 1,
            "reason": reason,
            "detail": detail,
        }
        return report

    def chain_fail(file: str, line: int | None, reason: str, detail: str) -> dict:
        return fail("chain-break", VERIFY_CHAIN_BREAK, file, line, reason, detail)

    def replay_fail(file: str, line: int | None, reason: str, detail: str) -> dict:
        return fail("replay-mismatch", VERIFY_REPLAY_MISMATCH, file, line, reason, detail)

    journal_path = out / JOURNAL_NAME
    if not journal_path.is_file():
        return chain_fail(JOURNAL_NAME, None, "journal-missing", f"no {JOURNAL_NAME} in {out}")

    # 1. chains: every seal and every internal link, in line order — the
    # canonical journal, then each shard rooted at its own shard genesis
    records, chain, issue = walk_chain(journal_path)
    report["records_verified"] += len(records)
    if issue is not None:
        return chain_fail(JOURNAL_NAME, issue.line, issue.reason, issue.detail)
    header = records[0] if records and records[0].get("type") == "header" else None
    cfg_dict = header.get("config") if header is not None else None
    config_sha = config_chain_hash(cfg_dict) if isinstance(cfg_dict, dict) else None
    # shards are rooted in the header's format version; any other header
    # version is refused by seal_finding below
    version = header.get("version") if header is not None else None
    version = version if version in VERIFIABLE_VERSIONS else JOURNAL_VERSION
    files = [(JOURNAL_NAME, 2, records[1:])]  # (name, first line, records after any header)
    shard_chains: dict[int, list[str]] = {}
    for worker, shard in sorted(shard_journals(out).items()):
        name = shard.path.name
        genesis = None if config_sha is None else chain_genesis(config_sha, shard=worker, version=version)
        s_records, s_chain, s_issue = walk_chain(shard.path, genesis=genesis)
        report["records_verified"] += len(s_records)
        if s_issue is not None:
            return chain_fail(name, s_issue.line, s_issue.reason, s_issue.detail)
        shard_chains[worker] = s_chain
        report["shards"][f"{worker:02d}"] = {
            "records": len(s_records),
            "chain_head": s_chain[-1] if s_chain else None,
        }
        files.append((name, 1, s_records))

    # 2. header and checkpoint seal: the same rules --resume applies
    cp_payload, cp_problem = load_checkpoint(out / CHECKPOINT_NAME)
    if cp_payload is not None:
        report["checkpoint"] = {
            "present": True,
            "journal_records": cp_payload.get("journal_records"),
            "chain_head": cp_payload.get("chain_head"),
        }
    held = {r.get("index"): r for _, _, rs in files for r in rs if r.get("type") == "trial"}
    report["trials"] = len(held)
    state = CampaignState(header, held, len(records), canonical_chain=chain, shard_chains=shard_chains)
    finding = seal_finding(state, cp_payload, versions=VERIFIABLE_VERSIONS)
    if finding is not None:
        return chain_fail(*finding)
    if cp_problem == "checkpoint-invalid":
        return chain_fail(
            CHECKPOINT_NAME, None, "checkpoint-invalid", "checkpoint exists but fails its checksum"
        )
    report["chain_head"] = chain[-1]

    # 3. cross-file consistency: trial provenance, index -> (file, line, record)
    trials: dict = {}
    for name, first, file_records in files:
        for lineno, r in enumerate(file_records, start=first):
            if r.get("type") != "trial":
                return chain_fail(
                    name, lineno, "journal-unknown-record", f"unexpected record type {r.get('type')!r}"
                )
            idx = r.get("index")
            if idx not in trials:
                trials[idx] = (name, lineno, r)
                continue
            ofile, oline, other = trials[idx]
            if ofile == name:
                return chain_fail(
                    name,
                    lineno,
                    "journal-duplicate-trial",
                    f"trial {idx!r} already journalled at {ofile} line {oline}",
                )
            if _strip_links(r) != _strip_links(other):
                return chain_fail(
                    name, lineno, "journal-record-conflict", f"trial {idx!r} disagrees with {ofile} line {oline}"
                )

    # 4. replay audit: every trial must re-derive from the journalled config
    try:
        config = config_from_dict(cfg_dict)
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers ConfigError
        return chain_fail(JOURNAL_NAME, 1, "journal-bad-header", f"journalled config is malformed: {exc!r}")
    models = header.get("models")
    if trials and (not isinstance(models, list) or not models):
        file, line, _ = min(trials.values(), key=lambda v: (v[0], v[1]))
        return replay_fail(
            file, line, "journal-bad-header", "header has no model roster to re-derive trial specs from"
        )
    outcomes = {OUTCOME_OK, OUTCOME_ERROR, OUTCOME_TIMEOUT}
    for idx, (file, line, r) in sorted(trials.items(), key=lambda kv: (kv[1][0], kv[1][1])):
        if not isinstance(idx, int) or not (0 <= idx < config.n_trials):
            return replay_fail(
                file, line, "trial-out-of-range", f"trial index {idx!r} outside [0, {config.n_trials})"
            )
        if r.get("outcome") not in outcomes:
            return replay_fail(file, line, "unknown-outcome", f"outcome {r.get('outcome')!r}")
        try:
            expected = derive_trial_spec(config, list(models), idx).to_dict()
        except Exception as exc:  # noqa: BLE001 - any derivation failure is a finding
            return replay_fail(
                file, line, "spec-underivable", f"trial {idx} cannot be re-derived: {exc!r}"
            )
        if r.get("spec") != expected:
            return replay_fail(
                file,
                line,
                "spec-mismatch",
                f"trial {idx}'s journalled spec does not re-derive from the journalled config",
            )
    report["complete"] = all(i in trials for i in range(config.n_trials))

    report["ok"] = True
    report["status"] = "ok"
    report["exit_code"] = VERIFY_OK
    return report


# -- cross-scenario report (`campaign report`) -------------------------------


def report_campaign(out_dir: str | Path) -> dict:
    """Cross-scenario survival report, computed purely from the journal.

    Groups every journalled trial by its scenario (legacy sweeps group by
    fault kind, keyed ``kind:<kind>``) and summarises, per scenario:

    * ``trials`` / ``outcomes`` — trial counts by outcome; the per-scenario
      ``trials`` sum equals the journal's total trial count *exactly*, so
      the report reconciles against the journal record-for-record.
    * ``survived`` / ``survival_rate`` — trials that completed ``ok`` with
      the faulted detector still better than chance (faulted AUC ≥ 0.5):
      the ensemble's misprediction detection survived the injection.
    * ``degraded`` / ``degraded_rate`` — ok-trials the ensemble ran in
      degraded mode (members missing or quarantined).
    * ``override`` — mean decision-gate flag rate (the fraction of inputs
      where the gate overrides ORG's answer), clean vs faulted.
    * ``mean_delta_auc`` — mean clean→faulted AUC shift.

    The report never re-runs a trial and never touches journal bytes; it is
    a pure read of the same records ``verify`` audits.
    """

    out = Path(out_dir)
    state = scan_campaign(out)
    if state.header is None:
        raise CampaignError("journal-no-header", f"no verifiable header record in {out}")
    rows: dict[str, dict] = {}
    stats: dict[str, dict] = {}
    for index in sorted(state.trials):
        record = state.trials[index]
        spec = record.get("spec", {})
        name = spec.get("scenario") or f"kind:{spec.get('kind')}"
        row = rows.setdefault(
            name,
            {
                "scenario_sha256": spec.get("scenario_sha256"),
                "trials": 0,
                "outcomes": {OUTCOME_OK: 0, OUTCOME_ERROR: 0, OUTCOME_TIMEOUT: 0},
                "survived": 0,
                "degraded": 0,
            },
        )
        acc = stats.setdefault(name, {"clean": [], "faulted": [], "delta_auc": []})
        row["trials"] += 1
        outcome = record.get("outcome")
        row["outcomes"][outcome] = row["outcomes"].get(outcome, 0) + 1
        result = record.get("result")
        if outcome != OUTCOME_OK or not isinstance(result, dict):
            continue
        faulted_auc = result.get("faulted", {}).get("auc")
        if isinstance(faulted_auc, (int, float)) and faulted_auc >= 0.5:
            row["survived"] += 1
        if result.get("degraded"):
            row["degraded"] += 1
        override = result.get("override")
        if isinstance(override, dict):
            acc["clean"].append(float(override.get("clean", 0.0)))
            acc["faulted"].append(float(override.get("faulted", 0.0)))
        delta_auc = result.get("delta", {}).get("auc")
        if isinstance(delta_auc, (int, float)):
            acc["delta_auc"].append(float(delta_auc))

    def mean(values: list[float]) -> float | None:
        return round(sum(values) / len(values), 6) if values else None

    scenarios: dict[str, dict] = {}
    for name in sorted(rows):
        row, acc = rows[name], stats[name]
        n = row["trials"]
        row["survival_rate"] = round(row["survived"] / n, 6) if n else 0.0
        row["degraded_rate"] = round(row["degraded"] / n, 6) if n else 0.0
        row["override"] = {"clean": mean(acc["clean"]), "faulted": mean(acc["faulted"])}
        row["mean_delta_auc"] = mean(acc["delta_auc"])
        scenarios[name] = row
    return {
        "schema": "polygraphmr/campaign-report/v1",
        "out_dir": str(out),
        "n_trials": state.header.get("config", {}).get("n_trials"),
        "completed": len(state.trials),
        "scenarios": scenarios,
    }


def report_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m polygraphmr.campaign report",
        description="Summarise a campaign journal per scenario: trial counts by "
        "outcome, ensemble survival (faulted AUC >= 0.5), degraded-mode and "
        "decision-gate override rates.  Counts reconcile exactly with the journal.",
    )
    parser.add_argument("out_dir", help="campaign directory (journal + checkpoint)")
    parser.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    args = parser.parse_args(argv)
    try:
        report = report_campaign(args.out_dir)
    except CampaignError as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    print(f"{report['completed']}/{report['n_trials']} trial(s) journalled in {report['out_dir']}")
    header = ("scenario", "trials", "ok", "err", "t/o", "survival", "degraded", "override", "Δauc")
    table = [header]
    for name, row in report["scenarios"].items():
        oc = row["outcomes"]
        ov = row["override"]
        override = (
            f"{ov['clean']:.3f}→{ov['faulted']:.3f}" if ov["clean"] is not None and ov["faulted"] is not None else "-"
        )
        delta = f"{row['mean_delta_auc']:+.4f}" if row["mean_delta_auc"] is not None else "-"
        table.append(
            (
                name,
                str(row["trials"]),
                str(oc.get(OUTCOME_OK, 0)),
                str(oc.get(OUTCOME_ERROR, 0)),
                str(oc.get(OUTCOME_TIMEOUT, 0)),
                f"{row['survival_rate']:.3f}",
                f"{row['degraded_rate']:.3f}",
                override,
                delta,
            )
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for i, r in enumerate(table):
        print("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(r)).rstrip())
        if i == 0:
            print("  ".join("-" * w for w in widths))
    return 0


# -- CLI -------------------------------------------------------------------


def _csv(cast):
    def parse(text: str):
        return tuple(cast(part) for part in text.split(",") if part)

    return parse


def verify_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m polygraphmr.campaign verify",
        description="Audit a campaign's hash-chained journal: walk every chain, "
        "cross-check the checkpoint-sealed head, and re-derive every trial spec "
        "from the journalled config.  Exit 0 = verified, 3 = chain break, "
        "4 = replay mismatch.",
    )
    parser.add_argument("out_dir", help="campaign directory (journal + checkpoint)")
    parser.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    args = parser.parse_args(argv)
    report = verify_campaign(args.out_dir)
    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    elif report["ok"]:
        head = report["chain_head"] or ""
        print(
            f"ok: {report['records_verified']} record(s) across "
            f"{1 + len(report['shards'])} file(s) verified, {report['trials']} trial(s) "
            f"replay-match, chain head {head[:16]}…"
        )
    else:
        bad = report["first_bad"] or {}
        where = str(bad.get("file", "?"))
        if bad.get("line") is not None:
            where += f" line {bad['line']} (record {bad['record_index']})"
        print(
            f"FAIL [{report['status']}] {bad.get('reason')} at {where}: {bad.get('detail')}",
            file=sys.stderr,
        )
    return report["exit_code"]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["verify"]:
        return verify_main(argv[1:])
    if argv[:1] == ["report"]:
        return report_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m polygraphmr.campaign",
        description="Run a crash-safe, resumable fault-injection campaign.",
        epilog="subcommands: python -m polygraphmr.campaign verify <dir> [--json] — "
        "audit a campaign's hash-chained journal (exit 0/3/4); "
        "python -m polygraphmr.campaign report <dir> [--json] — "
        "cross-scenario survival report from the journal",
    )
    parser.add_argument("--cache", default=".repro_cache", help="cache root (default: .repro_cache)")
    parser.add_argument("--out", required=True, help="campaign directory for journal + checkpoint")
    parser.add_argument("--trials", type=int, default=10, help="total trial count (default: 10)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; >1 fans trials out per model and merges the "
        "journal shards into a byte-identical canonical journal (default: 1)",
    )
    parser.add_argument("--models", type=_csv(str), default=(), help="comma-separated model subset")
    parser.add_argument("--kinds", type=_csv(str), default=("bitflip", "gaussian"))
    parser.add_argument("--rates", type=_csv(float), default=(0.001, 0.01, 0.05))
    parser.add_argument("--sigmas", type=_csv(float), default=(0.02, 0.05, 0.1))
    parser.add_argument(
        "--scenarios",
        type=_csv(str),
        default=(),
        help="comma-separated scenario sweep: built-in names and/or .json/.toml "
        "config paths (replaces the --kinds/--rates/--sigmas sweep; see "
        "python -m polygraphmr.faults --list-scenarios)",
    )
    parser.add_argument("--timeout", type=float, default=120.0, help="per-trial watchdog seconds; <=0 disables")
    parser.add_argument("--resume", action="store_true", help="continue at the first unfinished trial")
    parser.add_argument("--allow-salvaged", action="store_true", help="serve carved arrays from corrupt npz")
    parser.add_argument("--failure-threshold", type=int, default=3)
    parser.add_argument("--cooldown-ticks", type=int, default=2)
    parser.add_argument("--min-members", type=int, default=2)
    parser.add_argument(
        "--trial-sleep",
        type=float,
        default=0.0,
        help="artificial seconds of latency added to every trial, each trial "
        "sleeping once (testing aid: the tests and scripts/smoke_campaign.py "
        "use it to widen kill and speedup windows)",
    )
    parser.add_argument(
        "--cache-bytes",
        type=int,
        default=DEFAULT_CACHE_BYTES,
        help="byte budget for the verified-once artifact cache per executor "
        f"(default: {DEFAULT_CACHE_BYTES})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the verified-once artifact cache and the parallel "
        "shared-memory plane (every load re-reads and re-validates)",
    )
    # accepted and ignored: every trial runs on its own; benchmark/campaigns.py passes it
    parser.add_argument("--no-batch", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="also write the merged campaign metrics (JSON) to this path",
    )
    parser.add_argument(
        "--metrics-prom",
        default=None,
        help="also write the merged campaign metrics in Prometheus text format to this path",
    )
    parser.add_argument(
        "--audit-json",
        default=None,
        help="path to `scripts/audit_cache.py --json` output to embed in the journal header",
    )
    parser.add_argument(
        "--synthetic",
        metavar="DIR",
        default=None,
        help="build a synthetic model under DIR and campaign against it",
    )
    parser.add_argument(
        "--synthetic-models",
        type=int,
        default=1,
        help="with --synthetic: number of models to build (default: 1)",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"argument --workers: must be >= 1, got {args.workers}")

    cache = args.cache
    if args.synthetic is not None:
        if args.synthetic_models <= 1:
            build_synthetic_model(args.synthetic, seed=args.seed)
        else:
            for i in range(args.synthetic_models):
                build_synthetic_model(
                    args.synthetic, f"synthetic-{i:02d}", n_val=96, n_test=96, seed=args.seed + i
                )
        cache = args.synthetic

    audit = None
    if args.audit_json is not None:
        try:
            audit = json.loads(Path(args.audit_json).read_text(encoding="utf-8")).get("totals")
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: could not read audit json {args.audit_json!r}: {exc!r}", file=sys.stderr)

    scenarios: tuple[str, ...] = ()
    if args.scenarios:
        from .scenarios import resolve_scenarios

        try:
            scenarios = scenarios_config_field(resolve_scenarios(args.scenarios))
        except ConfigError as exc:
            print(f"scenario error: {exc}", file=sys.stderr)
            return 2

    config = CampaignConfig(
        cache=str(cache),
        n_trials=args.trials,
        seed=args.seed,
        kinds=args.kinds,
        rates=args.rates,
        sigmas=args.sigmas,
        models=args.models,
        scenarios=scenarios,
        timeout_s=args.timeout,
        allow_salvaged=args.allow_salvaged,
        failure_threshold=args.failure_threshold,
        cooldown_ticks=args.cooldown_ticks,
        min_members=args.min_members,
        trial_sleep_s=args.trial_sleep,
    )
    run_opts = {"cache_bytes": args.cache_bytes, "use_cache": not args.no_cache}
    if args.workers > 1:
        from .parallel import ParallelCampaignRunner

        runner = ParallelCampaignRunner(
            config, args.out, workers=args.workers, audit=audit, **run_opts
        )
    else:
        runner = CampaignRunner(config, args.out, audit=audit, **run_opts)

    def handle_stop(_signum, _frame):
        runner.request_stop()

    signal.signal(signal.SIGTERM, handle_stop)
    signal.signal(signal.SIGINT, handle_stop)

    try:
        summary = runner.run(resume=args.resume)
    except CampaignError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2
    merged = getattr(runner, "merged_registry", None)
    if merged is not None:
        if args.metrics_out:
            merged.write_json(args.metrics_out)
        if args.metrics_prom:
            prom = Path(args.metrics_prom)
            prom.parent.mkdir(parents=True, exist_ok=True)
            prom.write_text(merged.to_prometheus(), encoding="utf-8")
    json.dump(summary, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if summary["completed"] == config.n_trials else 3


if __name__ == "__main__":
    raise SystemExit(main())
