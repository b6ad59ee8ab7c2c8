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
import math
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
from .breaker import BreakerBoard, BreakerPolicy, check_breaker_policy, merge_snapshots, non_closed_in_snapshot
from .cache import DEFAULT_CACHE_BYTES, ArtifactCache, check_cache_bytes
from .ensemble import EnsembleRuntime, check_min_members
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
            # format constant kept so v4 headers keep their bytes; the v5 bump removes it
            "allow_salvaged": False,
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


# -- resume and audit rules -------------------------------------------------

VERIFY_OK = 0
VERIFY_CHAIN_BREAK = 3
VERIFY_REPLAY_MISMATCH = 4


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
    as ``(file, line, reason, detail)``, or ``None`` when every rule holds —
    the second step of :func:`campaign_finding`:

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


def replay_finding(state: CampaignState, config: CampaignConfig) -> tuple[str, int | None, str, str] | None:
    """The replay audit: the first trial whose journalled record does not
    re-derive from ``config`` and the header's model roster, as ``(file,
    line, reason, detail)``, or ``None`` — proof that the journal records
    the campaign it claims to."""

    models = state.header.get("models")
    if state.trials and (not isinstance(models, list) or not models):
        file, line = min(state.where.values())
        return file, line, "journal-bad-header", "header has no model roster to re-derive trial specs from"
    outcomes = {OUTCOME_OK, OUTCOME_ERROR, OUTCOME_TIMEOUT}
    for idx, (file, line) in sorted(state.where.items(), key=lambda kv: kv[1]):
        r = state.trials[idx]
        if not isinstance(idx, int) or not (0 <= idx < config.n_trials):
            return file, line, "trial-out-of-range", f"trial index {idx!r} outside [0, {config.n_trials})"
        if r.get("outcome") not in outcomes:
            return file, line, "unknown-outcome", f"outcome {r.get('outcome')!r}"
        try:
            expected = derive_trial_spec(config, list(models), idx).to_dict()
        except Exception as exc:  # noqa: BLE001 - any derivation failure is a finding
            return file, line, "spec-underivable", f"trial {idx} cannot be re-derived: {exc!r}"
        if r.get("spec") != expected:
            detail = f"trial {idx}'s journalled spec does not re-derive from the journalled config"
            return file, line, "spec-mismatch", detail
    return None


def campaign_finding(
    state: CampaignState, checkpoint: dict | None, config: CampaignConfig | None = None, *,
    checkpoint_problem: str | None = None,
) -> tuple[int, str, int | None, str, str] | None:
    """The first finding in a campaign directory, as ``(exit code, file,
    line, reason, detail)``, or ``None`` when every rule holds.

    The one rule list behind both ``--resume`` (:func:`validate_resume`
    passes the resuming ``config`` and raises the finding) and ``campaign
    verify`` (which reports it), in order:

    1. :func:`~polygraphmr.journal.scan_campaign`'s chain walks, every file
       from its own root;
    2. :func:`seal_finding` — the header and the checkpoint seal;
    3. a checkpoint that fails its checksum (``checkpoint_problem``);
    4. the scan's cross-file pass: unknown records, duplicate trials, and
       trials two files disagree on;
    5. a journalled config that does not parse, then :func:`replay_finding`
       — exit code 4, every other finding is 3.

    Resume forgives only crash damage: crash tails, which it then repairs,
    and a checkpoint that fails its checksum, which the journal overrides
    (it reads one as ``None`` and passes no problem).  It extends only this
    runner's format version; verify audits every one of
    :data:`~polygraphmr.journal.VERIFIABLE_VERSIONS`.
    """

    resume = config is not None
    issue = next((i for i in state.issues if not (resume and i.crash)), None)
    finding = issue.as_finding() if issue is not None else None
    versions = (JOURNAL_VERSION,) if resume else VERIFIABLE_VERSIONS
    finding = finding or seal_finding(state, checkpoint, config, versions=versions)
    if finding is None and checkpoint_problem == "checkpoint-invalid":
        finding = CHECKPOINT_NAME, None, "checkpoint-invalid", "checkpoint exists but fails its checksum"
    if finding is None and state.conflict is not None:
        finding = state.conflict.as_finding()
    if finding is None and not resume:
        try:
            config = config_from_dict(state.header["config"])
        except (KeyError, TypeError, ValueError) as exc:  # ValueError covers ConfigError
            finding = JOURNAL_NAME, 1, "journal-bad-header", f"journalled config is malformed: {exc!r}"
    if finding is not None:
        return (VERIFY_CHAIN_BREAK, *finding)
    replay = replay_finding(state, config)
    return None if replay is None else (VERIFY_REPLAY_MISMATCH, *replay)


def validate_resume(state: CampaignState, config: CampaignConfig, checkpoint: dict | None) -> dict:
    """Resume guard: returns the verified header record, or raises the first
    :func:`campaign_finding` as a :class:`CampaignError` — extending history
    ``campaign verify`` rejects is never allowed."""

    finding = campaign_finding(state, checkpoint, config)
    if finding is not None:
        _code, file, line, reason, detail = finding
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
    """The watchdog's daemon thread: runs every trial body, one at a time,
    while the caller waits (with the timeout, when one is set).  It lives
    as long as its executor rather than one trial — at CIFAR shape a fresh
    thread per trial, or the main thread itself, made the trial's numpy
    stages measurably slower."""

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

    def run(self, fn, spec, timeout: float | None) -> dict | None:
        """``fn(spec)``'s outcome (``{"value": …}`` or ``{"error": …}``), or
        ``None`` when it is still running after ``timeout`` seconds
        (``None``: wait for as long as it runs)."""

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
    worker constructs it *after* ``fork`` — quarantine registries, caches
    and runtimes are never shared across processes.

    ``trial_fn(spec) -> dict`` is injectable for tests (e.g. to fake a hang
    for the watchdog); the default runs
    :func:`polygraphmr.faults.measure_degradation`.

    The executor owns one :class:`~polygraphmr.cache.ArtifactCache`
    (``use_cache=False`` disables it) shared by every store generation it
    builds — including rebuilds after a trial timeout, because cached
    entries are immutable validated values an abandoned thread cannot
    corrupt.  A parallel worker builds its own executor, so its cache holds
    only the artifacts of the models it owns.  Cache settings are executor
    tuning, not campaign identity: they never enter the journalled config.
    """

    def __init__(
        self,
        config: CampaignConfig,
        models: list[str],
        *,
        trial_fn=None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        use_cache: bool = True,
    ):
        self.config = config
        self.models = list(models)
        self._trial_fn = trial_fn or self._run_trial
        # resolved once per executor: derive_spec and _scenario_for run in
        # the hot loop and must not re-parse the config's canonical JSON
        self.scenarios = config.scenario_objects()
        self.boards: dict[str, BreakerBoard] = {}
        self.cache = ArtifactCache(cache_bytes) if use_cache else None
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
            self._store = ArtifactStore(self.config.cache, cache=self.cache)
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
        """(outcome, value, error) — never raises, never hangs past the
        timeout (``timeout_s <= 0`` waits for the trial however long it runs)."""

        if self._runner is None:
            self._runner = _TrialThread()
        timeout = self.config.timeout_s if self.config.timeout_s > 0 else None
        box = self._runner.run(self._trial_fn, spec, timeout)
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

        Each trial observes its wall time into the ``campaign_trial_seconds``
        histogram once, whatever its outcome, and counts into
        ``campaign_trials_total`` — all out-of-band; the returned record
        carries no timing.
        """

        registry = get_registry()
        spec = self.derive_spec(index)
        start = time.perf_counter()
        try:
            if self.config.trial_sleep_s > 0:
                time.sleep(self.config.trial_sleep_s)
            pre_breakers = self.board_for(spec.model).snapshot()
            outcome, value, error = self._call_with_watchdog(spec)
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
        finally:
            registry.histogram("campaign_trial_seconds").observe(time.perf_counter() - start)
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
        """Open the directory: start a fresh journal, resume one (after
        :func:`validate_resume`, then crash-tail repair), or refuse to
        clobber records.  A refusal writes nothing.

        Returns the directory's state — the canonical journal *and* any
        shards a parallel run left behind — with the header in place.
        """

        state = scan_campaign(self.out_dir)
        fresh = not (state.canonical_chain or state.trials or state.finding)
        if not (fresh or resume):
            raise CampaignError(
                "journal-exists",
                f"{self.journal.path} (or a shard) already holds records; "
                "pass resume=True / --resume",
            )
        if not fresh:
            validate_resume(state, self.config, read_checkpoint(self.checkpoint_path))
        state.repair()
        if fresh:
            state.header = header_record(self.config, self.models, self.audit)
            self.journal.append(state.header)
            state.canonical_chain = [self.journal.head]
        else:
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
        journal_records = len(state.canonical_chain)
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

        The process-global metrics registry is reset on entry so the
        campaign's ``metrics.json`` describes exactly one run, even when
        several runners execute in the same process.
        """

        get_registry().reset()
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


def verify_campaign(out_dir: str | Path) -> dict:
    """Audit a campaign directory end to end; returns the verification report.

    :func:`~polygraphmr.journal.scan_campaign` reads the directory and
    :func:`campaign_finding` — the very rules ``--resume`` applies — names
    the exact first offending record: the chain walk of the canonical
    journal and of every shard (each rooted at its own genesis), the header
    and checkpoint seal, cross-file consistency, and the replay audit.
    Unlike ``--resume``, verify forgives nothing and accepts every format
    in :data:`~polygraphmr.journal.VERIFIABLE_VERSIONS` (v3 and v4), each
    checked against its own version's genesis.

    ``exit_code`` is 0 (ok), 3 (chain break: seal/link/checkpoint damage),
    or 4 (replay mismatch: the chain is intact but records don't re-derive
    from the config).  Verified-record and failure tallies flow into the
    ``journal_records_verified_total`` / ``journal_chain_breaks_total`` /
    ``journal_replay_mismatches_total`` counters.

    Trust model: the chain makes *silent* history rewrites detectable — any
    splice forces re-sealing every later record and changes the chain head.
    An adversary who can rewrite journal, shards, *and* checkpoint together
    can still forge a self-consistent directory; pinning the reported
    ``chain_head`` somewhere external (CI log, signed release notes) closes
    that loop.
    """

    out = Path(out_dir)
    registry = get_registry()
    report = _verify_campaign(out)
    registry.counter("journal_records_verified_total").inc(report["records_verified"])
    if report["status"] == "chain-break":
        registry.counter("journal_chain_breaks_total").inc()
    elif report["status"] == "replay-mismatch":
        registry.counter("journal_replay_mismatches_total").inc()
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
    if not (out / JOURNAL_NAME).is_file():
        finding = (VERIFY_CHAIN_BREAK, JOURNAL_NAME, None, "journal-missing", f"no {JOURNAL_NAME} in {out}")
    else:
        state = scan_campaign(out)
        cp_payload, cp_problem = load_checkpoint(out / CHECKPOINT_NAME)
        finding = campaign_finding(state, cp_payload, checkpoint_problem=cp_problem)
        report["records_verified"] = len(state.canonical_chain) + sum(map(len, state.shard_chains.values()))
        report["trials"] = len(state.trials)
        for worker, chain in sorted(state.shard_chains.items()):
            report["shards"][f"{worker:02d}"] = {"records": len(chain), "chain_head": chain[-1] if chain else None}
        if cp_payload is not None:
            report["checkpoint"] = {
                "present": True,
                "journal_records": cp_payload.get("journal_records"),
                "chain_head": cp_payload.get("chain_head"),
            }
    if finding is not None:
        code, file, line, reason, detail = finding
        report["status"] = "chain-break" if code == VERIFY_CHAIN_BREAK else "replay-mismatch"
        report["exit_code"] = code
        report["first_bad"] = {
            "file": file,
            "line": line,
            "record_index": None if line is None else line - 1,
            "reason": reason,
            "detail": detail,
        }
        if code == VERIFY_CHAIN_BREAK:
            return report
    report["chain_head"] = state.canonical_chain[-1]
    if finding is None:
        report["complete"] = state.complete(state.header["config"]["n_trials"])
        report.update(ok=True, status="ok", exit_code=VERIFY_OK)
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
    state.raise_finding()
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


def _check_legacy_sweep(kinds, rates, sigmas) -> None:
    """Refuse a ``--kinds/--rates/--sigmas`` sweep no trial could run: an
    empty list, or a value :class:`~polygraphmr.faults.FaultSpec` rejects.
    Only the CLI checks; :func:`config_from_dict` takes a journalled config
    as it is, so existing journals audit as before."""

    for name, values in (("kinds", kinds), ("rates", rates), ("sigmas", sigmas)):
        if not values:
            raise ConfigError(f"config.{name}", "missing-field", f"--{name} needs at least one value")
    for kind in kinds:
        FaultSpec(kind)
    for rate in rates:
        FaultSpec("bitflip", rate=rate)
    for sigma in sigmas:
        FaultSpec("gaussian", sigma=sigma)


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
        help="disable the verified-once artifact cache (every load re-reads "
        "and re-validates)",
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

    scenarios: tuple[str, ...] = ()
    try:
        if args.trials < 0:
            raise ConfigError("config.n_trials", "out-of-range", f"--trials must be >= 0, got {args.trials}")
        # an infinite wait overflows the watchdog and the sleep; NaN silently disables the watchdog
        for name, flag, value in (
            ("timeout_s", "--timeout", args.timeout),
            ("trial_sleep_s", "--trial-sleep", args.trial_sleep),
        ):
            if not math.isfinite(value):
                raise ConfigError(f"config.{name}", "out-of-range", f"{flag} must be finite, got {value}")
        check_min_members(args.min_members)
        check_breaker_policy(args.failure_threshold, args.cooldown_ticks)
        if args.synthetic_models < 1:
            raise ConfigError("synthetic.models", "out-of-range", f"must be >= 1, got {args.synthetic_models}")
        if not args.no_cache:
            check_cache_bytes(args.cache_bytes)
        if args.scenarios:
            from .scenarios import resolve_scenarios

            scenarios = scenarios_config_field(resolve_scenarios(args.scenarios))
        else:
            _check_legacy_sweep(args.kinds, args.rates, args.sigmas)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    cache = args.cache
    if args.synthetic is not None:
        if args.synthetic_models == 1:
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
            merged.write_prometheus(args.metrics_prom)
    json.dump(summary, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if summary["completed"] == config.n_trials else 3


if __name__ == "__main__":
    raise SystemExit(main())
