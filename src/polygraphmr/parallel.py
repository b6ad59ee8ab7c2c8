"""Multiprocess campaign executor with a deterministic journal merge.

Fault-injection campaigns are embarrassingly parallel across trials
(MRFI-style sweeps), but parallelism must not weaken the campaign
subsystem's crash-safety or reproducibility guarantees.  The design here
keeps both:

* **Model-partitioned fan-out.**  Trial ``i`` belongs to
  ``models[i % n_models]`` and every trial of a model is owned by one
  worker (``trial_owner``), which executes its indices in increasing
  order.  Since :class:`~polygraphmr.campaign.TrialExecutor` keeps breaker
  boards *per model*, each worker replays exactly the per-model trial
  sub-sequences a serial run would — so every journal record it writes is
  byte-identical to the serial run's.  Scenario sweeps
  (``--scenarios``, :mod:`polygraphmr.scenarios`) inherit all of this for
  free: a trial's scenario is drawn inside
  :func:`~polygraphmr.campaign.derive_trial_spec` from ``(seed, index)``
  alone, and the scenario list is part of the journalled config (and the
  chain genesis), never of worker state.
* **Per-worker journal shards.**  Each worker appends to its own
  ``journal.wNN.jsonl`` (same sealed, hash-chained format as the canonical
  journal, rooted at a per-shard genesis derived from the campaign config
  hash + worker id) — no cross-process file locking, and each shard
  inherits the torn-tail-repair and chain guarantees of
  :class:`~polygraphmr.campaign.CampaignJournal`.
* **Atomic completion merge.**  Shards stay the write-ahead source of
  truth until every trial is journalled; only then does
  :func:`~polygraphmr.campaign.merge_journal` atomically rewrite the
  canonical journal in index order — re-linking the unified hash chain
  from the campaign's canonical genesis — and delete the shards.  A crash
  at any point — including between the replace and the shard cleanup —
  loses nothing: resume re-scans canonical + shards and deduplicates by
  index (duplicate records are byte-identical because trials are
  deterministic).  The re-linked journal is byte-identical to a serial
  run's, chain and all.
* **SIGTERM draining.**  The parent forwards SIGTERM to every worker;
  each worker finishes its in-flight trial, journals it, and exits
  cleanly.  The parent then checkpoints per-worker high-water marks and
  returns an incomplete summary (CLI exit 3), resumable with ``--resume``
  under *any* worker count.

Worker state is never shared across ``fork``: each worker constructs its
own :class:`~polygraphmr.store.ArtifactStore` and ensemble runtimes after
the fork, inside its own :class:`TrialExecutor`.  The one deliberate
exception is the read-only **shared-memory plane**
(:class:`~polygraphmr.cache.SharedMemoryPlane`): before forking, the
parent loads and validates the campaign's artifact working set once,
copies it into a shared-memory segment, and unlinks the segment name —
workers inherit the mapping and serve zero-copy ``writeable=False`` views
out of it, so store loads are amortized O(1) per trial regardless of
worker count.  If the plane cannot be published (no shared memory, empty
working set), workers silently fall back to loading from disk into their
private caches.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import signal
import sys
import threading
from pathlib import Path

from .batching import DEFAULT_BATCH_SIZE, BatchTrialEngine, plan_windows
from .cache import DEFAULT_CACHE_BYTES, SharedMemoryPlane
from .campaign import (
    CHECKPOINT_NAME,
    JOURNAL_NAME,
    JOURNAL_VERSION,
    CampaignConfig,
    CampaignJournal,
    TrialExecutor,
    chain_genesis,
    check_batch_size,
    checkpoint_payload,
    config_chain_hash,
    config_genesis,
    discover_models,
    header_record,
    merge_journal,
    read_checkpoint,
    scan_campaign,
    shard_journals,
    shard_name,
    summarize_trials,
    validate_resume,
    write_checkpoint,
)
from .errors import CampaignError
from .store import ArtifactStore
from .metrics import (
    METRICS_NAME,
    MetricsRegistry,
    get_registry,
    load_registry,
    merge_registries,
    metrics_shard_name,
    metrics_shards,
    set_registry,
)
from .tracing import get_tracer

__all__ = ["trial_owner", "worker_assignments", "ParallelCampaignRunner"]


def trial_owner(index: int, n_models: int, workers: int) -> int:
    """Which worker owns trial ``index``.

    Ownership is partitioned **by model** (``index % n_models`` names the
    model, which is then striped over workers), so all trials of one model
    land on one worker, in order — the assignment rule that makes each
    journal record independent of the worker count.
    """

    return (index % n_models) % workers


def worker_assignments(
    n_trials: int, n_models: int, workers: int, done: set[int] | frozenset[int] = frozenset()
) -> dict[int, list[int]]:
    """Pending trial indices per worker, each list in increasing order."""

    out: dict[int, list[int]] = {w: [] for w in range(workers)}
    for index in range(n_trials):
        if index not in done:
            out[trial_owner(index, n_models, workers)].append(index)
    return out


def _worker_main(
    worker_id: int,
    config: CampaignConfig,
    out_dir: str,
    models: list[str],
    assignment: list[int],
    done_trials: dict[int, dict],
    trial_fn,
    progress,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
    use_cache: bool = True,
    batch_size: int = DEFAULT_BATCH_SIZE,
    plane: SharedMemoryPlane | None = None,
) -> None:
    """One worker process: drain ``assignment`` through a private
    :class:`TrialExecutor` and :class:`~polygraphmr.batching.BatchTrialEngine`
    into a private journal shard.

    SIGTERM/SIGINT set a stop flag checked *between* chunks, so the
    in-flight chunk always finishes and the window's finished prefix is
    journalled before exit — the same draining contract as the serial
    runner.

    ``plane`` is the parent's pre-published shared-memory working set,
    inherited through ``fork`` (never re-attached by name — the parent
    unlinked the segment before forking, so the mapping is the only handle).
    """

    stop = threading.Event()

    def handle_stop(_signum, _frame):
        stop.set()

    # replace whatever handlers the parent installed (they reference the
    # parent's runner, which fork duplicated into this process)
    signal.signal(signal.SIGTERM, handle_stop)
    signal.signal(signal.SIGINT, handle_stop)

    # fork duplicated the parent's metric and tracing state into this
    # process; start fresh so the shard carries only this worker's deltas
    set_registry(MetricsRegistry())
    get_tracer().reset()

    def write_metrics_shard() -> None:
        try:
            get_registry().write_json(Path(out_dir) / metrics_shard_name(worker_id))
        except OSError:
            pass  # metrics are best-effort observability, never worth a worker

    try:
        shard = CampaignJournal(
            Path(out_dir) / shard_name(worker_id),
            genesis=chain_genesis(config_chain_hash(config.to_dict()), shard=worker_id),
        )
        shard.repair_tail()
        executor = TrialExecutor(
            config,
            models,
            trial_fn=trial_fn,
            cache_bytes=cache_bytes,
            use_cache=use_cache,
            plane=plane,
        )
        executor.restore_boards(done_trials)
        # window over the models this worker owns, flush whole windows
        # through the shard with one fsync, then report per-record progress
        # — each event carries the chain head *as of that record* so a
        # parent checkpoint taken mid-window stays position-consistent with
        # the shard chain on resume
        engine = BatchTrialEngine(executor, batch_size=batch_size)
        n_owned = len({index % len(models) for index in assignment}) or 1
        for window in plan_windows(assignment, n_owned, batch_size):
            if stop.is_set():
                break
            records, aborted = engine.execute_window(window, stop=stop)
            seals = shard.append_many(records)
            for record, seal in zip(records, seals):
                progress.put((worker_id, record["index"], record["outcome"], seal))
            if aborted:
                break
    except BaseException as exc:  # noqa: BLE001 - worker failure is an outcome
        print(f"worker {worker_id:02d} failed: {exc!r}", file=sys.stderr)
        write_metrics_shard()
        progress.close()
        progress.join_thread()
        raise SystemExit(1) from exc
    write_metrics_shard()
    progress.close()
    progress.join_thread()  # flush the queue feeder before exiting


class ParallelCampaignRunner:
    """Runs a campaign across ``workers`` forked processes.

    API-compatible with :class:`~polygraphmr.campaign.CampaignRunner`
    (``run(resume=...)`` returning the same summary shape, plus
    ``workers``/``failed_workers`` fields), and artifact-compatible: once a
    parallel campaign completes, its merged ``journal.jsonl`` and final
    ``checkpoint.json`` payload are byte-identical to a serial run's.
    """

    def __init__(
        self,
        config: CampaignConfig,
        out_dir: str | Path,
        *,
        workers: int = 2,
        trial_fn=None,
        audit: dict | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        use_cache: bool = True,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        if workers < 1:
            raise CampaignError("bad-workers", f"workers must be >= 1, got {workers}")
        check_batch_size(batch_size)
        self.config = config
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.workers = workers
        self.trial_fn = trial_fn
        self.audit = audit
        self.cache_bytes = cache_bytes
        self.use_cache = use_cache
        # like the cache knobs, the batch size shapes execution only — it
        # never enters the journalled config, so journal bytes are invariant
        # under any (workers, batch_size) combination; a faked trial body
        # has no vectorized equivalent, so it runs at batch size 1
        self.batch_size = batch_size if trial_fn is None else 1
        self.journal = CampaignJournal(self.out_dir / JOURNAL_NAME, genesis=config_genesis(config))
        self.checkpoint_path = self.out_dir / CHECKPOINT_NAME
        self._stop = threading.Event()
        self.models = discover_models(config)
        # trial_fn closures don't survive pickling; fork keeps them intact
        # (and is what lets workers inherit the parent's loaded modules)
        self._ctx = mp.get_context("fork")

    def request_stop(self) -> None:
        """Forward a graceful stop: every worker finishes its in-flight
        trial, journals it, and exits; the parent checkpoints and returns."""

        self._stop.set()

    def _checkpoint(
        self,
        done: set[int],
        canonical_records: int,
        canonical_head: str,
        marks: dict[int, int],
        heads: dict[int, str],
    ) -> None:
        next_index = next((i for i in range(self.config.n_trials) if i not in done), self.config.n_trials)
        workers = {}
        for w, n in sorted(marks.items()):
            mark = {"journalled": n}
            if w in heads:
                mark["chain_head"] = heads[w]
            workers[f"{w:02d}"] = mark
        payload = {
            "version": JOURNAL_VERSION,
            "n_trials": self.config.n_trials,
            "completed": len(done),
            "next_index": next_index,
            "journal_records": canonical_records,
            "chain_head": canonical_head,
            "workers": workers,
        }
        write_checkpoint(self.checkpoint_path, payload)

    def run(self, *, resume: bool = False) -> dict:
        # per-run metrics: see CampaignRunner.run — metrics.json must
        # describe this run only, not every run this process ever made
        get_registry().reset()
        get_tracer().reset()
        state = scan_campaign(self.out_dir, repair=True)
        if resume and (state.canonical_records or state.trials):
            header = validate_resume(state, self.config, read_checkpoint(self.checkpoint_path))
            self.models = list(header.get("models", self.models))
            done_trials = dict(state.trials)
            canonical_records = state.canonical_records
            canonical_head = (
                state.canonical_chain[-1] if state.canonical_chain else self.journal.genesis
            )
            heads = {w: c[-1] for w, c in state.shard_chains.items() if c}
        else:
            if state.canonical_records or state.trials:
                raise CampaignError(
                    "journal-exists",
                    f"{self.journal.path} (or a shard) already holds records; "
                    "pass resume=True / --resume",
                )
            header = header_record(self.config, self.models, self.audit)
            self.journal.append(header)
            done_trials = {}
            canonical_records = 1
            canonical_head = self.journal.head
            heads = {}
        # metric shards are per-run scratch; a shard from a dead run would
        # double-count if folded into this run's totals
        for stale in metrics_shards(self.out_dir).values():
            stale.unlink()

        # Publish the working set once, pre-fork: every artifact is loaded
        # and validated here exactly one time, then served zero-copy to all
        # workers.  The throwaway store carries the campaign's salvage
        # policy and no cache — these loads ARE the verification everyone
        # else amortizes.  `publish` unlinks the segment before returning,
        # so no /dev/shm entry can outlive this process, however it dies.
        plane = None
        if self.use_cache and self.trial_fn is None and self.models:
            plane = SharedMemoryPlane.publish(
                ArtifactStore(self.config.cache, allow_salvaged=self.config.allow_salvaged),
                self.models,
                max_bytes=self.cache_bytes,
            )

        n_workers = min(self.workers, max(1, len(self.models)))
        assignments = worker_assignments(
            self.config.n_trials, len(self.models), n_workers, set(done_trials)
        )
        marks = dict(state.shard_counts)
        progress = self._ctx.Queue()
        procs: dict[int, mp.process.BaseProcess] = {}
        for worker_id, assignment in assignments.items():
            if not assignment:
                continue
            proc = self._ctx.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    self.config,
                    str(self.out_dir),
                    self.models,
                    assignment,
                    done_trials,
                    self.trial_fn,
                    progress,
                    self.cache_bytes,
                    self.use_cache,
                    self.batch_size,
                    plane,
                ),
                name=f"campaign-w{worker_id:02d}",
            )
            proc.start()
            procs[worker_id] = proc

        done = set(done_trials)
        new_trials = 0
        forwarded_stop = False
        while True:
            if self._stop.is_set() and not forwarded_stop:
                for proc in procs.values():
                    proc.terminate()  # SIGTERM -> worker drains in-flight trial
                forwarded_stop = True
            try:
                worker_id, index, _outcome, shard_head = progress.get(timeout=0.2)
            except queue_mod.Empty:
                if all(not p.is_alive() for p in procs.values()):
                    break
                continue
            done.add(index)
            new_trials += 1
            marks[worker_id] = marks.get(worker_id, 0) + 1
            heads[worker_id] = shard_head
            self._checkpoint(done, canonical_records, canonical_head, marks, heads)
        for proc in procs.values():
            proc.join()
        progress.close()
        if plane is not None:
            # best-effort: the segment name is long unlinked; this just
            # releases the parent's mapping early instead of at process exit
            plane.close()

        failed_workers = sorted(w for w, p in procs.items() if p.exitcode != 0)
        # the shards are authoritative — a worker may have journalled a trial
        # and died before its progress event was consumed
        state = scan_campaign(self.out_dir, repair=True)
        done_trials = dict(state.trials)
        complete = state.complete(self.config.n_trials)
        if complete:
            _, chain_head = merge_journal(self.out_dir, header, done_trials)
            self.journal.prime_head(chain_head)
            canonical_records = 1 + len(done_trials)
            write_checkpoint(
                self.checkpoint_path,
                checkpoint_payload(self.config, done_trials, canonical_records, chain_head),
            )
        else:
            self._checkpoint(
                set(done_trials),
                canonical_records,
                canonical_head,
                state.shard_counts,
                {w: c[-1] for w, c in state.shard_chains.items() if c},
            )

        # fold worker metric shards (sorted by worker id) with the parent's
        # own registry into metrics.json — deterministic and out-of-band,
        # mirroring the journal-shard merge without touching journal bytes
        registry = get_registry()
        registry.gauge("campaign_workers").set(float(n_workers))
        registry.gauge("campaign_trials_completed").set(float(len(done_trials)))
        shards = [load_registry(p) for _, p in sorted(metrics_shards(self.out_dir).items())]
        merged = merge_registries([registry, *[s for s in shards if s is not None]])
        merged.write_json(self.out_dir / METRICS_NAME)
        for path in metrics_shards(self.out_dir).values():
            path.unlink()
        self.merged_registry = merged

        summary = summarize_trials(self.config, done_trials)
        summary.update(
            {
                "new_trials": new_trials,
                "stopped_early": not complete,
                "workers": n_workers,
                "failed_workers": failed_workers,
                "journal": str(self.journal.path),
                "checkpoint": str(self.checkpoint_path),
                "metrics": str(self.out_dir / METRICS_NAME),
            }
        )
        return summary
