"""Multiprocess campaign execution with a deterministic journal merge.

Fault-injection campaigns are embarrassingly parallel across trials
(MRFI-style sweeps), but parallelism must not weaken the campaign
subsystem's crash-safety or reproducibility guarantees.
:class:`ParallelCampaignRunner` is a
:class:`~polygraphmr.campaign.CampaignRunner` whose execution step fans out
to worker processes: opening, resuming or refusing the campaign directory,
the completion merge, the canonical checkpoint, the metrics fold and the
summary are the serial runner's own code.  The design keeps both
guarantees:

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
  truth until every trial is journalled; only then does the inherited
  completion step call :func:`~polygraphmr.campaign.merge_journal`, which
  atomically rewrites the canonical journal in index order — re-linking
  the unified hash chain from the campaign's canonical genesis — and
  deletes the shards.  A crash
  at any point — including between the replace and the shard cleanup —
  loses nothing: resume re-scans canonical + shards and accepts a trial
  journalled in both only when the two records agree (they do: trials are
  deterministic).  The re-linked journal is byte-identical to a serial
  run's, chain and all.
* **SIGTERM draining.**  The parent forwards SIGTERM to every worker;
  each worker finishes its in-flight trial, journals it, and exits
  cleanly.  The parent then checkpoints per-worker high-water marks and
  returns an incomplete summary (CLI exit 3), resumable with ``--resume``
  under *any* worker count.

Worker state is never shared across ``fork``: each worker constructs its
own :class:`~polygraphmr.store.ArtifactStore`, artifact cache and ensemble
runtimes after the fork, inside its own :class:`TrialExecutor`.  Because
ownership is partitioned by model, each artifact is loaded and validated
by exactly one worker's cache — the same loads, hits and misses a serial
run makes, split across processes.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import signal
import sys
import threading
from pathlib import Path

from .batching import execute_window, plan_windows
from .cache import DEFAULT_CACHE_BYTES
from .campaign import (
    CampaignConfig,
    CampaignJournal,
    CampaignRunner,
    CampaignState,
    TrialExecutor,
    chain_genesis,
    checkpoint_payload,
    config_chain_hash,
    scan_campaign,
    shard_name,
    write_checkpoint,
)
from .errors import CampaignError
from .metrics import MetricsRegistry, get_registry, metrics_shard_name, set_registry

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
) -> None:
    """One worker process: drain ``assignment`` through a private
    :class:`TrialExecutor` into a private journal shard.

    SIGTERM/SIGINT set a stop flag checked *between* trials, so the
    in-flight trial always finishes and the window's finished prefix is
    journalled before exit — the same draining contract as the serial
    runner.
    """

    stop = threading.Event()

    def handle_stop(_signum, _frame):
        stop.set()

    # replace whatever handlers the parent installed (they reference the
    # parent's runner, which fork duplicated into this process)
    signal.signal(signal.SIGTERM, handle_stop)
    signal.signal(signal.SIGINT, handle_stop)

    # fork duplicated the parent's metrics registry into this process;
    # start fresh so the shard carries only this worker's deltas
    set_registry(MetricsRegistry())

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
        )
        executor.restore_boards(done_trials)
        # window over the models this worker owns, flush whole windows
        # through the shard with one fsync, then report per-record progress
        # — each event carries the chain head *as of that record* so a
        # parent checkpoint taken mid-window stays position-consistent with
        # the shard chain on resume
        n_owned = len({index % len(models) for index in assignment}) or 1
        for window in plan_windows(assignment, n_owned):
            records, aborted = execute_window(executor, window, stop)
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


class ParallelCampaignRunner(CampaignRunner):
    """A :class:`~polygraphmr.campaign.CampaignRunner` whose execution step
    fans out to ``workers`` forked processes.

    Opening, resuming or refusing the directory, the completion merge, the
    canonical checkpoint, the metrics fold and the summary are all
    inherited; this class adds only the worker fan-out, per-worker
    high-water checkpoints while the workers run, and the re-scan of the
    shards once they exit.  The summary gains ``workers`` and
    ``failed_workers`` fields; once a parallel campaign completes, its
    merged ``journal.jsonl`` and final ``checkpoint.json`` are
    byte-identical to a serial run's.
    """

    def __init__(self, config: CampaignConfig, out_dir: str | Path, *, workers: int = 2, **kwargs):
        if workers < 1:
            raise CampaignError("bad-workers", f"workers must be >= 1, got {workers}")
        super().__init__(config, out_dir, **kwargs)
        self.workers = workers
        # trial_fn closures don't survive pickling; fork keeps them intact
        # (and is what lets workers inherit the parent's loaded modules)
        self._ctx = mp.get_context("fork")

    def run(self, *, resume: bool = False) -> dict:
        """Run (or resume) the campaign; ``max_new_trials`` is a serial-only
        test hook, so it is not accepted here."""

        return super().run(resume=resume)

    def _checkpoint(
        self,
        done: set[int],
        canonical_records: int,
        canonical_head: str,
        marks: dict[int, int],
        heads: dict[int, str],
    ) -> None:
        """The canonical checkpoint body plus a ``workers`` stanza: each
        worker's journalled high-water mark and its shard's chain head."""

        payload = checkpoint_payload(self.config, done, canonical_records, canonical_head)
        payload["workers"] = {}
        for w, n in sorted(marks.items()):
            mark = payload["workers"][f"{w:02d}"] = {"journalled": n}
            if w in heads:
                mark["chain_head"] = heads[w]
        write_checkpoint(self.checkpoint_path, payload)

    def _execute(self, state: CampaignState, max_new_trials: int | None) -> tuple[dict[int, dict], dict]:
        """The execution step, fanned out: fork one worker per non-empty
        assignment, checkpoint per-worker high-water marks as progress
        arrives, then re-scan the shards once every worker has exited."""

        n_workers = min(self.workers, max(1, len(self.models)))
        assignments = worker_assignments(
            self.config.n_trials, len(self.models), n_workers, set(state.trials)
        )
        canonical_records, canonical_head = len(state.canonical_chain), state.canonical_chain[-1]
        marks = {w: len(c) for w, c in state.shard_chains.items()}
        heads = {w: c[-1] for w, c in state.shard_chains.items() if c}
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
                    state.trials,
                    self.trial_fn,
                    progress,
                    self.cache_bytes,
                    self.use_cache,
                ),
                name=f"campaign-w{worker_id:02d}",
            )
            proc.start()
            procs[worker_id] = proc

        done = set(state.trials)
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

        # the shards are authoritative — a worker may have journalled a trial
        # and died before its progress event was consumed
        state = scan_campaign(self.out_dir, repair=True)
        state.raise_finding()
        complete = state.complete(self.config.n_trials)
        if not complete:
            self._checkpoint(
                set(state.trials),
                canonical_records,
                canonical_head,
                {w: len(c) for w, c in state.shard_chains.items()},
                {w: c[-1] for w, c in state.shard_chains.items() if c},
            )
        get_registry().gauge("campaign_workers").set(float(n_workers))
        return dict(state.trials), {
            "new_trials": new_trials,
            "stopped_early": not complete,
            "workers": n_workers,
            "failed_workers": sorted(w for w, p in procs.items() if p.exitcode != 0),
        }
