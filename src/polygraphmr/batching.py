"""Batch planner + streamed numpy trial kernel for campaigns — the one
trial loop both campaign runners drive.

Run one by one, trials pay full Python-interpreter overhead each: spec
derivation, ensemble assembly, fault injection, and metric evaluation
all run once per trial even though much of that work is identical across
every trial of the same model.  (The decision gate is not among them: the
executor's per-model runtime memoises it, so it is fitted once per (member
set, artifact identity) on either path, never once per trial or chunk.)
This module turns contiguous runs of pending trials into **batches** that
share the fault-independent half (:func:`polygraphmr.faults.
prepare_degradation` — assemble + the memoised clean baseline, done once
per batch) and stream the fault-dependent half one trial at a time through
:func:`~polygraphmr.faults.degradation_report` (inject → sanitize →
features → predict → evaluate), the same function the per-trial path
runs.  One trial's faulted member stack (``M × N × C`` float64, 8 MB at
CIFAR shape) stays cache-resident through every stage, where a stacked
batch would be a DRAM-bound tensor many times the size of the last-level
cache.

The contract is the repo's north star: **journal bytes must be identical
at every batch size**, batch size 1 — every trial run on its own — being
the reference.  Three rules keep that true:

* **Windows preserve order.**  :func:`plan_windows` slices the ascending
  pending list into windows of ``batch_size × n_models`` contiguous
  indices.  A window's records are buffered and flushed to the journal in
  index order only when the whole window is done; on an early stop, only
  the maximal contiguous prefix is flushed and the rest is discarded for
  resume to re-run — so the canonical journal never holds an
  out-of-order or gapped record.
* **Breaker-bounded batching (probe then batch).**  Journalled breaker
  snapshots are per-trial state-machine history, so a batch is only legal
  while the board is *steady*.  The first trial of every per-model chunk
  runs on its own through :meth:`TrialExecutor.execute` as a probe (at
  batch size 1 every chunk is just its probe); the remainder is batched
  only if the probe's outcome was ``ok`` and the board advanced by
  exactly one tick with no breaker activity (:func:`board_is_steady`).
  Any trip, reopen, half-open probe, or non-ok outcome falls back to
  per-trial execution for the rest of the chunk — replaying exactly what
  batch size 1 would have journalled.
* **Serial fallback on kernel trouble.**  The batch kernel runs under a
  watchdog budget of ``timeout_s × k``; if it fires or the kernel raises,
  the board is restored to its post-probe snapshot, the store and
  runtimes are rebuilt, and the chunk's remainder re-runs trial by trial
  (which journals per-trial timeouts/errors exactly as batch size 1
  would).

Custom ``trial_fn`` injections (test fakes) force batch size 1 in both
runners, because a faked trial body has no kernel equivalent.
"""

from __future__ import annotations

import threading
import time

from .breaker import CLOSED
from .faults import degradation_report, prepare_degradation
from .faults import sanitize_probs_batch  # noqa: F401 - a binding benchmark/spans.py wraps
from .metrics import BATCH_SIZE_BUCKETS, get_registry
from .tracing import get_tracer

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "PRISTINE_BREAKER",
    "plan_windows",
    "board_is_steady",
    "BatchTrialEngine",
]

DEFAULT_BATCH_SIZE = 16

# a breaker the probe trial minted but never exercised: the state every
# entry starts in, and the only kind of *new* entry a steady board may gain
PRISTINE_BREAKER = {
    "state": CLOSED,
    "consecutive_failures": 0,
    "opened_at_tick": None,
    "n_skipped": 0,
}


def plan_windows(pending: list[int], n_models: int, batch_size: int) -> list[list[int]]:
    """Slice the ascending pending-trial list into flush windows.

    Each window spans ``batch_size × n_models`` contiguous entries so every
    model collects up to ``batch_size`` trials per window; the caller
    journals a window's records in index order before starting the next,
    which is what keeps the canonical journal gap-free under batching.
    """

    span = max(1, int(batch_size)) * max(1, int(n_models))
    return [pending[i : i + span] for i in range(0, len(pending), span)]


def board_is_steady(pre: dict, post: dict) -> bool:
    """Did the probe trial leave the breaker board in replayable state?

    Steady means: exactly one tick elapsed, every pre-existing breaker
    entry is byte-for-byte unchanged, and any entry the probe minted is
    pristine-closed.  On a steady board, every subsequent ok trial of the
    same model produces a snapshot that differs from the probe's only in
    ``tick_count`` — which is precisely what the batch kernel emits.  Any
    failure, trip, cooldown expiry, or half-open probe breaks steadiness
    and forces the chunk remainder back onto the per-trial path.
    """

    if post.get("tick_count") != pre.get("tick_count", 0) + 1:
        return False
    pre_breakers = pre.get("breakers", {})
    post_breakers = post.get("breakers", {})
    for key, snap in post_breakers.items():
        if snap != pre_breakers.get(key, PRISTINE_BREAKER):
            return False
    return all(key in post_breakers for key in pre_breakers)


class BatchTrialEngine:
    """Window/chunk driver that wraps a :class:`~polygraphmr.campaign.
    TrialExecutor` with the probe-then-batch fast path.

    The engine owns no journal: :meth:`execute_window` returns finished
    records for the caller (serial runner or parallel worker) to flush
    through its own journal — which is how one engine serves both the
    canonical journal and per-worker shards.
    """

    def __init__(self, executor, *, batch_size: int = DEFAULT_BATCH_SIZE):
        self.executor = executor
        self.batch_size = batch_size

    # -- window / group orchestration ------------------------------------

    def execute_window(self, indices: list[int], *, stop=None) -> tuple[list[dict], bool]:
        """Execute one window; returns ``(records, aborted)``.

        ``records`` is the maximal contiguous prefix of ``indices`` in
        index order — always safe to append to a journal whose invariant
        is ascending gap-free trial order.  ``aborted`` is True when a
        stop request cut the window short; any trials executed beyond the
        flushable prefix are discarded (their executor-side breaker ticks
        included), which is fine because an abort ends the run and resume
        re-executes them to the same bytes.
        """

        executor = self.executor
        groups: dict[str, list[int]] = {}
        for index in indices:
            model = executor.models[index % len(executor.models)]
            groups.setdefault(model, []).append(index)
        done: dict[int, dict] = {}
        aborted = False
        for idxs in groups.values():
            if stop is not None and stop.is_set():
                aborted = True
                break
            done.update(self._execute_group(idxs))
        records = []
        for index in indices:
            if index not in done:
                aborted = True
                break
            records.append(done[index])
        return records, aborted

    def _execute_group(self, idxs: list[int]) -> dict[int, dict]:
        records: dict[int, dict] = {}
        for start in range(0, len(idxs), self.batch_size):
            records.update(self._execute_chunk(idxs[start : start + self.batch_size]))
        return records

    def _execute_chunk(self, chunk: list[int]) -> dict[int, dict]:
        """Probe the first trial on its own; batch the remainder if the
        board stayed steady, otherwise replay the remainder trial by trial."""

        executor = self.executor
        registry = get_registry()
        model = executor.models[chunk[0] % len(executor.models)]
        pre = executor.board_for(model).snapshot()
        records = {chunk[0]: executor.execute(chunk[0])}
        rest = chunk[1:]
        if not rest:
            registry.histogram("campaign_batch_size", buckets=BATCH_SIZE_BUCKETS).observe(1.0)
            return records
        post = executor.board_for(model).snapshot()
        from .campaign import OUTCOME_OK

        if records[chunk[0]]["outcome"] != OUTCOME_OK or not board_is_steady(pre, post):
            registry.counter("campaign_batch_fallback_total", reason="breaker-activity").inc()
            for index in rest:
                records[index] = executor.execute(index)
            return records
        batched = self._run_guarded(model, rest, post)
        if batched is None:
            for index in rest:
                records[index] = executor.execute(index)
            return records
        records.update(batched)
        registry.histogram("campaign_batch_size", buckets=BATCH_SIZE_BUCKETS).observe(
            float(len(chunk))
        )
        return records

    def _run_guarded(self, model: str, indices: list[int], post_snapshot: dict):
        """Run the batch kernel under a ``timeout_s × k`` watchdog budget.

        Returns the records, or ``None`` after restoring the executor to
        its post-probe state — the caller then replays the trials through
        the per-trial path, which re-applies per-trial watchdog semantics.
        """

        executor = self.executor
        budget = executor.config.timeout_s * len(indices)
        box: dict = {}

        def target() -> None:
            try:
                box["value"] = self._run_batch(model, indices)
            except BaseException as exc:  # noqa: BLE001 - fallback, not crash
                box["error"] = exc

        if executor.config.timeout_s > 0:
            worker = threading.Thread(
                target=target, daemon=True, name=f"batch-{indices[0]}-{indices[-1]}"
            )
            worker.start()
            worker.join(budget)
            if worker.is_alive():
                get_registry().counter("campaign_batch_fallback_total", reason="timeout").inc()
                executor._rebuild_after_timeout(model, post_snapshot)
                return None
        else:
            target()
        if "error" in box:
            get_registry().counter("campaign_batch_fallback_total", reason="error").inc()
            # the kernel may have partially advanced the board before
            # raising; rebuild exactly as the per-trial timeout path does
            executor._rebuild_after_timeout(model, post_snapshot)
            return None
        return box["value"]

    # -- the numpy kernel -------------------------------------------------

    def _run_batch(self, model: str, indices: list[int]) -> dict[int, dict]:
        """Kernel execution of ``indices`` (all one model, board known
        steady): one context prep, each trial streamed through
        :func:`~polygraphmr.faults.degradation_report` — the per-trial
        path's own pipeline, so the results are its bytes — then per-trial
        record emission with the board ticked once per trial."""

        executor = self.executor
        config = executor.config
        registry = get_registry()
        from .campaign import OUTCOME_OK

        with get_tracer().span("campaign.batch", model=model, size=len(indices)) as span:
            start = time.perf_counter()
            if config.trial_sleep_s > 0:
                # the per-trial path sleeps per trial; the batch amortizes the
                # padding across the whole kernel run
                time.sleep(config.trial_sleep_s)
            specs = [executor.derive_spec(index) for index in indices]
            ctx = prepare_degradation(
                executor.store,
                model,
                runtime=executor.runtime_for(model),
                tick=False,
            )
            results = {spec.index: degradation_report(ctx, executor.fault_for(spec)) for spec in specs}
            elapsed = time.perf_counter() - start
            span.set(outcome=OUTCOME_OK)

        board = executor.board_for(model)
        trial_hist = registry.histogram("campaign_trial_seconds")
        per_trial = elapsed / len(indices)
        records: dict[int, dict] = {}
        for spec in specs:
            board.tick()
            records[spec.index] = {
                "type": "trial",
                "index": spec.index,
                "spec": spec.to_dict(),
                "outcome": OUTCOME_OK,
                "breakers": board.snapshot(),
                "result": results[spec.index],
            }
            # per-trial accounting stays per-trial so histogram counts
            # reconcile with trial counts; the duration is amortized
            trial_hist.observe(per_trial)
            registry.counter("campaign_trials_total", outcome=OUTCOME_OK).inc()
            registry.counter("campaign_batched_trials_total").inc()
            if spec.scenario is not None:
                registry.counter(
                    "campaign_scenario_trials_total", scenario=spec.scenario, outcome=OUTCOME_OK
                ).inc()
        return records
