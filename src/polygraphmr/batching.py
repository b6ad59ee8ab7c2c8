"""Journal windows: the trial loop both campaign runners drive.

Every trial runs on its own through :meth:`~polygraphmr.campaign.
TrialExecutor.execute` (→ :func:`~polygraphmr.faults.measure_degradation`),
under the executor's per-trial watchdog.  What the trials of a model share
— the member roster, the stacked splits, the fitted gate and the clean
baseline — is memoised by the model's
:class:`~polygraphmr.ensemble.EnsembleRuntime`, keyed on the artifacts'
identity, so a per-trial preparation costs a few ``stat`` calls once the
first trial has paid for it.

This module decides only when records reach the journal.
:func:`plan_windows` slices the ascending pending list into windows of
:data:`WINDOW_TRIALS` trials per model; :func:`execute_window` runs one
window's trials in index order and returns the contiguous prefix it
finished, which the caller (serial runner or parallel worker) flushes
through its own journal with one fsync and one checkpoint.  A stop request
ends the window after the in-flight trial: the finished prefix is flushed
and resume re-runs the rest to the same bytes, so the canonical journal
never holds an out-of-order or gapped record.
"""

from __future__ import annotations

from .faults import sanitize_probs_batch  # noqa: F401 - a binding benchmark/spans.py wraps

__all__ = ["WINDOW_TRIALS", "plan_windows", "execute_window"]

# trials per model between journal flushes (fsync + checkpoint)
WINDOW_TRIALS = 16


def plan_windows(pending: list[int], n_models: int) -> list[list[int]]:
    """Slice the ascending pending-trial list into flush windows of
    ``WINDOW_TRIALS × n_models`` contiguous entries, so every model collects
    up to :data:`WINDOW_TRIALS` trials per window."""

    span = WINDOW_TRIALS * max(1, int(n_models))
    return [pending[i : i + span] for i in range(0, len(pending), span)]


def execute_window(executor, indices: list[int], stop) -> tuple[list[dict], bool]:
    """Execute one window's trials in index order; returns ``(records,
    aborted)``.

    ``records`` is the finished prefix of ``indices``, in index order.
    ``aborted`` is True when ``stop`` (a :class:`threading.Event`) was set
    before every trial ran.
    """

    records = []
    for index in indices:
        if stop.is_set():
            return records, True
        records.append(executor.execute(index))
    return records, False
