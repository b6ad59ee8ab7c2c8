"""The campaign trial loop: every trial runs on its own through
``TrialExecutor.execute`` and is journalled in windows of
``WINDOW_TRIALS`` trials per model.  The window is a flush cadence only —
the journal holds exactly what the executor returned, in index order, and a
run interrupted mid-window resumes to the same bytes.  What the trials of a
model share (roster, stacks, gate, clean baseline) is memoised per model
and must stay invisible on disk: a memo-free run journals the same bytes.
Plus hypothesis properties pinning the vectorized injectors to the
loop-based reference oracles element-for-element."""

from __future__ import annotations

import dataclasses
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygraphmr.batching import WINDOW_TRIALS, execute_window, plan_windows
from polygraphmr.campaign import (
    CHECKPOINT_NAME,
    JOURNAL_NAME,
    CampaignConfig,
    CampaignJournal,
    CampaignRunner,
    TrialExecutor,
    discover_models,
    scenarios_config_field,
    verify_campaign,
)
from polygraphmr.decision import FEATURE_NAMES, ensemble_features, ensemble_features_batch
from polygraphmr.ensemble import EnsembleRuntime
from polygraphmr.faults import (
    FAULT_MODELS,
    SURFACES,
    FaultSpec,
    _inject,
    corrupt_file_truncate,
    draw_fault,
    fault_dtype,
    measure_degradation,
    sanitize_probs_batch,
)
from polygraphmr.metrics import get_registry
from polygraphmr.scenarios import builtin_scenarios, resolve_scenarios
from polygraphmr.store import ArtifactStore

from . import oracles

SWEEP = ("channel-bitflip-10pct", "quantize-4bit", "stuck-at-zero-1pct")


def _config(cache, **overrides) -> CampaignConfig:
    base = dict(cache=str(cache), n_trials=12, seed=7, timeout_s=60.0)
    base.update(overrides)
    return CampaignConfig(**base)


def _sweep_config(cache, **overrides) -> CampaignConfig:
    overrides.setdefault("scenarios", scenarios_config_field(resolve_scenarios(SWEEP)))
    return _config(cache, **overrides)


def _bytes(out_dir) -> tuple[bytes, bytes]:
    return (out_dir / JOURNAL_NAME).read_bytes(), (out_dir / CHECKPOINT_NAME).read_bytes()


def _fits() -> int:
    """Decision-gate fits of the latest campaign run in this process."""

    return get_registry().histogram("decision_fit_seconds").count


def _stacks(split: str) -> int:
    return get_registry().counter_value("ensemble_stacks_total", split=split)


class TestPlanner:
    def test_windows_tile_the_pending_list_in_order(self):
        pending = list(range(70))
        windows = plan_windows(pending, 4)
        assert [w for win in windows for w in win] == pending
        assert [len(w) for w in windows] == [64, 6]

    def test_degenerate_model_count_clamps_to_one(self):
        assert plan_windows(list(range(20)), 0) == [list(range(16)), list(range(16, 20))]
        assert plan_windows([], 4) == []

    def test_span_scales_with_models_so_each_gets_a_full_window(self):
        assert WINDOW_TRIALS == 16
        assert [len(w) for w in plan_windows(list(range(100)), 3)] == [48, 48, 4]


class TestJournalBatchFlush:
    def test_append_many_matches_sequential_appends_and_returns_seals(self, tmp_path):
        records = [{"type": "trial", "index": i, "payload": i * 3} for i in range(5)]
        one = CampaignJournal(tmp_path / "one.jsonl")
        heads = []
        for record in records:
            one.append(dict(record))
            heads.append(one.head)
        many = CampaignJournal(tmp_path / "many.jsonl")
        seals = many.append_many([dict(r) for r in records])
        assert (tmp_path / "many.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()
        assert seals == heads
        assert many.append_many([]) == []


class TestWindowLoop:
    def test_journal_holds_what_the_executor_returns(self, multi_model_cache, tmp_path):
        config = _config(multi_model_cache)
        summary = CampaignRunner(config, tmp_path / "out").run()
        assert summary["completed"] == config.n_trials
        executor = TrialExecutor(config, discover_models(config))
        expected = [executor.execute(i) for i in range(config.n_trials)]
        journalled = CampaignJournal(tmp_path / "out" / JOURNAL_NAME).trial_records()
        got = [{k: v for k, v in journalled[i].items() if k not in ("prev", "sha256")} for i in sorted(journalled)]
        assert got == expected
        assert verify_campaign(tmp_path / "out")["exit_code"] == 0

    def test_interrupted_mid_window_run_resumes_to_identical_bytes(self, multi_model_cache, tmp_path):
        config = _config(multi_model_cache)
        CampaignRunner(config, tmp_path / "straight").run()
        partial = CampaignRunner(config, tmp_path / "out").run(max_new_trials=5)
        assert partial["stopped_early"] and partial["completed"] == 5
        resumed = CampaignRunner(config, tmp_path / "out").run(resume=True)
        assert resumed["completed"] == config.n_trials
        assert _bytes(tmp_path / "out") == _bytes(tmp_path / "straight")
        assert verify_campaign(tmp_path / "out")["exit_code"] == 0


class _CountingExecutor:
    """Stands in for a TrialExecutor: records the indices it ran and sets
    ``stop`` once ``stop_after`` trials have finished."""

    def __init__(self, stop: threading.Event, stop_after: int | None):
        self.stop, self.stop_after, self.ran = stop, stop_after, []

    def execute(self, index: int) -> dict:
        self.ran.append(index)
        if self.stop_after is not None and len(self.ran) >= self.stop_after:
            self.stop.set()
        return {"index": index}


class TestExecuteWindow:
    @pytest.mark.parametrize("stop_after", [1, 3, 5, None])
    def test_stop_ends_the_window_after_the_in_flight_trial(self, stop_after):
        stop = threading.Event()
        executor = _CountingExecutor(stop, stop_after)
        window = [4, 9, 12, 17, 30]
        records, aborted = execute_window(executor, window, stop)
        ran = window if stop_after is None else window[:stop_after]
        assert executor.ran == ran
        assert records == [{"index": i} for i in ran]
        # a stop raised by the window's last trial finds nothing left to skip
        assert aborted == (len(ran) < len(window))

    def test_a_stop_raised_before_the_window_runs_nothing(self):
        stop = threading.Event()
        stop.set()
        executor = _CountingExecutor(stop, None)
        assert execute_window(executor, [0, 1, 2], stop) == ([], True)
        assert executor.ran == []


class TestFlushCadence:
    """One journal flush and one checkpoint per window of WINDOW_TRIALS
    trials per model, whatever the trials cost."""

    @pytest.mark.parametrize(
        ("cache_fixture", "n_trials", "windows"),
        [
            ("synthetic_cache", WINDOW_TRIALS, 1),
            ("synthetic_cache", 2 * WINDOW_TRIALS + 8, 3),
            ("multi_model_cache", 12, 1),
            ("multi_model_cache", 4 * WINDOW_TRIALS + 1, 2),
        ],
    )
    def test_one_flush_and_one_checkpoint_per_window(
        self, request, tmp_path, monkeypatch, cache_fixture, n_trials, windows
    ):
        cache = request.getfixturevalue(cache_fixture)
        flushes, checkpoints = [], []
        real_append, real_checkpoint = CampaignJournal.append_many, CampaignRunner._write_checkpoint

        def append_many(self, records):
            if records[0]["type"] == "trial":  # the header's append is no window flush
                flushes.append([r["index"] for r in records])
            return real_append(self, records)

        def write_checkpoint(self, *args):
            checkpoints.append(1)
            return real_checkpoint(self, *args)

        monkeypatch.setattr(CampaignJournal, "append_many", append_many)
        monkeypatch.setattr(CampaignRunner, "_write_checkpoint", write_checkpoint)
        config = _config(cache, n_trials=n_trials)
        assert CampaignRunner(config, tmp_path / "out").run()["completed"] == n_trials
        assert [i for flush in flushes for i in flush] == list(range(n_trials))
        assert len(flushes) == len(checkpoints) == windows


class TestResumeAcrossWindows:
    """A run stopped before, on, or after a window boundary resumes to the
    bytes of a run that never stopped."""

    N_TRIALS = 2 * WINDOW_TRIALS + 8

    @pytest.mark.parametrize(
        "stop_at", [1, WINDOW_TRIALS - 1, WINDOW_TRIALS, WINDOW_TRIALS + 1, 2 * WINDOW_TRIALS + 1]
    )
    def test_stop_after_n_then_resume_is_byte_identical(self, synthetic_cache, tmp_path, stop_at):
        config = _config(synthetic_cache, n_trials=self.N_TRIALS)
        CampaignRunner(config, tmp_path / "straight").run()
        partial = CampaignRunner(config, tmp_path / "out").run(max_new_trials=stop_at)
        assert partial["stopped_early"] and partial["completed"] == stop_at
        assert sorted(CampaignJournal(tmp_path / "out" / JOURNAL_NAME).trial_records()) == list(range(stop_at))
        resumed = CampaignRunner(config, tmp_path / "out").run(resume=True)
        assert resumed["completed"] == self.N_TRIALS
        assert _bytes(tmp_path / "out") == _bytes(tmp_path / "straight")
        assert verify_campaign(tmp_path / "out")["exit_code"] == 0

    def test_tripping_breakers_resume_to_identical_bytes(self, multi_model_cache, tmp_path):
        victim = multi_model_cache / "net-01"
        for split in ("val", "test"):
            target = victim / f"pp-Gamma_2.{split}.probs.npz"
            corrupt_file_truncate(target, target, keep_fraction=0.2, seed=5)
        config = _config(multi_model_cache, failure_threshold=2, cooldown_ticks=1)
        straight = CampaignRunner(config, tmp_path / "straight").run()
        assert straight["breakers"], "stressor failed to trip any breaker"
        CampaignRunner(config, tmp_path / "out").run(max_new_trials=5)
        resumed = CampaignRunner(config, tmp_path / "out").run(resume=True)
        assert resumed["breakers"] == straight["breakers"]
        assert _bytes(tmp_path / "out") == _bytes(tmp_path / "straight")

    def test_custom_trial_fn_is_journalled_through_the_windows(self, bare_cache, tmp_path):
        n_trials = WINDOW_TRIALS + 4
        config = _config(bare_cache("m"), n_trials=n_trials)
        runner = CampaignRunner(config, tmp_path / "out", trial_fn=lambda spec: {"seed": spec.fault_seed})
        assert runner.run()["completed"] == n_trials
        trials = CampaignJournal(tmp_path / "out" / JOURNAL_NAME).trial_records()
        assert sorted(trials) == list(range(n_trials))
        executor = TrialExecutor(config, ["m"])
        assert [trials[i]["result"] for i in range(n_trials)] == [
            {"seed": executor.derive_spec(i).fault_seed} for i in range(n_trials)
        ]


class TestWatchdog:
    def test_timeouts_are_journalled_and_resume_identically(self, multi_model_cache, tmp_path, monkeypatch):
        # the trial body blocks until the test ends, so it outlasts the
        # watchdog by construction: every trial times out
        release = threading.Event()

        def blocked(self, spec):
            release.wait()
            return {}

        monkeypatch.setattr(TrialExecutor, "_run_trial", blocked)
        config = _config(multi_model_cache, n_trials=8, timeout_s=0.02)
        try:
            straight = CampaignRunner(config, tmp_path / "straight").run()
            assert straight["outcomes"] == {"ok": 0, "error": 0, "trial_timeout": 8}
            CampaignRunner(config, tmp_path / "out").run(max_new_trials=3)
            CampaignRunner(config, tmp_path / "out").run(resume=True)
        finally:
            release.set()
        assert _bytes(tmp_path / "out") == _bytes(tmp_path / "straight")
        # the registry holds the latest run: the resume's five trials
        assert get_registry().counter("campaign_watchdog_fired_total").value == 5

    def test_next_trial_after_a_timeout_runs_on_a_new_thread(self, synthetic_cache, monkeypatch):
        """The trial thread lives across trials; a timed-out trial keeps its
        thread, which exits once the trial returns, and later trials run on
        a new one against a rebuilt store — reporting what a fresh store
        reports."""

        release = threading.Event()
        threads: dict[int, threading.Thread] = {}
        real = TrialExecutor._run_trial

        def run_trial(self, spec):
            threads[spec.index] = threading.current_thread()
            if spec.index == 1:
                release.wait()
            return real(self, spec)

        monkeypatch.setattr(TrialExecutor, "_run_trial", run_trial)
        config = _config(synthetic_cache, n_trials=5, timeout_s=2.0)
        executor = TrialExecutor(config, discover_models(config))
        try:
            records = [executor.execute(i) for i in range(5)]
        finally:
            release.set()
            executor.close()
        assert [r["outcome"] for r in records] == ["ok", "trial_timeout", "ok", "ok", "ok"]
        assert threads[0] is threads[1]
        assert threads[2] is not threads[1] and threads[2] is threads[3] is threads[4]
        for index in (0, 2, 3, 4):
            spec = executor.derive_spec(index)
            fresh = measure_degradation(ArtifactStore(synthetic_cache), spec.model, executor.fault_for(spec))
            assert records[index]["result"] == fresh
        deadline = time.monotonic() + 30
        while any(t.is_alive() for t in threads.values()) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(t.is_alive() for t in threads.values()), "a trial thread outlived its executor"

    def test_disabled_timeout_still_runs_on_the_trial_thread(self, multi_model_cache, tmp_path, monkeypatch):
        """``timeout_s <= 0`` waits for each trial with no deadline, on the
        same reused trial thread, and journals the trials a watched run
        journals: only the config (header and chain links) differs."""

        threads: dict[float, set[str]] = {}
        real = TrialExecutor._run_trial

        def run_trial(self, spec):
            threads.setdefault(self.config.timeout_s, set()).add(threading.current_thread().name)
            return real(self, spec)

        monkeypatch.setattr(TrialExecutor, "_run_trial", run_trial)

        def trials(timeout_s: float) -> list[dict]:
            out = tmp_path / f"timeout-{timeout_s:g}"
            summary = CampaignRunner(_config(multi_model_cache, timeout_s=timeout_s), out).run()
            assert summary["outcomes"]["ok"] == summary["n_trials"]
            records = CampaignJournal(out / JOURNAL_NAME).trial_records()
            return [{k: v for k, v in records[i].items() if k not in ("prev", "sha256")} for i in sorted(records)]

        assert trials(0.0) == trials(60.0)
        assert threads == {0.0: {"campaign-trial"}, 60.0: {"campaign-trial"}}

    def test_negative_timeout_waits_out_a_slow_trial(self, synthetic_cache, monkeypatch):
        """A negative ``timeout_s`` disables the watchdog like zero does: a
        trial that runs longer than any small deadline is still waited for
        and journalled ``ok``, and the watchdog never fires."""

        real = TrialExecutor._run_trial

        def slow(self, spec):
            time.sleep(0.2)
            return real(self, spec)

        monkeypatch.setattr(TrialExecutor, "_run_trial", slow)
        config = _config(synthetic_cache, n_trials=2, timeout_s=-1.0)
        executor = TrialExecutor(config, discover_models(config))
        try:
            records = [executor.execute(i) for i in range(2)]
        finally:
            executor.close()
        assert [r["outcome"] for r in records] == ["ok", "ok"]
        assert get_registry().counter("campaign_watchdog_fired_total").value == 0


class TestMemoisedRuntimeMatchesAFreshOne:
    """Every trial reports what a fresh, memo-free store and runtime report
    for its spec, on every built-in scenario — the memos are invisible."""

    @pytest.mark.parametrize("scenario", sorted(builtin_scenarios()))
    def test_every_trial_matches_a_fresh_runtime(self, synthetic_cache, scenario):
        config = _config(
            synthetic_cache, n_trials=4, scenarios=scenarios_config_field(resolve_scenarios([scenario]))
        )
        executor = TrialExecutor(config, discover_models(config))
        for index in range(config.n_trials):
            record = executor.execute(index)
            assert record["outcome"] == "ok"
            spec = executor.derive_spec(index)
            fresh = measure_degradation(ArtifactStore(synthetic_cache), spec.model, executor.fault_for(spec))
            assert record["result"] == fresh, f"trial {index} diverged from a fresh runtime"


class TestSharedWorkIsMemoised:
    """A model's trials share one roster scan and one stack per split while
    its files do not change, and the sharing never shows on disk."""

    def test_one_scan_and_one_stack_per_split_over_64_trials(self, synthetic_cache, tmp_path, monkeypatch):
        scans = []
        real = ArtifactStore.scan_model
        monkeypatch.setattr(ArtifactStore, "scan_model", lambda self, m: scans.append(m) or real(self, m))
        config = _config(synthetic_cache, n_trials=64)
        assert CampaignRunner(config, tmp_path / "out").run()["outcomes"]["ok"] == 64
        assert scans == ["tinynet"]
        assert _stacks("val") == _stacks("test") == 1
        assert _fits() == 1

    def test_uncached_run_is_byte_identical_to_a_cached_run(self, multi_model_cache, tmp_path):
        config = _sweep_config(multi_model_cache)
        CampaignRunner(config, tmp_path / "cached").run()
        assert _stacks("test") == 4  # one per model
        CampaignRunner(config, tmp_path / "uncached", use_cache=False).run()
        assert _stacks("test") == config.n_trials  # fresh arrays, restacked every trial
        assert _bytes(tmp_path / "uncached") == _bytes(tmp_path / "cached")


class TestGateFitOncePerModel:
    """Each model's runtime memoises its fitted gate, so a run fits it once
    — and the journal bytes do not move."""

    def test_one_fit_per_model(self, synthetic_cache, add_model, tmp_path):
        add_model(synthetic_cache, "net-b")
        config = _config(synthetic_cache, n_trials=32)
        CampaignRunner(config, tmp_path / "out").run()
        assert _fits() == 2

    def test_weights_faults_leave_the_memoised_gate_pristine(self, synthetic_cache, tmp_path):
        config = _config(
            synthetic_cache,
            n_trials=8,
            scenarios=scenarios_config_field(resolve_scenarios(["gate-weights-bitflip-1"])),
        )
        runner = CampaignRunner(config, tmp_path / "out")
        assert runner.run()["outcomes"]["ok"] == 8
        assert _fits() == 1  # one gate served every trial
        gate = runner.executor.runtime_for("tinynet").session("tinynet").module
        fresh = EnsembleRuntime(ArtifactStore(synthetic_cache)).session("tinynet").module
        assert gate.w.tobytes() == fresh.w.tobytes() and gate.b == fresh.b

    def test_weights_trial_after_probs_trials_matches_a_fresh_executor(self, synthetic_cache):
        """A gate-weights trial scores the shared clean features after probs
        trials ran the shared gate on their own features; it must report
        what it reports on an executor that ran nothing before it."""

        sweep = ("channel-bitflip-10pct", "gate-weights-bitflip-1")
        base = _sweep_config(synthetic_cache, n_trials=8, scenarios=scenarios_config_field(resolve_scenarios(sweep)))
        for seed in range(100):
            config = dataclasses.replace(base, seed=seed)
            executor = TrialExecutor(config, discover_models(config))
            order = [executor.derive_spec(i).scenario for i in range(8)]
            if order[0] == sweep[0] and sweep[1] in order:
                break
        else:
            pytest.fail("no seed puts a weights trial after a probs trial")
        index = order.index(sweep[1])
        records = [executor.execute(i) for i in range(index + 1)]
        spec = executor.derive_spec(index)
        fresh = measure_degradation(ArtifactStore(synthetic_cache), spec.model, executor.fault_for(spec))
        assert records[index]["result"] == fresh


class TestCleanBaselineMemo:
    """Each runtime scores a member set's clean test split once per test
    artifact identity and gate; the journal does not move."""

    def test_one_clean_scoring_per_model_in_a_steady_run(self, synthetic_cache, add_model, tmp_path, clean_scorings):
        add_model(synthetic_cache, "net-b")
        config = _config(synthetic_cache, n_trials=32)
        assert CampaignRunner(config, tmp_path / "out").run()["outcomes"]["ok"] == 32
        assert len(clean_scorings) == 2

    def test_journal_bytes_match_a_run_that_never_reuses_the_baseline(self, multi_model_cache, tmp_path, monkeypatch):
        sweep = resolve_scenarios(SWEEP + ("gate-weights-bitflip-1",))
        config = _sweep_config(multi_model_cache, n_trials=16, scenarios=scenarios_config_field(sweep))
        CampaignRunner(config, tmp_path / "memo").run()
        real = EnsembleRuntime.clean_baseline

        def fresh(self, session):
            self._baselines.clear()
            return real(self, session)

        monkeypatch.setattr(EnsembleRuntime, "clean_baseline", fresh)
        CampaignRunner(config, tmp_path / "fresh").run()
        assert _bytes(tmp_path / "memo") == _bytes(tmp_path / "fresh")


class TestMemoInvalidation:
    """Files changing between trials: the next trial must see them exactly as
    a fresh runtime would."""

    def _executor(self, cache, n_trials=8) -> TrialExecutor:
        config = _config(cache, n_trials=n_trials)
        return TrialExecutor(config, discover_models(config))

    def _fresh_result(self, cache, executor, index) -> dict:
        spec = executor.derive_spec(index)
        return measure_degradation(ArtifactStore(cache), spec.model, executor.fault_for(spec))

    def test_added_and_removed_member_replans_like_a_fresh_scan(self, synthetic_cache, write_probs):
        executor = self._executor(synthetic_cache)
        runtime = executor.runtime_for("tinynet")
        mdir = synthetic_cache / "tinynet"

        def fresh_plan():
            return EnsembleRuntime(ArtifactStore(synthetic_cache)).member_plan("tinynet")

        executor.execute(0)
        org = {split: np.load(mdir / f"ORG.{split}.probs.npz")["probs"] for split in ("val", "test")}
        for split, probs in org.items():
            write_probs(mdir / f"pp-AdHist.{split}.probs.npz", np.roll(probs, 1, axis=-1))
        record = executor.execute(1)
        assert runtime.member_plan("tinynet") == fresh_plan()
        assert "pp-AdHist" in record["result"]["members"]
        assert record["result"] == self._fresh_result(synthetic_cache, executor, 1)
        for path in mdir.glob("pp-AdHist.*"):
            path.unlink()
        record = executor.execute(2)
        assert runtime.member_plan("tinynet") == fresh_plan()
        assert "pp-AdHist" not in record["result"]["members"]
        assert record["result"] == self._fresh_result(synthetic_cache, executor, 2)

    def test_member_rewritten_in_place_is_restacked(self, synthetic_cache, write_probs):
        executor = self._executor(synthetic_cache)
        executor.execute(0)
        assert _stacks("test") == 1
        path = synthetic_cache / "tinynet" / "pp-Hist.test.probs.npz"
        write_probs(path, np.roll(np.load(path)["probs"], 1, axis=-1))
        st = os.stat(path)  # a new signature even where timestamps are coarse
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
        record = executor.execute(1)
        assert _stacks("test") == 2 and _stacks("val") == 1
        assert record["result"] == self._fresh_result(synthetic_cache, executor, 1)


class TestPerTrialMemory:
    @pytest.mark.parametrize("kind", ["bitflip", "gaussian"])
    def test_peak_memory_is_one_trial(self, wide_cache, kind):
        """After a warm-up trial, trials reuse the memoised stacks and free
        their own arrays: 16 trials peak near one trial's faulted stack, not
        a restack per trial nor the sum over trials."""

        config = _config(wide_cache, n_trials=17, kinds=(kind,), rates=(0.01,), sigmas=(0.05,))
        executor = TrialExecutor(config, discover_models(config))
        executor.execute(0)
        stack_bytes = executor.runtime_for("wide").session("wide").test_stack.nbytes
        tracemalloc.start()
        try:
            records = [executor.execute(i) for i in range(1, 17)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r["outcome"] == "ok" for r in records)
        assert peak < 3 * stack_bytes, f"peak {peak / stack_bytes:.2f}× one trial's stack"

    def test_sparse_bitflip_trial_peaks_below_a_quarter_stack(self, wide_cache):
        """A 0.1% bit-flip trial after warm-up gathers the few samples it
        touches and splices them into the memoised reference: it peaks below
        a quarter of one float64 test stack."""

        config = _config(wide_cache, n_trials=3, kinds=("bitflip",), rates=(0.001,))
        executor = TrialExecutor(config, discover_models(config))
        executor.execute(0)  # warm-up: stacks, gate, clean baseline, float32 reference
        float64_stack = executor.runtime_for("wide").session("wide").test_stack.size * 8
        tracemalloc.start()
        try:
            record = executor.execute(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record["outcome"] == "ok"
        assert peak < float64_stack / 4, f"peak {peak / float64_stack:.3f}× one float64 stack"


class TestWarmTrialStats:
    def test_each_artifact_file_is_statted_once_per_warm_trial(self, wide_cache, monkeypatch):
        """A warm trial stats each member's val and test probs and the two
        label files once: 22 calls at 10 members, none twice."""

        config = _config(wide_cache, n_trials=3)
        executor = TrialExecutor(config, discover_models(config))
        executor.execute(0)
        statted = []
        real = os.stat
        monkeypatch.setattr(os, "stat", lambda path, *a, **k: statted.append(os.fspath(path)) or real(path, *a, **k))
        assert executor.execute(1)["outcome"] == "ok"
        monkeypatch.undo()
        members = executor.runtime_for("wide").session("wide").members
        assert len(members) == 10
        assert len(statted) == len(set(statted)) == 2 * (len(members) + 1)


class TestScenarioResolutionHoisting:
    def test_one_resolution_per_campaign(self, synthetic_cache, tmp_path, monkeypatch):
        """Regression: derive_trial_spec used to re-parse the scenario list on
        every call in the hot loop; resolution is now hoisted into the
        executor, so a whole campaign parses each scenario exactly once."""

        import polygraphmr.scenarios as scenarios_mod
        from polygraphmr.campaign import _scenarios_from_canonical

        config = _sweep_config(synthetic_cache)
        _scenarios_from_canonical.cache_clear()
        real = scenarios_mod.parse_scenario
        calls = []
        monkeypatch.setattr(
            scenarios_mod, "parse_scenario", lambda d: calls.append(1) or real(d)
        )
        summary = CampaignRunner(config, tmp_path / "out").run()
        assert summary["completed"] == config.n_trials
        assert len(calls) == len(SWEEP), "scenario list was re-parsed in the hot loop"


# ---------------------------------------------------------------------------
# hypothesis properties: vectorized injectors ≡ loop-based oracles
# ---------------------------------------------------------------------------


@st.composite
def _batch_case(draw):
    """A batch of 2-D slices (a member's probs) or 1-D slices (the shape of
    the gate-weights vector), and the one seed every slice shares."""

    b = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=2, max_value=6))
    c = draw(st.integers(min_value=2, max_value=5))
    shape = draw(st.sampled_from([(b, n, c), (b, n * c)]))
    seed = draw(st.integers(min_value=0, max_value=5))
    base = draw(st.integers(min_value=0, max_value=99))
    stacked = np.random.default_rng(base).random(shape)
    return stacked, seed


FAULT_PARAMS = st.fixed_dictionaries(
    {
        "surface": st.sampled_from(SURFACES),
        "kind": st.sampled_from(FAULT_MODELS),
        "rate": st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        "sigma": st.sampled_from([0.0, 0.3, 1.5]),
        "step": st.sampled_from([0.0625, 0.25]),
        "count": st.integers(min_value=0, max_value=5),
    }
)


def _assert_each_slice(inject, stacked: np.ndarray, expected) -> None:
    """``inject(stacked)`` equals ``expected(slice)`` on every slice, dtype
    included, and so does each slice injected as a batch of one; the input
    is never written."""

    before = stacked.copy()
    batched = inject(stacked)
    assert np.array_equal(stacked, before), "injection mutated its input"
    for i in range(len(stacked)):
        want = expected(stacked[i])
        assert batched[i].dtype == want.dtype
        assert np.array_equal(batched[i], want), f"slice {i} diverged from the oracle"
        assert np.array_equal(inject(stacked[i][None])[0], want), f"batch of one diverged at slice {i}"


class TestVectorizedInjectorProperties:
    """Every member of a trial shares its seed, so every slice of a batch
    gets the same draw and each must equal the per-tensor oracle run with a
    generator of that seed."""

    @settings(max_examples=40)
    @given(case=_batch_case(), params=FAULT_PARAMS)
    def test_draw_fault_equals_the_oracle_on_every_slice(self, case, params):
        """The full surface × kind grid: :func:`draw_fault` on one slice's
        shape, applied by the injector every trial uses."""

        stacked, seed = case
        _assert_each_slice(
            lambda s: _inject(s, draw_fault(s.shape[1:], seed=seed, **params), fault_dtype(params["kind"])),
            stacked,
            lambda one: oracles.apply_fault(one, rng=np.random.default_rng(seed), **params),
        )

    @settings(max_examples=40)
    @given(
        case=_batch_case(),
        kind=st.sampled_from(["bitflip", "gaussian"]),
        rate=st.sampled_from([0.0, 0.2, 0.9]),
        sigma=st.sampled_from([0.0, 0.7]),
    )
    def test_fault_spec_apply_batch_equals_serial_loop(self, case, kind, rate, sigma):
        stacked, seed = case
        spec = FaultSpec(kind=kind, rate=rate, sigma=sigma, seed=seed)

        def oracle(one):
            rng = np.random.default_rng(seed)
            if kind == "bitflip":
                return oracles.inject_bitflips(one, rate=rate, rng=rng)
            return oracles.inject_gaussian(one, sigma=sigma, rng=rng)

        _assert_each_slice(spec.apply_batch, stacked, oracle)

    @settings(max_examples=30)
    @given(case=_batch_case(), name=st.sampled_from(sorted(builtin_scenarios())))
    def test_scenario_fault_apply_batch_equals_serial_loop(self, case, name):
        stacked, seed = case
        scenario = builtin_scenarios()[name]
        _assert_each_slice(
            scenario.fault(seed).apply_batch, stacked, lambda one: oracles.apply_scenario(scenario, one, seed)
        )

    @settings(max_examples=40)
    @given(
        b=st.integers(min_value=1, max_value=3),
        n=st.integers(min_value=1, max_value=5),
        c=st.integers(min_value=2, max_value=4),
        base=st.integers(min_value=0, max_value=99),
        poison=st.sampled_from(
            ["none", "nan", "inf", "-inf", "negative", "dead-row", "nan-row", "inf-row"]
        ),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_sanitize_probs_batch_equals_serial_loop(self, b, n, c, base, poison, dtype):
        """Each batch slice equals the scalar oracle, non-finite rows
        included; float32 input converts in the one copy and is never
        written."""

        arr = np.random.default_rng(base).random((b, n, c)).astype(dtype)
        if poison == "nan":
            arr[..., 0] = np.nan
        elif poison == "inf":
            arr[..., 0] = np.inf
        elif poison == "-inf":
            arr[..., 0] = -np.inf
        elif poison == "negative":
            arr[..., 0] = -3.0
        elif poison == "dead-row":
            arr[:, 0, :] = 0.0
        elif poison == "nan-row":
            arr[:, 0, :] = np.nan
        elif poison == "inf-row":
            arr[:, -1, :] = np.inf
        before = arr.copy()
        batched = sanitize_probs_batch(arr)
        assert np.array_equal(arr, before, equal_nan=True)
        assert batched.dtype == np.float64 and not np.shares_memory(batched, arr)
        for i in range(b):
            assert np.array_equal(batched[i], oracles.sanitize_probs(arr[i]))

    @settings(max_examples=60)
    @given(
        b=st.integers(min_value=1, max_value=3),
        m=st.integers(min_value=2, max_value=4),
        n=st.integers(min_value=2, max_value=6),
        c=st.integers(min_value=2, max_value=4),
        base=st.integers(min_value=0, max_value=99),
        shape=st.sampled_from(["random", "all-distinct", "two-way-tie", "nan-row", "inf-row", "zero-row"]),
    )
    def test_ensemble_features_batch_equals_serial_loop(self, b, m, n, c, base, shape):
        """Each batch slice, and the batch-of-one form, equals the scalar
        oracle — on tied votes and non-finite or all-zero rows too."""

        rng = np.random.default_rng(base)
        majority = None
        if shape == "all-distinct":
            # every member votes a different class: a tie across all M
            c = max(c, m)
            offsets = rng.integers(0, c, size=(b, 1, n))
            votes = (np.arange(m)[None, :, None] + offsets) % c
            majority = votes.min(axis=1)
        elif shape == "two-way-tie":
            # half the members vote ``lo``, half vote a higher class
            m = 2 * (m // 2)
            lo = rng.integers(0, c - 1, size=(b, n))
            hi = lo + 1 + rng.integers(0, c - 1 - lo)
            halves = np.concatenate([np.zeros(m // 2, int), np.ones(m // 2, int)])
            order = np.stack([rng.permutation(halves) for _ in range(b * n)]).reshape(b, n, m)
            votes = np.where(order.transpose(0, 2, 1) == 0, lo[:, None, :], hi[:, None, :])
            majority = lo
        if majority is not None:
            # a one-hot vote plus noise below 1 keeps the argmax on the vote
            stacked = np.eye(c)[votes] + 0.1 * rng.random((b, m, n, c))
        else:
            stacked = rng.random((b, m, n, c))
        stacked = stacked / stacked.sum(axis=-1, keepdims=True)
        if shape == "nan-row":
            stacked[:, 0, 0, :] = np.nan
        elif shape == "inf-row":
            stacked[:, -1, 0, :] = np.inf
        elif shape == "zero-row":
            stacked[:, :, -1, :] = 0.0
        batched = ensemble_features_batch(stacked)
        for i in range(b):
            expected = oracles.ensemble_features(stacked[i])
            assert np.array_equal(batched[i], expected, equal_nan=True)
            assert np.array_equal(ensemble_features(stacked[i]), expected, equal_nan=True)
        if majority is not None:
            # ties resolve to the lowest class
            votes_share = (votes == majority[:, None, :]).mean(axis=1)
            assert np.array_equal(batched[..., FEATURE_NAMES.index("agreement")], votes_share)
            org_disagrees = (votes[:, 0] != majority).astype(np.float64)
            assert np.array_equal(batched[..., FEATURE_NAMES.index("org_disagrees")], org_disagrees)
