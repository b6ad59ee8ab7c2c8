"""Differential suite for the batched trial engine: batching is an execution
detail, so every campaign artifact — journal bytes, chain links, checkpoint —
must be byte-identical to the serial per-trial loop's, across scenario
sweeps, timeouts, tripping breakers, kills, and worker × batch-size combos.
Plus hypothesis properties pinning the vectorized injectors to the
loop-based reference oracles element-for-element."""

from __future__ import annotations

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygraphmr.batching import (
    DEFAULT_BATCH_SIZE,
    PRISTINE_BREAKER,
    BatchTrialEngine,
    board_is_steady,
    plan_windows,
)
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
from polygraphmr.decision import ensemble_features, ensemble_features_batch
from polygraphmr.ensemble import EnsembleRuntime
from polygraphmr.faults import (
    FAULT_MODELS,
    SURFACES,
    FaultSpec,
    apply_fault_batch,
    corrupt_file_truncate,
    prepare_degradation,
    sanitize_probs_batch,
)
from polygraphmr.metrics import get_registry
from polygraphmr.parallel import ParallelCampaignRunner
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


class TestPlanner:
    def test_windows_tile_the_pending_list_in_order(self):
        pending = list(range(23))
        windows = plan_windows(pending, 4, 4)
        assert [w for win in windows for w in win] == pending
        assert [len(w) for w in windows] == [16, 7]

    def test_degenerate_sizes_clamp_to_one(self):
        assert plan_windows([5, 9], 0, 0) == [[5], [9]]
        assert plan_windows([], 4, 16) == []

    def test_span_scales_with_models_so_each_gets_a_full_batch(self):
        windows = plan_windows(list(range(12)), 3, 2)
        assert [len(w) for w in windows] == [6, 6]


class TestBoardSteadiness:
    PRE = {"tick_count": 4, "breakers": {"m/a": dict(PRISTINE_BREAKER)}}

    def test_one_tick_no_activity_is_steady(self):
        post = {"tick_count": 5, "breakers": {"m/a": dict(PRISTINE_BREAKER)}}
        assert board_is_steady(self.PRE, post)

    def test_new_pristine_entry_is_steady(self):
        post = {
            "tick_count": 5,
            "breakers": {"m/a": dict(PRISTINE_BREAKER), "m/b": dict(PRISTINE_BREAKER)},
        }
        assert board_is_steady(self.PRE, post)

    def test_tick_skew_changed_entry_or_lost_entry_break_steadiness(self):
        assert not board_is_steady(self.PRE, {"tick_count": 6, "breakers": {"m/a": dict(PRISTINE_BREAKER)}})
        tripped = dict(PRISTINE_BREAKER, consecutive_failures=1)
        assert not board_is_steady(self.PRE, {"tick_count": 5, "breakers": {"m/a": tripped}})
        assert not board_is_steady(self.PRE, {"tick_count": 5, "breakers": {"m/b": dict(PRISTINE_BREAKER)}})
        assert not board_is_steady(self.PRE, {"tick_count": 5, "breakers": {}})


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
        assert many.head == one.head
        assert many.append_many([]) == []


class TestSerialBatchedEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 3, DEFAULT_BATCH_SIZE, 64])
    def test_legacy_campaign_is_byte_identical(self, multi_model_cache, tmp_path, batch_size):
        config = _config(multi_model_cache)
        CampaignRunner(config, tmp_path / "serial", batch_size=1).run()
        summary = CampaignRunner(config, tmp_path / "batched", batch_size=batch_size).run()
        assert summary["completed"] == config.n_trials
        assert _bytes(tmp_path / "batched") == _bytes(tmp_path / "serial")
        assert verify_campaign(tmp_path / "batched")["exit_code"] == 0
        if batch_size > 1:
            batched = get_registry().counter("campaign_batched_trials_total").value
            assert batched > 0, "batched fast path never engaged"

    @pytest.mark.parametrize("batch_size", [2, 8])
    def test_scenario_sweep_is_byte_identical(self, synthetic_cache, tmp_path, batch_size):
        config = _sweep_config(synthetic_cache, n_trials=9)
        CampaignRunner(config, tmp_path / "serial", batch_size=1).run()
        CampaignRunner(config, tmp_path / "batched", batch_size=batch_size).run()
        assert _bytes(tmp_path / "batched") == _bytes(tmp_path / "serial")
        assert verify_campaign(tmp_path / "batched")["exit_code"] == 0

    def test_tripping_breakers_fall_back_to_the_serial_path(self, multi_model_cache, tmp_path):
        victim = multi_model_cache / "net-01"
        for split in ("val", "test"):
            target = victim / f"pp-Gamma_2.{split}.probs.npz"
            corrupt_file_truncate(target, target, keep_fraction=0.2, seed=5)
        config = _config(multi_model_cache, failure_threshold=2, cooldown_ticks=1)
        serial = CampaignRunner(config, tmp_path / "serial", batch_size=1).run()
        assert serial["breakers"], "stressor failed to trip any breaker"
        batched = CampaignRunner(config, tmp_path / "batched", batch_size=4).run()
        assert batched["breakers"] == serial["breakers"]
        assert _bytes(tmp_path / "batched") == _bytes(tmp_path / "serial")
        fallback = get_registry().counter(
            "campaign_batch_fallback_total", reason="breaker-activity"
        ).value
        assert fallback > 0, "breaker activity never forced a serial fallback"

    def test_timeouts_are_journalled_identically(self, multi_model_cache, tmp_path, monkeypatch):
        # the trial body blocks until the test ends, so it outlasts the
        # watchdog by construction: every probe times out and the whole
        # campaign replays down the serial path
        release = threading.Event()

        def blocked(self, spec):
            release.wait()
            return {}

        monkeypatch.setattr(TrialExecutor, "_run_trial", blocked)
        config = _config(multi_model_cache, n_trials=8, timeout_s=0.02)
        try:
            serial = CampaignRunner(config, tmp_path / "serial", batch_size=1).run()
            assert serial["outcomes"].get("trial_timeout") == 8
            CampaignRunner(config, tmp_path / "batched", batch_size=4).run()
        finally:
            release.set()
        assert _bytes(tmp_path / "batched") == _bytes(tmp_path / "serial")

    def test_kernel_timeout_falls_back_to_serial_replay(self, synthetic_cache, tmp_path, monkeypatch):
        config = _config(synthetic_cache, n_trials=4, timeout_s=0.75)
        CampaignRunner(config, tmp_path / "serial", batch_size=1).run()

        def stall(self, model, indices):  # never touches the executor
            import time

            time.sleep(10)

        monkeypatch.setattr(BatchTrialEngine, "_run_batch", stall)
        CampaignRunner(config, tmp_path / "batched", batch_size=4).run()
        assert _bytes(tmp_path / "batched") == _bytes(tmp_path / "serial")
        assert get_registry().counter("campaign_batch_fallback_total", reason="timeout").value > 0
        # the rebuild discards the runtime and its memoised gate: the probe's
        # fit plus one refit for the serial replay
        assert _fits() == 2

    def test_kernel_error_falls_back_to_serial_replay(self, synthetic_cache, tmp_path, monkeypatch):
        config = _config(synthetic_cache, n_trials=4)
        CampaignRunner(config, tmp_path / "serial", batch_size=1).run()

        def explode(self, model, indices):
            raise RuntimeError("kernel blew up")

        monkeypatch.setattr(BatchTrialEngine, "_run_batch", explode)
        CampaignRunner(config, tmp_path / "batched", batch_size=4).run()
        assert _bytes(tmp_path / "batched") == _bytes(tmp_path / "serial")
        assert get_registry().counter("campaign_batch_fallback_total", reason="error").value > 0
        assert _fits() == 2

    def test_interrupted_batched_run_resumes_to_identical_bytes(self, multi_model_cache, tmp_path):
        config = _config(multi_model_cache)
        CampaignRunner(config, tmp_path / "serial", batch_size=1).run()
        partial = CampaignRunner(config, tmp_path / "batched", batch_size=4).run(max_new_trials=5)
        assert partial["stopped_early"] and partial["completed"] == 5
        resumed = CampaignRunner(config, tmp_path / "batched", batch_size=4).run(resume=True)
        assert resumed["completed"] == config.n_trials
        assert _bytes(tmp_path / "batched") == _bytes(tmp_path / "serial")
        assert verify_campaign(tmp_path / "batched")["exit_code"] == 0

    def test_custom_trial_fn_disables_batching(self, bare_cache, tmp_path):
        config = _config(bare_cache("m"), n_trials=3)
        runner = CampaignRunner(
            config, tmp_path / "out", trial_fn=lambda spec: {"model": spec.model}
        )
        assert runner.batch_size == 1  # faked trial bodies have no kernel
        assert runner.run()["completed"] == 3


class TestGateFitOncePerModel:
    """Each model's runtime memoises its fitted gate, so a run fits it once
    whatever the chunking — and the journal bytes do not move."""

    def test_one_fit_per_model_batched_and_per_trial(self, synthetic_cache, add_model, tmp_path):
        add_model(synthetic_cache, "net-b")
        config = _config(synthetic_cache, n_trials=32)
        CampaignRunner(config, tmp_path / "serial", batch_size=1).run()
        assert _fits() == 2
        CampaignRunner(config, tmp_path / "batched", batch_size=DEFAULT_BATCH_SIZE).run()
        assert get_registry().counter("campaign_batched_trials_total").value > 0
        assert _fits() == 2
        assert _bytes(tmp_path / "batched") == _bytes(tmp_path / "serial")

    @pytest.mark.parametrize("options", [{"batch_size": 1}, {"batch_size": 4}], ids=["serial", "batched"])
    def test_weights_faults_leave_the_memoised_gate_pristine(self, synthetic_cache, tmp_path, options):
        config = _config(
            synthetic_cache,
            n_trials=8,
            scenarios=scenarios_config_field(resolve_scenarios(["gate-weights-bitflip-1"])),
        )
        runner = CampaignRunner(config, tmp_path / "out", **options)
        assert runner.run()["outcomes"]["ok"] == 8
        if runner.batch_size > 1:
            assert get_registry().counter("campaign_batched_trials_total").value > 0
        assert _fits() == 1  # one gate served every trial
        gate = runner.executor.runtime_for("tinynet").session("tinynet").module
        fresh = EnsembleRuntime(ArtifactStore(synthetic_cache), seed=config.seed).session("tinynet").module
        assert gate.w.tobytes() == fresh.w.tobytes() and gate.b == fresh.b


class TestStreamedKernel:
    """The kernel streams each trial through inject → sanitize → features →
    predict → evaluate; its stages copy once and never write their inputs."""

    @pytest.mark.parametrize("kind", ["bitflip", "gaussian"])
    def test_batch_peak_memory_is_one_trial_not_the_batch(self, wide_cache, kind, monkeypatch):
        import polygraphmr.batching as batching

        config = _config(wide_cache, n_trials=16, kinds=(kind,), rates=(0.01,), sigmas=(0.05,))
        executor = TrialExecutor(config, discover_models(config))
        model = executor.models[0]
        ctx = prepare_degradation(
            executor.store, model, seed=config.seed, runtime=executor.runtime_for(model), tick=False
        )
        # the context (session stacks, clean baseline) is built before
        # tracing starts, so the peak is the streamed trials' own arrays
        monkeypatch.setattr(batching, "prepare_degradation", lambda *args, **kwargs: ctx)
        stack_bytes = ctx.session.test_stack.astype(np.float64).nbytes
        engine = BatchTrialEngine(executor, batch_size=16)
        tracemalloc.start()
        try:
            records = engine._run_batch(model, list(range(16)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(records) == list(range(16))
        # streaming keeps one trial's faulted stack and features live; a
        # kernel holding the whole batch's stacks peaks near 16× instead
        assert peak < 3 * stack_bytes, f"peak {peak / stack_bytes:.2f}× one trial's stack"

    def test_weights_trial_after_probs_trials_matches_batch_size_one(self, synthetic_cache, tmp_path):
        """A gate-weights trial scores the context's shared clean features
        after the chunk's probs trials ran the gate on their own features;
        it must journal what it journals when every trial runs alone."""

        sweep = ("channel-bitflip-10pct", "gate-weights-bitflip-1")
        base = _sweep_config(synthetic_cache, n_trials=8, scenarios=scenarios_config_field(resolve_scenarios(sweep)))
        for seed in range(100):
            config = dataclasses.replace(base, seed=seed)
            executor = TrialExecutor(config, discover_models(config))
            order = [executor.derive_spec(i).scenario for i in range(1, 8)]
            if order[0] == sweep[0] and sweep[1] in order:
                break
        else:
            pytest.fail("no seed puts a weights trial after a probs trial in one chunk")
        CampaignRunner(config, tmp_path / "serial", batch_size=1).run()
        get_registry().reset()
        CampaignRunner(config, tmp_path / "batched", batch_size=8).run()
        assert get_registry().counter("campaign_batched_trials_total").value == 7
        for reason in ("error", "timeout", "breaker-activity"):
            assert get_registry().counter("campaign_batch_fallback_total", reason=reason).value == 0
        assert _bytes(tmp_path / "batched") == _bytes(tmp_path / "serial")


class TestCleanBaselineMemo:
    """Each runtime scores a member set's clean test split once per test
    artifact identity and gate; the journal does not move."""

    @pytest.mark.parametrize("batch_size", [1, DEFAULT_BATCH_SIZE])
    def test_one_clean_scoring_per_model_in_a_steady_run(
        self, synthetic_cache, add_model, tmp_path, clean_scorings, batch_size
    ):
        add_model(synthetic_cache, "net-b")
        config = _config(synthetic_cache, n_trials=32)
        assert CampaignRunner(config, tmp_path / "out", batch_size=batch_size).run()["outcomes"]["ok"] == 32
        assert len(clean_scorings) == 2

    def test_journal_bytes_match_a_run_that_never_reuses_the_baseline(self, multi_model_cache, tmp_path, monkeypatch):
        sweep = resolve_scenarios(SWEEP + ("gate-weights-bitflip-1",))
        config = _sweep_config(multi_model_cache, n_trials=16, scenarios=scenarios_config_field(sweep))
        CampaignRunner(config, tmp_path / "memo", batch_size=4).run()
        real = EnsembleRuntime.clean_baseline

        def fresh(self, session):
            self._baselines.clear()
            return real(self, session)

        monkeypatch.setattr(EnsembleRuntime, "clean_baseline", fresh)
        CampaignRunner(config, tmp_path / "fresh", batch_size=4).run()
        assert _bytes(tmp_path / "memo") == _bytes(tmp_path / "fresh")


class TestThreeWayEquivalenceMatrix:
    @pytest.mark.parametrize(("workers", "batch_size"), [(2, 1), (2, 8), (4, 4)])
    def test_serial_parallel_batched_all_match(self, multi_model_cache, tmp_path, workers, batch_size):
        config = _config(multi_model_cache)
        CampaignRunner(config, tmp_path / "serial", batch_size=1).run()
        CampaignRunner(config, tmp_path / "batched", batch_size=batch_size).run()
        par = ParallelCampaignRunner(
            config, tmp_path / "par", workers=workers, batch_size=batch_size
        ).run()
        assert par["failed_workers"] == []
        reference = _bytes(tmp_path / "serial")
        assert _bytes(tmp_path / "batched") == reference
        assert _bytes(tmp_path / "par") == reference
        assert verify_campaign(tmp_path / "par")["exit_code"] == 0

    def test_scenario_sweep_three_way(self, multi_model_cache, tmp_path):
        config = _sweep_config(multi_model_cache)
        CampaignRunner(config, tmp_path / "serial", batch_size=1).run()
        CampaignRunner(config, tmp_path / "batched", batch_size=4).run()
        par = ParallelCampaignRunner(config, tmp_path / "par", workers=4, batch_size=4).run()
        assert par["failed_workers"] == []
        reference = _bytes(tmp_path / "serial")
        assert _bytes(tmp_path / "batched") == reference
        assert _bytes(tmp_path / "par") == reference


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
        summary = CampaignRunner(config, tmp_path / "out", batch_size=4).run()
        assert summary["completed"] == config.n_trials
        assert len(calls) == len(SWEEP), "scenario list was re-parsed in the hot loop"


# ---------------------------------------------------------------------------
# hypothesis properties: vectorized injectors ≡ loop-based oracles
# ---------------------------------------------------------------------------


@st.composite
def _batch_case(draw):
    """A batch of 2-D slices (a member's probs) or 1-D slices (the shape of
    the gate-weights vector), with one seed per slice."""

    b = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=2, max_value=6))
    c = draw(st.integers(min_value=2, max_value=5))
    shape = draw(st.sampled_from([(b, n, c), (b, n * c)]))
    seeds = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=b, max_size=b))
    base = draw(st.integers(min_value=0, max_value=99))
    stacked = np.random.default_rng(base).random(shape)
    return stacked, seeds


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


class TestVectorizedInjectorProperties:
    @settings(max_examples=40)
    @given(case=_batch_case(), params=FAULT_PARAMS)
    def test_apply_fault_batch_equals_serial_loop(self, case, params):
        stacked, seeds = case
        before = stacked.copy()
        batched = apply_fault_batch(stacked, seeds=seeds, **params)
        assert np.array_equal(stacked, before), "batched injection mutated its input"
        for i, seed in enumerate(seeds):
            expected = oracles.apply_fault(stacked[i], rng=np.random.default_rng(seed), **params)
            assert batched[i].dtype == expected.dtype
            assert np.array_equal(batched[i], expected), f"slice {i} diverged from the oracle"
            one = apply_fault_batch(stacked[i][None], seeds=[seed], **params)[0]
            assert np.array_equal(one, expected), f"batch of one diverged at slice {i}"

    @settings(max_examples=40)
    @given(
        case=_batch_case(),
        kind=st.sampled_from(["bitflip", "gaussian"]),
        rate=st.sampled_from([0.0, 0.2, 0.9]),
        sigma=st.sampled_from([0.0, 0.7]),
    )
    def test_fault_spec_apply_batch_equals_serial_loop(self, case, kind, rate, sigma):
        stacked, seeds = case
        spec = FaultSpec(kind=kind, rate=rate, sigma=sigma, seed=seeds[0])
        before = stacked.copy()
        batched = spec.apply_batch(stacked, seeds=seeds)
        assert np.array_equal(stacked, before)
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            if kind == "bitflip":
                expected = oracles.inject_bitflips(stacked[i], rate=rate, rng=rng)
            else:
                expected = oracles.inject_gaussian(stacked[i], sigma=sigma, rng=rng)
            assert np.array_equal(batched[i], expected)

    @settings(max_examples=30)
    @given(case=_batch_case(), name=st.sampled_from(sorted(builtin_scenarios())))
    def test_scenario_fault_apply_batch_equals_serial_loop(self, case, name):
        stacked, seeds = case
        scenario = builtin_scenarios()[name]
        batched = scenario.fault(seeds[0]).apply_batch(stacked, seeds=seeds)
        for i, seed in enumerate(seeds):
            assert np.array_equal(batched[i], oracles.apply_scenario(scenario, stacked[i], seed))

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
            assert np.array_equal(batched[..., -2], votes_share)
            assert np.array_equal(batched[..., -1], (votes[:, 0] != majority).astype(np.float64))
