"""Metrics registry and its wiring into the hot paths:
store loads, breaker transitions, retry exhaustion, error taxonomy, and the
campaign metrics lifecycle (shard cleanup + ``metrics.json``)."""

from __future__ import annotations

import json
import pathlib
import threading

import pytest

from polygraphmr.breaker import CLOSED, HALF_OPEN, OPEN, BreakerPolicy, CircuitBreaker
from polygraphmr.campaign import (
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    CampaignConfig,
    CampaignRunner,
    TrialExecutor,
)
from polygraphmr.ensemble import EnsembleRuntime
from polygraphmr.errors import (
    CampaignError,
    DegradedEnsemble,
    RetryPolicy,
    TransientIOError,
    retry_with_backoff,
)
from polygraphmr.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    METRICS_NAME,
    REQUEST_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    get_registry,
    load_registry,
    merge_registries,
    metrics_shard_name,
    metrics_shards,
)
from polygraphmr.store import ArtifactStore


class TestCounterAndGauge:
    def test_counter_accumulates_and_rejects_negatives(self):
        reg = MetricsRegistry()
        c = reg.counter("events_total", kind="a")
        c.inc()
        c.inc(4)
        assert reg.counter_value("events_total", kind="a") == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_counter_total_sums_across_label_sets(self):
        reg = MetricsRegistry()
        reg.counter("events_total", kind="a").inc(2)
        reg.counter("events_total", kind="b").inc(3)
        assert reg.counter_total("events_total") == 5

    def test_gauge_set_and_read(self):
        reg = MetricsRegistry()
        reg.gauge("workers").set(4)
        assert reg.gauge_value("workers") == 4.0

    def test_label_keys_are_memoised_and_never_alias(self):
        """A repeated all-string label set reuses its sorted key; values that
        compare equal but print differently keep their own series."""

        from polygraphmr.metrics import _label_key

        assert _label_key({"kind": "probs", "result": "hit"}) is _label_key({"kind": "probs", "result": "hit"})
        assert _label_key({"result": "hit", "kind": "probs"}) == (("kind", "probs"), ("result", "hit"))
        assert _label_key({"v": 1}) == (("v", "1"),) and _label_key({"v": True}) == (("v", "True"),)
        assert _label_key({"v": ["unhashable"]}) == (("v", "['unhashable']"),)
        reg = MetricsRegistry()
        reg.counter("events_total", v=1).inc()
        reg.counter("events_total", v=True).inc(2)
        reg.counter("events_total", v="1").inc(4)
        assert reg.counter_value("events_total", v=True) == 2
        assert reg.counter_value("events_total", v=1) == 5  # 1 and "1" print alike

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x")


class TestHistogram:
    def test_observations_land_in_upper_bound_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.1, 0.5, 5.0, 100.0):
            h.observe(v)
        # 0.05 and 0.1 -> le=0.1; 0.5 -> le=1.0; 5.0 -> le=10.0; 100 -> overflow
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(105.65)

    def test_quantile_is_smallest_bound_reaching_target(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.05, 0.5, 5.0):
            h.observe(v)
        assert h.quantile(0.5) == 0.1
        assert h.quantile(0.75) == 1.0
        assert h.quantile(1.0) == 10.0

    def test_request_latency_buckets_resolve_sub_millisecond_replies(self):
        """A serve reply takes about 0.7-1.3 ms: the request histogram's
        p50 and p90 there are 0.1 ms apart, not the default edges 1 and
        2.5 ms; above 2 ms it keeps the default edges."""

        reg = MetricsRegistry()
        h = reg.histogram("serve_request_seconds", buckets=REQUEST_LATENCY_BUCKETS)
        for v in [0.00068] * 5 + [0.00094] * 4 + [0.0013]:
            h.observe(v)
        assert h.quantile(0.5) == 0.0007 and h.quantile(0.9) == 0.001 and h.quantile(1.0) == 0.0013
        assert REQUEST_LATENCY_BUCKETS[20:] == tuple(b for b in DEFAULT_LATENCY_BUCKETS if b > 0.002)

    def test_empty_quantile_is_none_and_overflow_reports_last_bound(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        assert h.quantile(0.5) is None
        h.observe(99.0)
        assert h.quantile(0.5) == 1.0  # best the bucket layout can say

    def test_invalid_bounds_raise(self):
        import threading

        lock = threading.Lock()
        with pytest.raises(ValueError):
            Histogram((), lock)
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0), lock)
        with pytest.raises(ValueError):
            Histogram((1.0, float("inf")), lock)

    def test_merge_requires_identical_buckets(self):
        a = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        b = MetricsRegistry().histogram("lat", buckets=(0.2, 1.0))
        with pytest.raises(ValueError):
            a.merge_from(b)


class TestRegistrySerialisation:
    def _populated(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("loads_total", kind="probs", result="hit").inc(7)
        reg.gauge("workers").set(3)
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        return reg

    def test_to_dict_from_dict_round_trip(self):
        reg = self._populated()
        clone = MetricsRegistry.from_dict(reg.to_dict())
        assert clone.to_dict() == reg.to_dict()

    def test_write_json_load_registry_round_trip(self, tmp_path):
        reg = self._populated()
        path = reg.write_json(tmp_path / "m.json")
        loaded = load_registry(path)
        assert loaded is not None
        assert loaded.to_dict() == reg.to_dict()

    def test_load_registry_is_none_on_garbage_or_absence(self, tmp_path):
        assert load_registry(tmp_path / "absent.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert load_registry(bad) is None
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"version": 99}), encoding="utf-8")
        assert load_registry(wrong) is None

    def test_merge_registries_adds_maxes_and_folds(self):
        a = self._populated()
        b = self._populated()
        b.gauge("workers").set(9)
        merged = merge_registries([a, b])
        assert merged.counter_value("loads_total", kind="probs", result="hit") == 14
        assert merged.gauge_value("workers") == 9.0
        h = merged.histogram_for("lat")
        assert h is not None and h.count == 4
        assert h.sum == pytest.approx(1.1)

    def test_prometheus_exposition_shape(self):
        reg = self._populated()
        text = reg.to_prometheus()
        assert "# TYPE loads_total counter" in text
        assert 'loads_total{kind="probs",result="hit"} 7' in text
        assert "# TYPE workers gauge" in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_count 2" in text
        assert text.endswith("\n")


class TestShardDiscovery:
    def test_shard_names_never_collide_with_the_merged_file(self, tmp_path):
        assert metrics_shard_name(3) == "metrics.w03.json"
        (tmp_path / METRICS_NAME).write_text("{}", encoding="utf-8")
        (tmp_path / "metrics.w00.json").write_text("{}", encoding="utf-8")
        (tmp_path / "metrics.w1.json").write_text("{}", encoding="utf-8")  # too few digits
        (tmp_path / "journal.w00.jsonl").write_text("", encoding="utf-8")
        shards = metrics_shards(tmp_path)
        assert list(shards) == [0]
        assert shards[0].name == "metrics.w00.json"


class TestHotPathWiring:
    def test_store_load_hit_is_counted_and_timed(self, synthetic_store):
        reg = get_registry()
        synthetic_store.load_probs("tinynet", "ORG", "val")
        assert reg.counter_value("store_load_total", kind="probs", result="hit") == 1
        h = reg.histogram_for("store_load_seconds", kind="probs")
        assert h is not None and h.count == 1

    def test_run_model_is_timed_once_per_call_beside_its_status_count(self, synthetic_store):
        reg = get_registry()
        runtime = EnsembleRuntime(synthetic_store)
        for calls in (1, 2):
            assert runtime.run_model("tinynet").status == "full"
            assert reg.counter_value("ensemble_runs_total", status="full") == calls
            assert reg.histogram_for("ensemble_run_seconds").count == calls
        # a call that raises is still timed, but has no status to count
        with pytest.raises(DegradedEnsemble):
            runtime.run_model("absent")
        assert reg.counter_total("ensemble_runs_total") == 2
        assert reg.histogram_for("ensemble_run_seconds").count == 3

    def test_error_taxonomy_counter_counts_construction(self):
        reg = get_registry()
        CampaignError("no-models", "detail")
        assert reg.counter_value("errors_total", type="CampaignError", reason="no-models") == 1

    def test_breaker_transitions_and_skips_are_counted(self):
        reg = get_registry()
        b = CircuitBreaker(BreakerPolicy(failure_threshold=1, cooldown_ticks=2))
        b.record_failure(tick=0)
        assert b.state == OPEN
        assert not b.allow(tick=1)  # still cooling down -> cheap skip
        assert b.allow(tick=2)  # probe admitted
        assert b.state == HALF_OPEN
        b.record_success()
        assert b.state == CLOSED
        assert reg.counter_value("breaker_transitions_total", to=OPEN) == 1
        assert reg.counter_value("breaker_transitions_total", to=HALF_OPEN) == 1
        assert reg.counter_value("breaker_transitions_total", to=CLOSED) == 1
        assert reg.counter_value("breaker_skips_total") == 1


class TestRetryCounters:
    def test_retry_exhaustion_increments_store_and_taxonomy_counters(
        self, synthetic_store, monkeypatch
    ):
        """A load whose retries exhaust must show up in *both* the store
        counters and the error taxonomy — the satellite fix this PR makes."""

        reg = get_registry()
        store = ArtifactStore(
            synthetic_store.root,
            retry_policy=RetryPolicy(attempts=3, sleep=lambda _s: None),
        )
        monkeypatch.setattr(
            pathlib.Path,
            "read_bytes",
            lambda _self: (_ for _ in ()).throw(OSError("disk hiccup")),
        )
        with pytest.raises(TransientIOError):
            store.load_probs("tinynet", "ORG", "val")
        assert reg.counter_value("retry_attempts_total") == 3
        assert reg.counter_value("retry_exhausted_total") == 1
        assert reg.counter_value("errors_total", type="TransientIOError", reason="") == 1
        assert reg.counter_value("store_load_total", kind="probs", result="io-error") == 1

    def test_sleep_budget_clamp_is_detected_and_counted(self):
        reg = get_registry()
        clamped = RetryPolicy(
            attempts=5, base_delay=2.0, max_delay=8.0, max_total_sleep=1.0, sleep=lambda _s: None
        )
        assert clamped.sleep_budget_clamped()
        assert sum(clamped.schedule()) <= clamped.max_total_sleep
        roomy = RetryPolicy(attempts=3, base_delay=0.01, max_total_sleep=10.0, sleep=lambda _s: None)
        assert not roomy.sleep_budget_clamped()

        def always_fails():
            raise OSError("nope")

        with pytest.raises(TransientIOError):
            retry_with_backoff(always_fails, policy=clamped)
        assert reg.counter_value("retry_sleep_budget_exhausted_total") == 1
        with pytest.raises(TransientIOError):
            retry_with_backoff(always_fails, policy=roomy)
        assert reg.counter_value("retry_sleep_budget_exhausted_total") == 1  # unchanged


class TestCampaignMetricsLifecycle:
    def test_serial_run_writes_metrics_json_and_counts_trials(self, tmp_path, bare_cache):
        cache = bare_cache("m")
        config = CampaignConfig(cache=str(cache), n_trials=4)
        runner = CampaignRunner(
            config, tmp_path / "out", trial_fn=lambda spec: {"model": spec.model}
        )
        summary = runner.run()
        reg = runner.merged_registry
        assert reg.counter_total("campaign_trials_total") == 4
        assert reg.counter_value("campaign_trials_total", outcome="ok") == 4
        h = reg.histogram_for("campaign_trial_seconds")
        assert h is not None and h.count == 4
        assert reg.gauge_value("campaign_trials_completed") == 4.0
        metrics_path = tmp_path / "out" / METRICS_NAME
        assert summary["metrics"] == str(metrics_path)
        on_disk = load_registry(metrics_path)
        assert on_disk is not None
        assert on_disk.counter_total("campaign_trials_total") == 4

    @pytest.mark.parametrize("outcome", [OUTCOME_OK, OUTCOME_ERROR, OUTCOME_TIMEOUT])
    def test_every_trial_is_timed_once_whatever_its_outcome(self, bare_cache, outcome):
        release = threading.Event()

        def trial(spec):
            if outcome == OUTCOME_ERROR:
                raise RuntimeError("injected")
            if outcome == OUTCOME_TIMEOUT:
                release.wait(30)
            return {}

        timeout_s = 0.1 if outcome == OUTCOME_TIMEOUT else 120.0
        config = CampaignConfig(cache=str(bare_cache("m")), n_trials=2, timeout_s=timeout_s)
        executor = TrialExecutor(config, ["m"], trial_fn=trial)
        reg = get_registry()
        try:
            for index in range(2):
                assert executor.execute(index)["outcome"] == outcome
                assert reg.histogram_for("campaign_trial_seconds").count == index + 1
        finally:
            release.set()
            executor.close()
        assert reg.counter_value("campaign_trials_total", outcome=outcome) == 2

    def test_watchdog_fires_are_counted(self, tmp_path, bare_cache):
        import time as time_mod

        cache = bare_cache("m")

        def hangs(spec):
            if spec.index == 1:
                time_mod.sleep(30)
            return {}

        config = CampaignConfig(cache=str(cache), n_trials=3, timeout_s=0.2)
        runner = CampaignRunner(config, tmp_path / "out", trial_fn=hangs)
        runner.run()
        reg = runner.merged_registry
        assert reg.counter_value("campaign_watchdog_fired_total") == 1
        assert reg.counter_value("campaign_trials_total", outcome="trial_timeout") == 1

    def test_stale_metric_shards_are_discarded_not_merged(self, tmp_path, bare_cache):
        cache = bare_cache("m")
        out = tmp_path / "out"
        out.mkdir()
        stale = MetricsRegistry()
        stale.counter("campaign_trials_total", outcome="ok").inc(1000)
        stale.write_json(out / metrics_shard_name(0))
        config = CampaignConfig(cache=str(cache), n_trials=2)
        runner = CampaignRunner(config, out, trial_fn=lambda spec: {})
        runner.run()
        assert metrics_shards(out) == {}
        assert runner.merged_registry.counter_total("campaign_trials_total") == 2
