"""Soak/stress reconciliation: metric totals must agree exactly with the
journal.

The journal is the byte-deterministic record of what a campaign did; metrics
are the out-of-band tally of the same events.  These tests run campaigns
long enough for breakers to trip, cool down, and re-trip, then cross-check
every counter against the ground truth derivable from the journal — any
drift means an instrumentation point is missing or double-counting.

Marked ``slow``: deselected by default (see pyproject addopts), run in CI on
schedule/manual dispatch via ``pytest -m slow``.
"""

from __future__ import annotations

import time
from collections import Counter as Tally

import pytest

from polygraphmr.campaign import (
    JOURNAL_NAME,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    CampaignConfig,
    CampaignJournal,
    CampaignRunner,
    verify_campaign,
)
from polygraphmr.breaker import BreakerBoard, BreakerPolicy
from polygraphmr.faults import corrupt_file_truncate
from polygraphmr.metrics import get_registry
from polygraphmr.parallel import ParallelCampaignRunner
from polygraphmr.serve import (
    OUTCOMES,
    PolygraphService,
    ServeConfig,
    ServeGateway,
    ServeRequest,
    request_frame,
)
from polygraphmr.store import ArtifactStore

pytestmark = pytest.mark.slow

N_TRIALS = 64  # 16 trials per model: enough for trip -> cooldown -> probe cycles


def _trial_records(out_dir):
    by_index = CampaignJournal(out_dir / JOURNAL_NAME).trial_records()
    return [by_index[i] for i in sorted(by_index)]


class TestMetricsReconcileWithJournal:
    @pytest.fixture()
    def stressed_cache(self, multi_model_cache):
        """Four valid models with one member of ``net-01`` corrupted on both
        splits, so its breaker trips and re-trips throughout the campaign."""

        victim_dir = multi_model_cache / "net-01"
        for split in ("val", "test"):
            target = victim_dir / f"pp-Gamma_2.{split}.probs.npz"
            corrupt_file_truncate(target, target, keep_fraction=0.2, seed=5)
        return multi_model_cache

    def test_parallel_soak_counters_match_journal_exactly(self, stressed_cache, tmp_path):
        config = CampaignConfig(
            cache=str(stressed_cache),
            n_trials=N_TRIALS,
            seed=7,
            timeout_s=120.0,
            failure_threshold=2,
            cooldown_ticks=1,
        )
        out = tmp_path / "out"
        # the reconciliation below counts assemble calls per trial, which the
        # batched kernel deliberately amortizes — pin the per-trial loop
        runner = ParallelCampaignRunner(config, out, workers=4, batch_size=1)
        summary = runner.run()
        assert summary["completed"] == N_TRIALS
        assert summary["failed_workers"] == []
        assert summary["breakers"], "stressor failed to trip any breaker"

        reg = runner.merged_registry
        records = _trial_records(out)
        assert len(records) == N_TRIALS

        # 0. the merged evidence trail must audit clean end to end: chain
        # walk, checkpoint-sealed head, and a full replay of every spec
        audit = verify_campaign(out)
        assert audit["ok"], audit["first_bad"]
        assert audit["complete"] and audit["trials"] == N_TRIALS
        assert not audit["shards"]  # merge consumed every worker shard

        # 1. outcome tallies: journal vs campaign_trials_total, label by label
        tally = Tally(r["outcome"] for r in records)
        assert tally == {OUTCOME_OK: N_TRIALS}  # this workload never errors
        for outcome, n in tally.items():
            assert reg.counter_value("campaign_trials_total", outcome=outcome) == n
        assert reg.counter_total("campaign_trials_total") == N_TRIALS
        assert reg.histogram_for("campaign_trial_seconds").count == N_TRIALS

        # 2. cheap breaker skips: the final journalled snapshot of each model
        # carries that board's cumulative n_skipped; the counters must agree
        final_snap_by_model = {}
        for r in records:  # records are index-ordered, so last write wins
            final_snap_by_model[r["spec"]["model"]] = r["breakers"]
        journalled_skips = sum(
            b["n_skipped"]
            for snap in final_snap_by_model.values()
            for b in snap["breakers"].values()
        )
        assert journalled_skips > 0, "breaker never served a cheap skip"
        assert reg.counter_value("breaker_skips_total") == journalled_skips
        assert (
            reg.counter_value("ensemble_member_skips_total", reason="circuit-open")
            == journalled_skips
        )

        # 3. assemble accounting: every ok trial assembles val + test, and
        # only the victim model's assembles are degraded
        ok_by_model = Tally(r["spec"]["model"] for r in records if r["outcome"] == OUTCOME_OK)
        assert reg.counter_total("ensemble_assemble_total") == 2 * tally[OUTCOME_OK]
        assert (
            reg.counter_value("ensemble_assemble_total", degraded="true")
            == 2 * ok_by_model["net-01"]
        )

        # 4. every degraded assemble of the victim drops exactly one member
        # (the corrupt one), either as a real load-and-quarantine or as a
        # circuit-open skip
        drop_reasons = (
            reg.counter_value("ensemble_member_skips_total", reason="quarantined")
            + reg.counter_value("ensemble_member_skips_total", reason="circuit-open")
            + reg.counter_value("ensemble_member_skips_total", reason="missing")
            + reg.counter_value("ensemble_member_skips_total", reason="shape-disagrees")
        )
        assert drop_reasons == 2 * ok_by_model["net-01"]

        # 5. error taxonomy vs store results: every corrupt/quarantined-hit
        # probs load raised (and therefore counted) an ArtifactCorrupt
        corrupt_loads = reg.counter_value(
            "store_load_total", kind="probs", result="corrupt"
        ) + reg.counter_value("store_load_total", kind="probs", result="quarantined-hit")
        assert corrupt_loads > 0
        taxonomy_corrupt = sum(
            row["value"]
            for row in reg.to_dict()["counters"]
            if row["name"] == "errors_total" and row["labels"].get("type") == "ArtifactCorrupt"
        )
        assert taxonomy_corrupt == corrupt_loads

        # 6. one decision-module fit per distinct (model, member set) the ok
        # trials ran on: each worker's per-model runtime memoises its gate,
        # and trial ownership is partitioned by model, so no pair is fitted
        # by two runtimes
        fitted = {
            (r["spec"]["model"], tuple(r["result"]["members"]))
            for r in records
            if r["outcome"] == OUTCOME_OK
        }
        assert reg.histogram_for("decision_fit_seconds").count == len(fitted)

    def test_serial_soak_with_timeouts_and_errors_reconciles(self, tmp_path, bare_cache):
        """A fake workload that hangs and raises on schedule: the watchdog
        and error counters must match the journal's outcome tallies."""

        cache = bare_cache("a", "b")

        def misbehaves(spec):
            if spec.index % 10 == 3:
                time.sleep(30)  # watchdog food
            if spec.index % 10 == 7:
                raise RuntimeError("injected")
            return {"model": spec.model}

        n_trials = 40
        config = CampaignConfig(cache=str(cache), n_trials=n_trials, seed=3, timeout_s=0.2)
        runner = CampaignRunner(config, tmp_path / "out", trial_fn=misbehaves)
        summary = runner.run()
        assert summary["completed"] == n_trials

        audit = verify_campaign(tmp_path / "out")
        assert audit["ok"], audit["first_bad"]
        assert audit["trials"] == n_trials

        reg = runner.merged_registry
        tally = Tally(r["outcome"] for r in _trial_records(tmp_path / "out"))
        assert tally[OUTCOME_TIMEOUT] == 4
        assert tally[OUTCOME_ERROR] == 4
        for outcome in (OUTCOME_OK, OUTCOME_ERROR, OUTCOME_TIMEOUT):
            assert reg.counter_value("campaign_trials_total", outcome=outcome) == tally[outcome]
        assert reg.counter_value("campaign_watchdog_fired_total") == tally[OUTCOME_TIMEOUT]
        assert reg.histogram_for("campaign_trial_seconds").count == n_trials


class TestServeSoak:
    """1k requests through an in-process gateway under a tripping-breaker
    schedule: alternating flood bursts (queue pressure trips the sheddable
    members' breakers) and calm sequential phases (cool-down closes them
    again).  Afterwards ``serve_requests_total{outcome}`` must reconcile
    *exactly* against the responses actually received — plus the shed /
    degraded / deadline side counters and the latency histogram count."""

    N_REQUESTS = 1000
    BURSTS = 20
    FLOOD = 40  # concurrent requests per burst
    CALM = 10  # sequential requests after each burst

    def test_serve_1k_requests_reconciles_counters_exactly(self, synthetic_cache):
        import asyncio
        import json

        assert self.BURSTS * (self.FLOOD + self.CALM) == self.N_REQUESTS
        # cooldown must exceed one batch tick: with cooldown_ticks=1 an open
        # breaker is re-admitted as a half-open probe on the very next batch
        # and no response is ever actually served degraded
        board = BreakerBoard(BreakerPolicy(failure_threshold=2, cooldown_ticks=2))
        service = PolygraphService(ArtifactStore(synthetic_cache), breakers=board)
        config = ServeConfig(
            host="127.0.0.1",
            port=0,
            max_queue=32,
            degrade_depth=4,
            batch_max=8,
            coalesce_ms=1.0,
            batch_sleep_s=0.002,
        )

        async def one(port: int, request: ServeRequest) -> dict:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(request_frame(request))
            await writer.drain()
            raw = await reader.readline()
            writer.close()
            return json.loads(raw)

        def make_request(i: int) -> ServeRequest:
            # every 97th request carries an unmeetable budget: the batch
            # sleep alone exceeds it, so executed ones expire deterministically
            deadline = 0.01 if i % 97 == 96 else None
            return ServeRequest(id=f"r{i}", model="tinynet", samples=(i % 160,), deadline_ms=deadline)

        async def run():
            gateway = ServeGateway(service, config)
            await gateway.start()
            port = gateway.bound_port
            responses: list[dict] = []
            degraded_bursts: set[int] = set()
            i = 0
            try:
                for burst in range(self.BURSTS):
                    flood = await asyncio.gather(
                        *[one(port, make_request(i + k)) for k in range(self.FLOOD)]
                    )
                    i += self.FLOOD
                    if any(p["outcome"] == "degraded" for p in flood):
                        degraded_bursts.add(burst)
                    responses.extend(flood)
                    for _ in range(self.CALM):
                        responses.append(await one(port, make_request(i)))
                        i += 1
                final = await one(port, ServeRequest(id="final", model="tinynet", samples=(0,)))
            finally:
                await gateway.drain()
            return responses, degraded_bursts, final

        responses, degraded_bursts, final = asyncio.run(run())
        assert len(responses) == self.N_REQUESTS

        # the schedule did what it was built to do: pressure tripped breakers
        # in more than one burst (trip -> cool-down -> re-trip), load was
        # shed at the queue bound, and unmeetable budgets expired
        tally = Tally(p["outcome"] for p in responses)
        assert tally["degraded"] > 0, "no burst ever degraded the member set"
        assert len(degraded_bursts) >= 2, "breakers never re-tripped after cooling down"
        assert tally["overloaded"] > 0, "queue bound never shed"
        assert tally["deadline_exceeded"] > 0, "no unmeetable budget expired"
        assert "error" not in tally
        # calm queue at the end: breakers closed again, full member set back
        assert final["outcome"] == "ok" and final["breakers"] == {}

        # exact reconciliation: every counter equals the response tally —
        # +1 "ok" for the final recovery probe, which is a served request too
        tally["ok"] += 1
        reg = get_registry()
        for outcome in OUTCOMES:
            assert reg.counter_value("serve_requests_total", outcome=outcome) == tally[outcome], outcome
        assert reg.counter_total("serve_requests_total") == self.N_REQUESTS + 1
        assert reg.counter_value("serve_shed_total") == tally["overloaded"]
        assert reg.counter_value("serve_degraded_total") == tally["degraded"]
        assert reg.counter_value("serve_deadline_exceeded_total") == tally["deadline_exceeded"]
        assert reg.histogram_for("serve_request_seconds").count == self.N_REQUESTS + 1
        # every client read its replies: no outbox ever passed its bound or
        # outlived the drain flush window
        assert reg.counter_value("serve_slow_reader_closed_total") == 0
        # every non-shed request crossed the dispatcher in some batch
        executed = self.N_REQUESTS + 1 - tally["overloaded"]
        batch_sizes = reg.histogram_for("serve_batch_size")
        assert batch_sizes is not None and batch_sizes.sum == executed
        assert batch_sizes.count == reg.counter_value("serve_batches_total")
        # every row of every ok/degraded reply was either evaluated for its
        # batch or served from the session's row memo, never both
        served_rows = sum(len(p["predictions"]) for p in [*responses, final] if p["outcome"] in ("ok", "degraded"))
        memo_rows = reg.counter_value("serve_reply_rows_total", source="memo")
        evaluated_rows = reg.counter_value("serve_reply_rows_total", source="evaluated")
        assert memo_rows + evaluated_rows == served_rows
        assert memo_rows > 0 and evaluated_rows > 0
