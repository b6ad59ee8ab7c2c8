"""Differential + failure-mode suite for the multi-process execution plane.

The load-bearing guarantee: a response served through ``--serve-workers N``
pooled evaluators is **byte-identical** to the in-process gateway for every
outcome — ok, degraded (including under pre-tripped breaker pressure),
error, and deadline_exceeded — because all policy stays in the dispatcher
and workers run the identical tensor-op path on identical inputs.  Plus the
crash contract (SIGKILL a worker mid-batch → the request is still answered,
byte-identical, the pool respawns, ``/dev/shm`` stays clean), the drain
shard-merge, slow-reader isolation through pooled batches, and the
satellite fast-path regressions (``check_samples``, ``.tolist()`` payload
encoding).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal

import numpy as np
import pytest

from polygraphmr.breaker import OPEN, BreakerBoard, BreakerPolicy
from polygraphmr.errors import ConfigError
from polygraphmr.metrics import get_registry
from polygraphmr.serve import (
    FALLBACK_NO_WORKERS,
    FALLBACK_WORKER_CRASH,
    OUTCOME_DEADLINE,
    OUTCOME_DEGRADED,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_OVERLOADED,
    PolygraphService,
    PoolFallback,
    ServeConfig,
    ServeGateway,
    ServeRequest,
    WorkerPool,
    flat_sample_indices,
    request_frame,
    response_frame,
)
from polygraphmr.store import ArtifactStore
from polygraphmr.tracing import get_tracer

from .slow_reader import assert_slow_reader_isolated

MODEL = "tinynet"


@pytest.fixture()
def service(synthetic_cache):
    return PolygraphService(ArtifactStore(synthetic_cache))


def make_pooled_gateway(service: PolygraphService, *, workers: int = 2, **overrides) -> ServeGateway:
    config = ServeConfig(host="127.0.0.1", port=0, workers=workers, **overrides)
    return ServeGateway(service, config)


async def tcp_request(port: int, request: ServeRequest) -> tuple[dict, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request_frame(request))
    await writer.drain()
    raw = await reader.readline()
    writer.close()
    return json.loads(raw), raw


def shm_plane_entries() -> list[str]:
    shm = "/dev/shm"
    if not os.path.isdir(shm):  # pragma: no cover - non-Linux fallback
        return []
    return [name for name in os.listdir(shm) if name.startswith("pgmr-")]


class TestPooledDifferential:
    def test_pooled_ok_responses_byte_identical_to_serial(self, synthetic_cache, service):
        """Coalesced batches through 4 forked workers == serial in-process
        evaluation, byte for byte.  Every row is distinct and cold, so the
        pool evaluates each exactly once."""

        requests = [ServeRequest(id=f"p{i}", model=MODEL, samples=(i, 12 + i, 159 - i)) for i in range(12)]

        async def run():
            gateway = make_pooled_gateway(service, workers=4, coalesce_ms=100.0, batch_max=8)
            await gateway.start()
            assert len(gateway.worker_pids) == 4
            try:
                return await asyncio.gather(*[tcp_request(gateway.bound_port, r) for r in requests])
            finally:
                await gateway.drain()

        results = asyncio.run(run())
        reg = get_registry()
        assert reg.counter_value("serve_pool_fallback_total", reason=FALLBACK_WORKER_CRASH) == 0
        assert reg.counter_value("serve_pool_samples_total") == sum(len(r.samples) for r in requests)
        assert reg.counter_value("serve_worker_batches_total") >= 1, "worker shards never merged"

        serial = PolygraphService(ArtifactStore(synthetic_cache))
        for request, (payload, raw) in zip(requests, results):
            assert payload["outcome"] == OUTCOME_OK
            assert raw == response_frame(serial.respond(request))

    def test_pooled_degraded_under_breaker_pressure_byte_identical(self, synthetic_cache):
        """A pre-tripped breaker (open far beyond any cooldown) degrades the
        pooled response exactly as it degrades the serial one — the worker
        receives the already-narrowed member set, never the board."""

        def tripped_board() -> BreakerBoard:
            board = BreakerBoard(BreakerPolicy(failure_threshold=1, cooldown_ticks=10**6))
            board.record_failure(MODEL, "pp-Hist")
            return board

        pooled = PolygraphService(ArtifactStore(synthetic_cache), breakers=tripped_board())
        request = ServeRequest(id="deg1", model=MODEL, samples=(0, 1, 7))

        async def run():
            gateway = make_pooled_gateway(pooled, workers=2)
            await gateway.start()
            try:
                return await tcp_request(gateway.bound_port, request)
            finally:
                await gateway.drain()

        payload, raw = asyncio.run(run())
        assert payload["outcome"] == OUTCOME_DEGRADED
        assert "pp-Hist" not in payload["members"]
        assert payload["breakers"]["pp-Hist"] == OPEN

        serial = PolygraphService(ArtifactStore(synthetic_cache), breakers=tripped_board())
        assert raw == response_frame(serial.respond(request))

    def test_pooled_error_and_deadline_outcomes_byte_identical(self, synthetic_cache, service):
        """Validation errors and expired deadlines never reach a worker; the
        dispatcher answers them with the same frames as in-process serving."""

        bad = ServeRequest(id="e1", model=MODEL, samples=(0, 10**6))
        unknown = ServeRequest(id="e2", model="nope", samples=(0,))
        hurried = ServeRequest(id="h1", model=MODEL, samples=(0,), deadline_ms=1.0)

        async def run():
            gateway = make_pooled_gateway(service, workers=2, coalesce_ms=20.0, batch_sleep_s=0.05)
            await gateway.start()
            try:
                return await asyncio.gather(
                    tcp_request(gateway.bound_port, bad),
                    tcp_request(gateway.bound_port, unknown),
                    tcp_request(gateway.bound_port, hurried),
                )
            finally:
                await gateway.drain()

        (bad_p, bad_raw), (unk_p, _), (hur_p, hur_raw) = asyncio.run(run())
        assert bad_p["outcome"] == OUTCOME_ERROR
        assert bad_p["error"]["field"] == "request.samples[1]"
        assert unk_p["outcome"] == OUTCOME_ERROR
        assert unk_p["error"]["reason"] == "unknown-model"
        assert hur_p["outcome"] == OUTCOME_DEADLINE

        serial = PolygraphService(ArtifactStore(synthetic_cache))
        assert bad_raw == response_frame(serial.respond(bad))
        assert hur_raw == response_frame({"id": "h1", "outcome": OUTCOME_DEADLINE, "model": MODEL})


class TestPoolOverlap:
    @pytest.mark.parametrize(("workers", "expected_peak"), [(2, 2), (0, 1)])
    def test_batches_overlap_up_to_the_pool_size(self, service, monkeypatch, workers, expected_peak):
        """Pooled batches run concurrently, at most one per worker; the
        in-process gateway runs them one at a time.  Counted directly on
        ``_run_plans``, so the sleep padding cannot pass for worker speed."""

        running = 0
        peak = 0
        calls = 0
        run_plans = ServeGateway._run_plans

        async def counting_run_plans(self, plans):
            nonlocal running, peak, calls
            calls += 1
            running += 1
            peak = max(peak, running)
            try:
                await run_plans(self, plans)
            finally:
                running -= 1

        monkeypatch.setattr(ServeGateway, "_run_plans", counting_run_plans)
        requests = [ServeRequest(id=f"o{i}", model=MODEL, samples=(i,)) for i in range(4)]

        async def run():
            gateway = make_pooled_gateway(
                service, workers=workers, batch_max=1, coalesce_ms=0.0, batch_sleep_s=0.2
            )
            await gateway.start()
            try:
                return await asyncio.gather(*[tcp_request(gateway.bound_port, r) for r in requests])
            finally:
                await gateway.drain()

        results = asyncio.run(run())
        assert [payload["outcome"] for payload, _ in results] == [OUTCOME_OK] * len(requests)
        assert calls == len(requests)  # batch_max=1: one batch per request
        assert peak == expected_peak


class TestPoolCrash:
    def test_sigkill_worker_mid_batch_still_answers_byte_identical(self, synthetic_cache, service):
        """Kill-matrix for the serving pool: SIGKILL the only worker while
        its batch is in flight.  The request must still be answered (via the
        in-process fallback), byte-identical, the pool must respawn the
        slot, and no ``/dev/shm/pgmr-*`` entry may survive."""

        request = ServeRequest(id="k1", model=MODEL, samples=(2, 4, 8))

        async def run():
            gateway = make_pooled_gateway(service, workers=1, coalesce_ms=0.0, batch_sleep_s=0.3)
            await gateway.start()
            (first_pid,) = gateway.worker_pids
            try:
                task = asyncio.create_task(tcp_request(gateway.bound_port, request))
                # batch dispatched, sleep-padded execution in flight: the job
                # has not reached the worker yet, so the kill lands mid-batch
                await asyncio.sleep(0.1)
                os.kill(first_pid, signal.SIGKILL)
                payload, raw = await asyncio.wait_for(task, timeout=30.0)
                respawned = gateway.worker_pids
                return payload, raw, first_pid, respawned
            finally:
                await gateway.drain()

        payload, raw, first_pid, respawned = asyncio.run(run())
        assert payload["outcome"] == OUTCOME_OK
        serial = PolygraphService(ArtifactStore(synthetic_cache))
        assert raw == response_frame(serial.respond(request))

        assert respawned and respawned != [first_pid], "pool never respawned the killed slot"
        reg = get_registry()
        assert reg.counter_value("serve_pool_fallback_total", reason=FALLBACK_WORKER_CRASH) == 1
        assert reg.counter_value("serve_worker_restarts_total") == 1
        assert shm_plane_entries() == [], "SIGKILL leaked a shared-memory plane segment"

    def test_evaluate_without_workers_raises_no_workers_fallback(self, service):
        """An empty pool (never started / all buried during drain) raises the
        explicit no-workers fallback instead of hanging."""

        pool = WorkerPool(service, 1)  # never started: no live workers

        async def run():
            with pytest.raises(PoolFallback) as excinfo:
                await pool.evaluate(MODEL, ["ORG"], np.array([0], dtype=np.int64))
            return excinfo.value.reason

        assert asyncio.run(run()) == FALLBACK_NO_WORKERS

    def test_pool_size_must_be_positive(self, service):
        with pytest.raises(ValueError):
            WorkerPool(service, 0)


class TestPoolDrain:
    def test_drain_merges_worker_shards_and_reaps_processes(self, service):
        """Drain ships each worker's metrics/tracing shard over the pipe,
        merges them into the parent registry (campaign shard-merge
        semantics), absorbs worker spans, and reaps every process."""

        requests = [ServeRequest(id=f"d{i}", model=MODEL, samples=(i,)) for i in range(6)]

        async def run():
            gateway = make_pooled_gateway(service, workers=2, coalesce_ms=50.0, batch_max=8)
            await gateway.start()
            pids = list(gateway.worker_pids)
            results = await asyncio.gather(*[tcp_request(gateway.bound_port, r) for r in requests])
            await gateway.drain()
            return results, pids

        results, pids = asyncio.run(run())
        assert all(payload["outcome"] == OUTCOME_OK for payload, _ in results)

        reg = get_registry()
        worker_batches = reg.counter_value("serve_worker_batches_total")
        worker_samples = reg.counter_value("serve_worker_samples_total")
        assert worker_batches >= 1, "no worker shard reached the parent registry"
        assert worker_samples == len(requests), "merged worker sample count disagrees with the load"
        assert reg.counter_total("serve_pool_jobs_total") == worker_batches
        hist = reg.histogram_for("serve_worker_eval_seconds")
        assert hist is not None and hist.count == worker_batches

        absorbed = [record for record in get_tracer().finished() if record.name == "serve.worker.evaluate"]
        assert len(absorbed) == worker_batches, "worker spans were not absorbed on drain"

        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # reaped: no process, not even a zombie
        assert shm_plane_entries() == []

    def test_pooled_counters_reconcile_with_response_tallies(self, service):
        """The soak invariant, pooled: per-outcome ``serve_requests_total``
        — merged across worker shards — reconciles exactly with the
        responses clients actually received."""

        flood = [ServeRequest(id=f"f{i}", model=MODEL, samples=(i % 160,)) for i in range(40)]
        hurried = [
            ServeRequest(id=f"h{i}", model=MODEL, samples=(i,), deadline_ms=0.01) for i in range(3)
        ]
        invalid = [ServeRequest(id=f"x{i}", model=MODEL, samples=(10**6,)) for i in range(2)]

        async def run():
            gateway = make_pooled_gateway(
                service, workers=2, max_queue=8, degrade_depth=4, batch_max=4, coalesce_ms=1.0, batch_sleep_s=0.02
            )
            await gateway.start()
            try:
                # sequential first: a calm queue guarantees these reach
                # validation / deadline filtering instead of being shed
                calm = [await tcp_request(gateway.bound_port, r) for r in (*hurried, *invalid)]
                flooded = await asyncio.gather(*[tcp_request(gateway.bound_port, r) for r in flood])
                return [*calm, *flooded]
            finally:
                await gateway.drain()

        results = asyncio.run(run())
        tallies: dict[str, int] = {}
        for payload, _ in results:
            tallies[payload["outcome"]] = tallies.get(payload["outcome"], 0) + 1

        assert len(results) == len(flood) + len(hurried) + len(invalid), "a request went unanswered"
        assert tallies.get(OUTCOME_ERROR, 0) == len(invalid)

        reg = get_registry()
        for outcome in (OUTCOME_OK, OUTCOME_DEGRADED, OUTCOME_OVERLOADED, OUTCOME_DEADLINE, OUTCOME_ERROR):
            assert reg.counter_value("serve_requests_total", outcome=outcome) == tallies.get(outcome, 0), outcome
        served_rows = sum(
            len(payload["predictions"])
            for payload, _ in results
            if payload["outcome"] in (OUTCOME_OK, OUTCOME_DEGRADED)
        )
        assert (
            reg.counter_value("serve_reply_rows_total", source="memo")
            + reg.counter_value("serve_reply_rows_total", source="evaluated")
            == served_rows
        )


class TestPoolSlowReader:
    def test_non_reader_is_isolated_then_closed_by_the_drain_flush_window(self, synthetic_cache, service):
        """Pooled batches write through the same outboxes: a client that
        never reads delays nobody, and drain still ends."""

        assert_slow_reader_isolated(make_pooled_gateway(service, workers=2), synthetic_cache)


class TestPoolRowMemo:
    def test_second_pass_over_served_rows_ships_nothing_to_the_pool(self, synthetic_cache, service):
        """Rows already served come from the parent's row memo: a second
        pass over them sends no job to a worker, and its replies stay
        byte-identical to serial serving."""

        first = [ServeRequest(id=f"a{i}", model=MODEL, samples=(i, 40 + i)) for i in range(8)]
        second = [ServeRequest(id=f"b{i}", model=MODEL, samples=(40 + i, i, i)) for i in range(8)]

        async def run():
            gateway = make_pooled_gateway(service, workers=2, coalesce_ms=20.0, batch_max=4)
            await gateway.start()
            reg = get_registry()
            try:
                await asyncio.gather(*[tcp_request(gateway.bound_port, r) for r in first])
                shipped = reg.counter_value("serve_pool_samples_total")
                jobs = reg.counter_total("serve_pool_jobs_total")
                results = await asyncio.gather(*[tcp_request(gateway.bound_port, r) for r in second])
                assert reg.counter_value("serve_pool_samples_total") == shipped
                assert reg.counter_total("serve_pool_jobs_total") == jobs
                return shipped, results
            finally:
                await gateway.drain()

        shipped, results = asyncio.run(run())
        reg = get_registry()
        assert reg.counter_total("serve_pool_fallback_total") == 0
        assert shipped == sum(len(r.samples) for r in first)  # distinct cold rows, each shipped once
        assert reg.counter_value("serve_reply_rows_total", source="evaluated") == shipped
        assert reg.counter_value("serve_reply_rows_total", source="memo") == sum(len(r.samples) for r in second)

        serial = PolygraphService(ArtifactStore(synthetic_cache))
        for request, (payload, raw) in zip(second, results):
            assert payload["outcome"] == OUTCOME_OK
            assert raw == response_frame(serial.respond(request))


class TestCheckSamples:
    def test_valid_indices_pass(self, service):
        service.check_samples(MODEL, ServeRequest(id="v", model=MODEL, samples=(0, 159, 42)))

    @pytest.mark.parametrize(
        ("samples", "first_bad"),
        [
            ((0, 160, 3, 9999), 1),
            ((0, 170, 10**6, 160, 7), 1),  # the largest index is not the first bad one
            ((5, 6, 160, 161, 9999, 1), 2),
            ((200, 300, 400), 0),
            ((0, 1, 2, 159, 160), 4),
        ],
    )
    def test_first_offending_index_names_the_exact_field(self, service, samples, first_bad):
        """With several indices out of range, the error names the *first*
        one's field path, as the old per-index Python loop did."""

        with pytest.raises(ConfigError) as excinfo:
            service.check_samples(MODEL, ServeRequest(id="v", model=MODEL, samples=samples))
        assert excinfo.value.field == f"request.samples[{first_bad}]"
        assert excinfo.value.reason == "out-of-range"
        assert "160 test samples" in excinfo.value.detail

    def test_flat_sample_indices_concatenates_in_request_order(self):
        requests = [
            ServeRequest(id="a", model=MODEL, samples=(3, 1)),
            ServeRequest(id="b", model=MODEL, samples=(4,)),
        ]
        flat = flat_sample_indices(requests)
        assert flat.dtype == np.int64
        assert flat.tolist() == [3, 1, 4]


class TestEncoderByteIdentity:
    def test_tolist_payloads_byte_identical_to_per_element_encoder(self, service):
        """Regression pin: ``.tolist()`` fast-path encoding produces the
        exact frames the old per-element ``float()``/``int()`` loops did."""

        requests = [
            ServeRequest(id="t0", model=MODEL, samples=(0, 7, 31)),
            ServeRequest(id="t1", model=MODEL, samples=(159,)),
            ServeRequest(id="t2", model=MODEL, samples=(12, 12, 13)),
        ]
        session = service.base_session(MODEL)
        active = list(session.members)
        flat = flat_sample_indices(requests)
        probs, predictions, flags = session.evaluate(flat)
        breaker_states = service.board.states_for(MODEL)

        # the pre-vectorization encoder, verbatim
        old_frames = []
        offset = 0
        for request in requests:
            span = slice(offset, offset + len(request.samples))
            offset += len(request.samples)
            old_frames.append(
                response_frame(
                    {
                        "id": request.id,
                        "outcome": OUTCOME_OK,
                        "model": MODEL,
                        "members": list(session.members),
                        "probs": [[float(p) for p in row] for row in probs[span]],
                        "predictions": [int(p) for p in predictions[span]],
                        "flags": [int(f) for f in flags[span]],
                        "degraded": False,
                        "shed": [],
                        "missing": list(session.missing),
                        "quarantined": dict(session.quarantined),
                        "breakers": breaker_states,
                    }
                )
            )

        payloads = service.evaluate_requests(MODEL, requests, active=active, shed=[])
        assert [response_frame(p) for p in payloads] == old_frames

    def test_static_stanza_is_cached_and_shared(self, service):
        first = service.static_stanza(MODEL, ["ORG", "pp-Gamma_2"], [])
        second = service.static_stanza(MODEL, ["ORG", "pp-Gamma_2"], [])
        assert first is second, "stanza cache missed on an identical key"
        other = service.static_stanza(MODEL, ["ORG"], ["pp-Gamma_2"])
        assert other is not first
        assert other["shed"] == ["pp-Gamma_2"]
