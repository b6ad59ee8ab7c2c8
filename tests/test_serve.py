"""Differential + concurrency suite for the serving gateway.

The load-bearing guarantee: a coalesced micro-batched response is
**byte-identical** (probs, verdict, degraded flags — the whole frame) to the
same request run serially through the ensemble runtime.  Plus the overload
contract (bounded queue → explicit shed, sustained pressure → degraded
member sets via the circuit breakers, calm → recovery), deadline budgets,
and graceful drain with in-flight requests completed.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from polygraphmr.breaker import OPEN, BreakerBoard, BreakerPolicy
from polygraphmr.decision import LogisticDecisionModule, misprediction_targets
from polygraphmr.ensemble import EnsembleRuntime
from polygraphmr.errors import ConfigError, RetryPolicy
from polygraphmr.metrics import get_registry
from polygraphmr.serve import (
    DRAIN_FLUSH_S,
    MAX_SAMPLES_PER_REQUEST,
    OUTBOX_LIMIT_BYTES,
    OUTCOME_DEADLINE,
    OUTCOME_DEGRADED,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_OVERLOADED,
    OUTCOMES,
    PolygraphService,
    ServeConfig,
    ServeGateway,
    ServeRequest,
    _Connection,
    _Queued,
    coalesce_slices,
    flat_sample_indices,
    main,
    request_frame,
    response_frame,
)
from polygraphmr.store import ArtifactStore

from . import oracles

MODEL = "tinynet"
N_TEST = 160  # test rows of the ``synthetic_cache`` fixture's model
REPLY_WITHIN_S = 1.0
DRAIN_WITHIN_S = DRAIN_FLUSH_S + 5.0
SETTLE_WITHIN_S = 10.0


@pytest.fixture()
def service(synthetic_cache):
    return PolygraphService(ArtifactStore(synthetic_cache))


def make_gateway(service: PolygraphService, **overrides) -> ServeGateway:
    config = ServeConfig(host="127.0.0.1", port=0, **overrides)
    return ServeGateway(service, config)


async def tcp_request(port: int, request: ServeRequest) -> tuple[dict, bytes]:
    """One request over its own connection; returns (payload, raw frame bytes)."""

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request_frame(request))
    await writer.drain()
    raw = await reader.readline()
    writer.close()
    return json.loads(raw), raw


async def tcp_send_raw(port: int, frame: bytes) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(frame)
    await writer.drain()
    raw = await reader.readline()
    writer.close()
    return json.loads(raw)


def max_size_request(rid: str) -> ServeRequest:
    return ServeRequest(id=rid, model=MODEL, samples=tuple(i % N_TEST for i in range(MAX_SAMPLES_PER_REQUEST)))


async def open_non_reader(port: int) -> asyncio.StreamWriter:
    """A connection whose client never reads.  Its small receive buffer
    keeps the kernel's share of the replies small, so the outcome does not
    depend on socket autotuning."""

    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", port))
    _reader, writer = await asyncio.open_connection(sock=sock)
    return writer


async def settle(predicate, what: str, within_s: float = SETTLE_WITHIN_S) -> None:
    deadline = time.monotonic() + within_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"gateway never {what} within {within_s} s")
        await asyncio.sleep(0.01)


class TestDifferential:
    def test_single_request_byte_equivalent_to_direct_ensemble_run(self, synthetic_cache, service):
        """The gateway's frame for one request equals — byte for byte — what
        an independent walk through the ensemble runtime produces."""

        samples = (3, 0, 17, 44)
        runtime = EnsembleRuntime(ArtifactStore(synthetic_cache), min_members=2)
        plan = runtime.member_plan(MODEL)
        val = runtime.assemble(MODEL, "val", members=plan)
        test = runtime.assemble(MODEL, "test", members=plan)
        common = [s for s in val.members if s in set(test.members)]
        val_stack = np.stack([val.stacked[val.members.index(s)] for s in common], axis=0)
        test_stack = np.stack([test.stacked[test.members.index(s)] for s in common], axis=0)
        module = LogisticDecisionModule()
        org_val = val_stack[common.index("ORG")]
        labels = runtime.store.load_labels(MODEL, "val")
        module.fit(oracles.ensemble_features(val_stack), misprediction_targets(org_val, labels))
        sub = test_stack[:, list(samples), :]
        probs = sub.mean(axis=0)
        expected = {
            "id": "r1",
            "outcome": OUTCOME_OK,
            "model": MODEL,
            "members": common,
            "probs": [[float(p) for p in row] for row in probs],
            "predictions": [int(p) for p in probs.argmax(axis=1)],
            "flags": [int(f) for f in module.predict(oracles.ensemble_features(sub))],
            "degraded": False,
            "shed": [],
            "missing": [],
            "quarantined": {},
            "breakers": {},
        }

        async def run():
            gateway = make_gateway(service)
            await gateway.start()
            try:
                return await tcp_request(gateway.bound_port, ServeRequest(id="r1", model=MODEL, samples=samples))
            finally:
                await gateway.drain()

        _, raw = asyncio.run(run())
        assert raw == response_frame(expected)

    def test_coalesced_micro_batch_byte_identical_to_serial(self, synthetic_cache, service):
        """N concurrent requests coalesced into micro-batches produce the
        same bytes as N serial runs through a fresh service."""

        requests = [ServeRequest(id=f"c{i}", model=MODEL, samples=(i, (i * 7) % 160, 159 - i)) for i in range(8)]

        async def run():
            gateway = make_gateway(service, coalesce_ms=100.0, batch_max=8)
            await gateway.start()
            try:
                return await asyncio.gather(*[tcp_request(gateway.bound_port, r) for r in requests])
            finally:
                await gateway.drain()

        results = asyncio.run(run())
        assert get_registry().counter_value("serve_batches_total") < len(requests), "nothing coalesced"

        serial = PolygraphService(ArtifactStore(synthetic_cache))
        for request, (payload, raw) in zip(requests, results):
            assert payload["outcome"] == OUTCOME_OK
            assert raw == response_frame(serial.respond(request))

    def test_mixed_model_batch_stays_byte_identical(self, synthetic_cache, add_model, service):
        add_model(synthetic_cache, "othernet", seed=13)
        requests = [
            ServeRequest(id=f"m{i}", model=MODEL if i % 2 else "othernet", samples=(i, i + 1)) for i in range(6)
        ]

        async def run():
            gateway = make_gateway(service, coalesce_ms=100.0, batch_max=6)
            await gateway.start()
            try:
                return await asyncio.gather(*[tcp_request(gateway.bound_port, r) for r in requests])
            finally:
                await gateway.drain()

        results = asyncio.run(run())
        serial = PolygraphService(ArtifactStore(synthetic_cache))
        for request, (_, raw) in zip(requests, results):
            assert raw == response_frame(serial.respond(request))


class TestRowMemo:
    def test_shed_and_recover_never_mix_member_sets(self, synthetic_cache):
        """Rows warmed under the full member set never appear in a reply
        served by a narrower one: each member set has its own row memo.
        Every frame equals serial ``respond`` under the same board, and
        recovery serves the full set's rows from its memo again."""

        board = BreakerBoard(BreakerPolicy(failure_threshold=1, cooldown_ticks=10**6))
        service = PolygraphService(ArtifactStore(synthetic_cache), breakers=board)
        requests = [ServeRequest(id=f"w{i}", model=MODEL, samples=(i, 2 * i, i)) for i in range(6)]

        def serial_frames(tripped: bool) -> list[bytes]:
            ref_board = BreakerBoard(BreakerPolicy(failure_threshold=1, cooldown_ticks=10**6))
            ref = PolygraphService(ArtifactStore(synthetic_cache), breakers=ref_board)
            ref.base_session(MODEL)  # built with every member, as the gateway's was
            if tripped:
                ref_board.record_failure(MODEL, "pp-Hist")
            return [response_frame(ref.respond(r)) for r in requests]

        def serve() -> tuple[list[dict], list[bytes]]:
            async def run():
                gateway = make_gateway(service, coalesce_ms=20.0, batch_max=4)
                await gateway.start()
                try:
                    return await asyncio.gather(*[tcp_request(gateway.bound_port, r) for r in requests])
                finally:
                    await gateway.drain()

            results = asyncio.run(run())
            return [payload for payload, _ in results], [raw for _, raw in results]

        def evaluated_rows() -> int:
            return get_registry().counter_value("serve_reply_rows_total", source="evaluated")

        full, full_frames = serve()
        assert [p["outcome"] for p in full] == [OUTCOME_OK] * len(requests)
        assert full_frames == serial_frames(tripped=False)
        warmed = evaluated_rows()

        board.record_failure(MODEL, "pp-Hist")
        shed, shed_frames = serve()
        assert [p["outcome"] for p in shed] == [OUTCOME_DEGRADED] * len(requests)
        assert all("pp-Hist" not in p["members"] and p["shed"] == ["pp-Hist"] for p in shed)
        assert shed_frames == serial_frames(tripped=True)
        for before, after in zip(full, shed):
            assert before["probs"] != after["probs"], "a full-set row was served to a narrower set"
        assert evaluated_rows() > warmed  # the narrower set evaluated its own rows
        narrowed = evaluated_rows()

        board.record_success(MODEL, "pp-Hist")
        recovered, recovered_frames = serve()
        assert [p["outcome"] for p in recovered] == [OUTCOME_OK] * len(requests)
        assert recovered_frames == full_frames
        assert evaluated_rows() == narrowed  # every row came from the full set's memo


class TestDeadlines:
    def test_coalesce_slices_ride_the_retry_policy_schedule(self):
        """The dispatcher's coalescing waits ARE a RetryPolicy sleep schedule
        with max_total_sleep as the deadline budget."""

        assert coalesce_slices(0.02, 10.0) == RetryPolicy(
            attempts=5, base_delay=0.005, max_delay=0.005, jitter=0.0, max_total_sleep=10.0
        ).schedule()
        assert sum(coalesce_slices(0.02, 0.003)) <= 0.003 + 1e-12
        assert coalesce_slices(0.02, 0.0) == []
        assert coalesce_slices(0.0, 1.0) == []

    def test_expired_budget_answers_deadline_exceeded(self, service):
        """A 1 ms budget cannot survive a 50 ms batch; its companion without
        a deadline is served normally from the same batch."""

        async def run():
            gateway = make_gateway(service, coalesce_ms=20.0, batch_max=4, batch_sleep_s=0.05)
            await gateway.start()
            try:
                return await asyncio.gather(
                    tcp_request(gateway.bound_port, ServeRequest(id="hurry", model=MODEL, samples=(0,), deadline_ms=1.0)),
                    tcp_request(gateway.bound_port, ServeRequest(id="calm", model=MODEL, samples=(0,))),
                )
            finally:
                await gateway.drain()

        (hurried, _), (calm, _) = asyncio.run(run())
        assert hurried["outcome"] == OUTCOME_DEADLINE
        assert calm["outcome"] == OUTCOME_OK
        assert get_registry().counter_value("serve_deadline_exceeded_total") == 1
        assert get_registry().counter_value("serve_requests_total", outcome=OUTCOME_DEADLINE) == 1


class TestOverload:
    def test_bounded_queue_sheds_with_explicit_overloaded_reply(self, service):
        """Past max_queue pending requests the gateway replies ``overloaded``
        immediately — the queue is structurally bounded, never grows."""

        n = 12

        async def run():
            gateway = make_gateway(
                service, max_queue=2, degrade_depth=0, batch_max=1, coalesce_ms=0.0, batch_sleep_s=0.1
            )
            await gateway.start()
            assert gateway.queue.maxsize == 2
            try:
                return await asyncio.gather(
                    *[tcp_request(gateway.bound_port, ServeRequest(id=f"s{i}", model=MODEL, samples=(i,))) for i in range(n)]
                )
            finally:
                await gateway.drain()

        results = asyncio.run(run())
        outcomes = [payload["outcome"] for payload, _ in results]
        assert len(outcomes) == n, "every request got an explicit reply"
        shed = outcomes.count(OUTCOME_OVERLOADED)
        assert shed > 0, "overload never shed"
        assert set(outcomes) <= {OUTCOME_OK, OUTCOME_OVERLOADED}
        reg = get_registry()
        assert reg.counter_value("serve_shed_total") == shed
        assert reg.counter_value("serve_requests_total", outcome=OUTCOME_OVERLOADED) == shed
        assert reg.counter_value("serve_requests_total", outcome=OUTCOME_OK) == outcomes.count(OUTCOME_OK)

    def test_sustained_pressure_degrades_members_then_recovers(self, synthetic_cache):
        """Overloaded batches trip the sheddable members' breakers → degraded
        responses name the shed members; a calm queue closes them again."""

        board = BreakerBoard(BreakerPolicy(failure_threshold=1, cooldown_ticks=2))
        service = PolygraphService(ArtifactStore(synthetic_cache), breakers=board)
        full_members = list(service.base_session(MODEL).members)
        core, sheddable = full_members[:2], full_members[2:]

        async def run():
            gateway = make_gateway(
                service, max_queue=64, degrade_depth=2, batch_max=2, coalesce_ms=1.0, batch_sleep_s=0.02
            )
            await gateway.start()
            try:
                flood = await asyncio.gather(
                    *[tcp_request(gateway.bound_port, ServeRequest(id=f"f{i}", model=MODEL, samples=(i,))) for i in range(30)]
                )
                calm = []
                for i in range(6):  # sequential: queue depth ~0, breakers cool down and close
                    calm.append(await tcp_request(gateway.bound_port, ServeRequest(id=f"q{i}", model=MODEL, samples=(i,))))
                return flood, calm
            finally:
                await gateway.drain()

        flood, calm = asyncio.run(run())
        degraded = [payload for payload, _ in flood if payload["outcome"] == OUTCOME_DEGRADED]
        assert degraded, "sustained overload never degraded a response"
        worst = max(degraded, key=lambda p: len(p["shed"]))
        assert worst["members"] == core
        assert worst["shed"] == sorted(sheddable)
        assert worst["degraded"] is True
        assert all(state == OPEN for state in worst["breakers"].values())
        reg = get_registry()
        assert reg.counter_value("serve_degraded_total") == len(degraded)
        assert reg.counter_value("breaker_skips_total") > 0, "open breakers never served a cheap skip"

        final, _ = calm[-1]
        assert final["outcome"] == OUTCOME_OK
        assert final["members"] == full_members
        assert final["shed"] == [] and final["breakers"] == {}


class TestBreakerOpenMembers:
    def test_pre_opened_breaker_yields_degraded_member_responses(self, synthetic_cache):
        board = BreakerBoard(BreakerPolicy(failure_threshold=1, cooldown_ticks=10**6))
        board.record_failure(MODEL, "pp-Hist")
        service = PolygraphService(ArtifactStore(synthetic_cache), breakers=board)

        async def run():
            gateway = make_gateway(service)
            await gateway.start()
            try:
                return await tcp_request(gateway.bound_port, ServeRequest(id="b1", model=MODEL, samples=(0, 1)))
            finally:
                await gateway.drain()

        payload, _ = asyncio.run(run())
        assert payload["outcome"] == OUTCOME_DEGRADED
        assert "pp-Hist" not in payload["members"]
        assert payload["quarantined"] == {"pp-Hist": "circuit-open"}
        assert payload["breakers"]["pp-Hist"] == OPEN


class TestDrain:
    def test_sigterm_style_drain_completes_in_flight_requests(self, service):
        """drain() (what the CLI runs on SIGTERM) answers everything already
        queued, then refuses new connections."""

        n = 8

        async def run():
            gateway = make_gateway(service, batch_max=2, coalesce_ms=1.0, batch_sleep_s=0.05, max_queue=64)
            await gateway.start()
            port = gateway.bound_port
            ingested = []
            ingest = gateway._ingest
            gateway._ingest = lambda conn, frame: ingested.append(frame) or ingest(conn, frame)
            in_flight = [
                asyncio.create_task(tcp_request(port, ServeRequest(id=f"d{i}", model=MODEL, samples=(i,))))
                for i in range(n)
            ]
            # drain once every request is queued, not after a fixed pause: a
            # busy host can leave a client unconnected past any pause, and
            # drain rightly refuses it; four 50 ms batches keep it mid-load
            for _ in range(10_000):
                if len(ingested) == n:
                    break
                await asyncio.sleep(0.001)
            assert len(ingested) == n, "the gateway never received every request"
            await gateway.drain()
            results = await asyncio.gather(*in_flight)
            refused = False
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.close()
            except OSError:
                refused = True
            return results, refused

        results, refused = asyncio.run(run())
        assert len(results) == n
        assert all(payload["outcome"] in (OUTCOME_OK, OUTCOME_DEGRADED) for payload, _ in results)
        assert refused, "gateway kept accepting connections after drain"
        hist = get_registry().histogram_for("serve_request_seconds")
        assert hist is not None and hist.count == n


class RecordingTransport:
    """A transport stand-in that records each write; ``buffered`` plays the
    bytes the socket has not taken yet."""

    def __init__(self):
        self.writes: list[bytes] = []
        self.buffered = 0
        self.aborted = False

    def write(self, data: bytes) -> None:
        self.writes.append(bytes(data))

    def is_closing(self) -> bool:
        return self.aborted

    def get_write_buffer_size(self) -> int:
        return 0 if self.aborted else self.buffered

    def abort(self) -> None:
        self.aborted = True


class TestOutbox:
    def test_a_batch_is_one_write_per_connection(self, synthetic_cache, service):
        """Every frame a batch owes one connection — deadline, error and
        evaluated, in that order — leaves in a single write of their joined
        bytes, each frame byte-identical to serial serving."""

        ok_a = [ServeRequest(id=f"a{i}", model=MODEL, samples=(i, 2 * i + 1)) for i in range(5)]
        late = ServeRequest(id="late", model=MODEL, samples=(1,), deadline_ms=1.0)
        bad = ServeRequest(id="bad", model=MODEL, samples=(3, 10**6))
        ok_b = [ServeRequest(id=f"b{i}", model=MODEL, samples=(100 + i,)) for i in range(3)]
        a = _Connection(RecordingTransport())
        b = _Connection(RecordingTransport())

        async def run():
            gateway = make_gateway(service)
            now = time.perf_counter()
            batch = [_Queued(r, a, now) for r in ok_a[:3]]
            batch += [_Queued(r, b, now) for r in ok_b]
            batch += [_Queued(late, a, now - 1.0), _Queued(bad, a, now)]
            batch += [_Queued(r, a, now) for r in ok_a[3:]]
            await gateway._execute(batch)

        asyncio.run(run())
        serial = PolygraphService(ArtifactStore(synthetic_cache))
        deadline = response_frame({"id": "late", "outcome": OUTCOME_DEADLINE, "model": MODEL})
        expected_a = [deadline, response_frame(serial.respond(bad))]
        expected_a += [response_frame(serial.respond(r)) for r in ok_a]
        assert a.transport.writes == [b"".join(expected_a)]
        assert b.transport.writes == [b"".join(response_frame(serial.respond(r)) for r in ok_b)]

        reg = get_registry()
        assert reg.counter_value("serve_requests_total", outcome=OUTCOME_OK) == len(ok_a) + len(ok_b)
        assert reg.counter_value("serve_requests_total", outcome=OUTCOME_DEADLINE) == 1
        assert reg.counter_value("serve_requests_total", outcome=OUTCOME_ERROR) == 1
        assert reg.histogram_for("serve_request_seconds").count == len(ok_a) + len(ok_b) + 2

    def test_write_past_the_bound_closes_the_connection_once(self):
        transport = RecordingTransport()
        conn = _Connection(transport)
        conn.write(b"x\n")
        transport.buffered = OUTBOX_LIMIT_BYTES  # at the bound: still open
        conn.write(b"y\n")
        assert not transport.aborted
        transport.buffered = OUTBOX_LIMIT_BYTES + 1
        conn.write(b"z\n")
        assert transport.aborted and conn.unsent == 0
        conn.write(b"w\n")  # a closed outbox drops writes
        assert transport.writes == [b"x\n", b"y\n", b"z\n"]
        assert get_registry().counter_value("serve_slow_reader_closed_total") == 1


class TestSlowReader:
    def test_non_reader_is_isolated_then_closed_by_the_drain_flush_window(self, synthetic_cache, service):
        """One client sends maximum-size requests and never reads its
        replies while a second keeps asking and reading.  The non-reader's
        replies (about 10 MB) are more than the two sockets' kernel buffers
        absorb and less than ``OUTBOX_LIMIT_BYTES``, so they sit in the
        outbox until drain.  Meanwhile:

        - each of the normal client's requests is answered within
          ``REPLY_WITHIN_S``, byte for byte the serial ``respond`` frame;
        - drain ends within ``DRAIN_WITHIN_S`` and closes the non-reader
          once, in ``serve_slow_reader_closed_total``;
        - ``serve_requests_total`` counts the normal client's frames plus
          the non-reader's requests, and nothing else.
        """

        n_slow = 12
        normal = [ServeRequest(id=f"n{i}", model=MODEL, samples=(i, 3 * i + 1, N_TEST - 1 - i)) for i in range(6)]
        registry = get_registry()
        gateway = make_gateway(service)

        async def run():
            await gateway.start()
            try:
                slow = await open_non_reader(gateway.bound_port)
                for i in range(n_slow):
                    slow.write(request_frame(max_size_request(f"s{i}")))
                await slow.drain()
                await settle(
                    lambda: registry.counter_total("serve_requests_total") == n_slow,
                    f"finished the non-reader's {n_slow} requests",
                )
                unsent = sum(conn.unsent for conn in gateway._connections)
                reader, writer = await asyncio.open_connection("127.0.0.1", gateway.bound_port)
                raws = []
                for request in normal:
                    writer.write(request_frame(request))
                    raws.append(await asyncio.wait_for(reader.readline(), timeout=REPLY_WITHIN_S))
                closed_before_drain = registry.counter_value("serve_slow_reader_closed_total")
            finally:
                started = time.monotonic()
                await asyncio.wait_for(gateway.drain(), timeout=DRAIN_WITHIN_S)
                drain_s = time.monotonic() - started
            writer.close()
            slow.close()
            return raws, unsent, closed_before_drain, drain_s

        raws, unsent, closed_before_drain, drain_s = asyncio.run(run())
        assert unsent > 0, "the non-reader's replies all fit in the kernel: the scenario tested nothing"
        assert closed_before_drain == 0, "the non-reader was closed below the outbox bound"
        assert drain_s >= DRAIN_FLUSH_S, "drain closed the non-reader before its flush window ran out"
        assert registry.counter_value("serve_slow_reader_closed_total") == 1

        serial = PolygraphService(ArtifactStore(synthetic_cache))
        for request, raw in zip(normal, raws):
            assert raw == response_frame(serial.respond(request)), request.id
        tally = {outcome: 0 for outcome in OUTCOMES}
        for raw in raws:
            tally[json.loads(raw)["outcome"]] += 1
        tally[OUTCOME_OK] += n_slow
        for outcome in OUTCOMES:
            assert registry.counter_value("serve_requests_total", outcome=outcome) == tally[outcome], outcome
        assert registry.histogram_for("serve_request_seconds").count == len(normal) + n_slow

    def test_outbox_past_the_bound_closes_the_non_reader_while_serving(self, synthetic_cache, service):
        """A non-reader whose replies outgrow ``OUTBOX_LIMIT_BYTES`` is
        closed at once, not at drain; the other client is served as usual
        and drain has nothing left to wait for."""

        n_slow = 40  # about 34 MB of replies, twice the bound
        request = ServeRequest(id="n0", model=MODEL, samples=(5, 6, 7))
        reg = get_registry()

        async def run():
            gateway = make_gateway(service)
            await gateway.start()
            try:
                slow = await open_non_reader(gateway.bound_port)
                for i in range(n_slow):
                    slow.write(request_frame(max_size_request(f"s{i}")))
                with contextlib.suppress(ConnectionError):
                    await slow.drain()
                await settle(lambda: reg.counter_value("serve_slow_reader_closed_total") == 1, "closed the non-reader")
                raw = await asyncio.wait_for(tcp_request(gateway.bound_port, request), timeout=REPLY_WITHIN_S)
            finally:
                started = time.monotonic()
                await asyncio.wait_for(gateway.drain(), timeout=DRAIN_WITHIN_S)
                drain_s = time.monotonic() - started
            slow.close()
            return raw, drain_s

        (_, raw), drain_s = asyncio.run(run())
        serial = PolygraphService(ArtifactStore(synthetic_cache))
        assert raw == response_frame(serial.respond(request))
        assert drain_s < DRAIN_FLUSH_S
        assert reg.counter_value("serve_slow_reader_closed_total") == 1


class TestErrorsOverTheWire:
    def test_unknown_model_is_an_error_response(self, service):
        async def run():
            gateway = make_gateway(service)
            await gateway.start()
            try:
                return await tcp_request(gateway.bound_port, ServeRequest(id="e1", model="nope", samples=(0,)))
            finally:
                await gateway.drain()

        payload, _ = asyncio.run(run())
        assert payload["outcome"] == OUTCOME_ERROR
        assert payload["error"]["reason"] == "unknown-model"

    def test_out_of_range_sample_names_the_exact_field(self, service):
        async def run():
            gateway = make_gateway(service)
            await gateway.start()
            try:
                return await tcp_request(gateway.bound_port, ServeRequest(id="e2", model=MODEL, samples=(0, 10**6)))
            finally:
                await gateway.drain()

        payload, _ = asyncio.run(run())
        assert payload["outcome"] == OUTCOME_ERROR
        assert payload["error"]["field"] == "request.samples[1]"
        assert payload["error"]["reason"] == "out-of-range"

    def test_malformed_frame_keeps_the_id_and_field_path(self, service):
        async def run():
            gateway = make_gateway(service)
            await gateway.start()
            try:
                return await tcp_send_raw(gateway.bound_port, b'{"id": "e3", "model": "tinynet", "bogus": 1}\n')
            finally:
                await gateway.drain()

        payload = asyncio.run(run())
        assert payload["id"] == "e3"
        assert payload["outcome"] == OUTCOME_ERROR
        assert payload["error"]["field"] == "request.bogus"
        assert payload["error"]["reason"] == "unknown-field"
        assert get_registry().counter_value("serve_requests_total", outcome=OUTCOME_ERROR) == 1


class TestTransportsAndOps:
    def test_unix_socket_round_trip(self, service, tmp_path):
        socket_path = str(tmp_path / "serve.sock")

        async def run():
            gateway = ServeGateway(service, ServeConfig(host=None, unix_path=socket_path))
            await gateway.start()
            try:
                reader, writer = await asyncio.open_unix_connection(socket_path)
                writer.write(request_frame(ServeRequest(id="u1", model=MODEL, samples=(0,))))
                await writer.drain()
                raw = await reader.readline()
                writer.close()
                return json.loads(raw)
            finally:
                await gateway.drain()

        payload = asyncio.run(run())
        assert payload["outcome"] == OUTCOME_OK

    def test_ping_and_metrics_ops_bypass_the_queue(self, service):
        async def run():
            gateway = make_gateway(service)
            await gateway.start()
            try:
                pong = await tcp_send_raw(gateway.bound_port, b'{"op": "ping", "id": "p"}\n')
                await tcp_request(gateway.bound_port, ServeRequest(id="m0", model=MODEL, samples=(0,)))
                snapshot = await tcp_send_raw(gateway.bound_port, b'{"op": "metrics"}\n')
                return pong, snapshot
            finally:
                await gateway.drain()

        pong, snapshot = asyncio.run(run())
        assert pong == {"id": "p", "ok": True, "op": "ping"}
        assert snapshot["requests"][OUTCOME_OK] == 1
        assert snapshot["shed"] == 0
        assert snapshot["reply_rows"] == {"memo": 0, "evaluated": 1}
        # admin ops never count as classifications
        assert sum(snapshot["requests"].values()) == 1


class TestDispatcher:
    def test_batches_run_one_at_a_time(self, service, monkeypatch):
        """The dispatcher awaits each batch's ``_execute`` before it takes
        the next: with four single-request batches padded by 0.1 s, no two
        are ever in flight together."""

        running = peak = calls = 0
        execute = ServeGateway._execute

        async def counting_execute(self, batch):
            nonlocal running, peak, calls
            calls += 1
            running += 1
            peak = max(peak, running)
            try:
                await execute(self, batch)
            finally:
                running -= 1

        monkeypatch.setattr(ServeGateway, "_execute", counting_execute)
        requests = [ServeRequest(id=f"o{i}", model=MODEL, samples=(i,)) for i in range(4)]

        async def run():
            gateway = make_gateway(service, batch_max=1, coalesce_ms=0.0, batch_sleep_s=0.1)
            await gateway.start()
            try:
                return await asyncio.gather(*[tcp_request(gateway.bound_port, r) for r in requests])
            finally:
                await gateway.drain()

        results = asyncio.run(run())
        assert [payload["outcome"] for payload, _ in results] == [OUTCOME_OK] * len(requests)
        assert calls == len(requests)
        assert peak == 1


class TestConfigBounds:
    """Below 1, ``asyncio.Queue(maxsize=...)`` is unbounded, so a queue
    bound of 0 would silently switch shedding off."""

    @pytest.mark.parametrize(("name", "value"), [("max_queue", 0), ("max_queue", -1), ("batch_max", 0)])
    def test_config_refuses_bounds_below_one(self, name, value):
        with pytest.raises(ConfigError) as excinfo:
            ServeConfig(**{name: value})
        assert excinfo.value.field == f"serve.{name}"
        assert excinfo.value.reason == "out-of-range"

    @pytest.mark.parametrize(("flag", "field"), [("--max-queue", "serve.max_queue"), ("--batch-max", "serve.batch_max")])
    def test_cli_exits_2_naming_the_field(self, tmp_path, capsys, flag, field):
        with pytest.raises(SystemExit) as excinfo:
            main(["--cache", str(tmp_path), flag, "0"])
        assert excinfo.value.code == 2
        assert field in capsys.readouterr().err

    def test_serve_workers_accepts_only_zero_and_is_hidden(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--cache", str(tmp_path), "--serve-workers", "2"])
        assert excinfo.value.code == 2
        assert "--serve-workers" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        usage = capsys.readouterr().out
        assert "--serve-workers" not in usage and "--no-plane" not in usage


class TestCLI:
    def test_main_serves_until_sigterm_then_drains(self, tmp_path, capsys):
        """``main()`` end to end, in process: build a synthetic model, serve
        over a unix socket, answer a request, drain on SIGTERM, export
        metrics, print the ready line and drain summary, exit 0."""

        sock_path = str(tmp_path / "gw.sock")
        metrics_path = tmp_path / "metrics.json"
        prom_path = tmp_path / "metrics.prom"
        results: dict[str, object] = {}

        def client() -> None:
            try:
                deadline = time.monotonic() + 60.0
                while not os.path.exists(sock_path):
                    assert time.monotonic() < deadline, "gateway never bound its socket"
                    time.sleep(0.01)
                with socket.socket(socket.AF_UNIX) as sock:
                    while sock.connect_ex(sock_path) != 0:
                        assert time.monotonic() < deadline, "gateway never listened"
                        time.sleep(0.01)
                    sock.sendall(request_frame(ServeRequest(id="c1", model="net-00", samples=(0, 3))))
                    buf = b""
                    while not buf.endswith(b"\n"):
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        buf += chunk
                    results["payload"] = json.loads(buf)
            except BaseException as exc:  # surfaced after main() returns
                results["error"] = exc
            finally:
                # main() installed an asyncio SIGTERM handler: this triggers
                # the drain instead of killing the test process
                os.kill(os.getpid(), signal.SIGTERM)

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        rc = main(
            [
                "--cache",
                str(tmp_path / "cache"),
                "--synthetic-models",
                "1",
                "--seed",
                "7",
                "--unix",
                sock_path,
                "--metrics-out",
                str(metrics_path),
                "--prom-out",
                str(prom_path),
                # older command lines (the benchmark's among them) still pass these
                "--serve-workers",
                "0",
                "--no-plane",
            ]
        )
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert "error" not in results, results["error"]
        assert rc == 0

        payload = results["payload"]
        assert payload["id"] == "c1"
        assert payload["outcome"] == OUTCOME_OK
        assert payload["degraded"] is False

        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line.strip()]
        ready, summary = lines[0], lines[-1]
        assert sorted(ready) == ["models", "port", "ready", "unix"]
        assert ready["ready"] is True
        assert ready["models"] == ["net-00"]
        assert ready["unix"] == sock_path
        assert summary["drained"] is True and "pool" not in summary
        assert summary["served"][OUTCOME_OK] == 1
        assert metrics_path.is_file()
        prom = prom_path.read_text(encoding="utf-8")
        assert "serve_requests_total" in prom
        # the one reply's two rows were both evaluated: none came from the memo
        assert 'serve_reply_rows_total{source="evaluated"} 2' in prom
        assert 'serve_reply_rows_total{source="memo"} 0' in prom
        rows = {
            row["labels"]["source"]: row["value"]
            for row in json.loads(metrics_path.read_text(encoding="utf-8"))["counters"]
            if row["name"] == "serve_reply_rows_total"
        }
        assert rows == {"evaluated": 2, "memo": 0}


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
