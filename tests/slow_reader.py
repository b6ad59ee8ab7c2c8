"""The slow-reader scenario, shared by the in-process and pooled gateway
suites: one client sends maximum-size requests and never reads its replies,
while a second client keeps asking and reading.

The non-reader's replies (about 10 MB) are more than the two sockets'
kernel buffers absorb and less than ``OUTBOX_LIMIT_BYTES``, so they sit in
the gateway's outbox until drain, whose flush window then closes the
connection as a slow reader.  :func:`open_non_reader` shrinks the client's
receive buffer so the kernel's share stays small and the outcome does not
depend on socket autotuning.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

from polygraphmr.metrics import get_registry
from polygraphmr.serve import (
    DRAIN_FLUSH_S,
    MAX_SAMPLES_PER_REQUEST,
    OUTCOME_OK,
    OUTCOMES,
    PolygraphService,
    ServeGateway,
    ServeRequest,
    request_frame,
    response_frame,
)
from polygraphmr.store import ArtifactStore

MODEL = "tinynet"
N_TEST = 160  # test rows of the ``synthetic_cache`` fixture's model
N_SLOW = 12
REPLY_WITHIN_S = 1.0
DRAIN_WITHIN_S = DRAIN_FLUSH_S + 5.0
SETTLE_WITHIN_S = 10.0


def max_size_request(rid: str) -> ServeRequest:
    return ServeRequest(id=rid, model=MODEL, samples=tuple(i % N_TEST for i in range(MAX_SAMPLES_PER_REQUEST)))


async def open_non_reader(port: int) -> asyncio.StreamWriter:
    """A connection whose client never reads, with a small receive buffer."""

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


def assert_slow_reader_isolated(gateway: ServeGateway, cache) -> None:
    """Run the scenario on a fresh, unstarted ``gateway`` serving ``MODEL``
    and check the outbox contract:

    - with the non-reader's replies still unsent, each of the normal
      client's requests is answered within ``REPLY_WITHIN_S``, byte for
      byte the serial ``respond`` frame;
    - drain ends within ``DRAIN_WITHIN_S`` and closes the non-reader once,
      in ``serve_slow_reader_closed_total``;
    - ``serve_requests_total`` counts the normal client's frames plus the
      non-reader's requests, and nothing else.
    """

    normal = [ServeRequest(id=f"n{i}", model=MODEL, samples=(i, 3 * i + 1, N_TEST - 1 - i)) for i in range(6)]
    registry = get_registry()

    async def run():
        await gateway.start()
        try:
            slow = await open_non_reader(gateway.bound_port)
            for i in range(N_SLOW):
                slow.write(request_frame(max_size_request(f"s{i}")))
            await slow.drain()
            await settle(
                lambda: registry.counter_total("serve_requests_total") == N_SLOW,
                f"finished the non-reader's {N_SLOW} requests",
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

    serial = PolygraphService(ArtifactStore(cache))
    for request, raw in zip(normal, raws):
        assert raw == response_frame(serial.respond(request)), request.id
    tally = {outcome: 0 for outcome in OUTCOMES}
    for raw in raws:
        tally[json.loads(raw)["outcome"]] += 1
    tally[OUTCOME_OK] += N_SLOW
    for outcome in OUTCOMES:
        assert registry.counter_value("serve_requests_total", outcome=outcome) == tally[outcome], outcome
    assert registry.histogram_for("serve_request_seconds").count == len(normal) + N_SLOW
