#!/usr/bin/env python3
"""End-to-end smoke test for the serving gateway: concurrent load, a
client that never reads, mid-load SIGTERM drain, and shared-memory hygiene.

Four phases against one gateway subprocess over a synthetic cache::

    PYTHONPATH=src python scripts/smoke_serve.py

1. **Serve** — spawn ``python -m polygraphmr.serve`` (TCP, auto port),
   wait for the ready line, fire concurrent classification requests plus a
   ping and a metrics op; every request must be answered ``ok`` with the
   full member set.
2. **Slow reader** — one connection sends maximum-size requests and never
   reads; once the gateway has finished them (about 10 MB of replies left
   unsent), another client's request must still be answered within
   ``REPLY_WITHIN_S``.
3. **SIGTERM mid-load** — start a paced stream of requests, SIGTERM the
   gateway while they are in flight and the slow reader's replies are still
   unsent, and require: every request accepted before the drain gets a
   terminal response, the process exits 0 within the deadline, the drain
   closes the slow reader (``slow_reader_closed == 1``), the drain
   summary's per-outcome counts reconcile exactly with the responses
   received plus the slow reader's requests, and the metrics JSON +
   Prometheus dumps are written and parseable.
4. **Hygiene** — serving uses no shared memory: the running gateway maps
   nothing under ``/dev/shm`` (read from ``/proc/<pid>/maps``, where even
   an unlinked segment shows), no new entry appears under ``/dev/shm``, and
   after exit a fresh connection attempt must be refused.

Exits 0 on success; any deviation is a hard failure.  Run by CI on every
push.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from polygraphmr.serve import MAX_SAMPLES_PER_REQUEST, OUTCOMES, ServeRequest, request_frame  # noqa: E402

N_MODELS = 2
MODEL = "net-00"
N_TEST = 96  # test rows of each synthetic model the gateway builds
N_CONCURRENT = 24
N_MIDLOAD = 40
# max-size requests from the connection that never reads: about 10 MB of
# replies, more than the sockets absorb and less than the outbox bound
N_SLOW = 12
REPLY_WITHIN_S = 1.0
DEADLINE_S = 300.0
ENV = {"PYTHONPATH": str(REPO_ROOT / "src")}


def shm_segments() -> list[str]:
    """Every entry under ``/dev/shm``, whoever made it."""

    try:
        return sorted(f"/dev/shm/{name}" for name in os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - no /dev/shm
        return []


def mapped_segments(pid: int) -> list[str]:
    """The ``/dev/shm`` paths process ``pid`` maps, unlinked ones included;
    empty where ``/proc`` has no maps file."""

    try:
        with open(f"/proc/{pid}/maps", encoding="utf-8") as fh:
            return sorted({line.split(maxsplit=5)[-1].strip() for line in fh if " /dev/shm/" in line})
    except FileNotFoundError:  # pragma: no cover - no procfs
        return []


def start_gateway(tmp: Path) -> tuple[subprocess.Popen, int]:
    cmd = [
        sys.executable,
        "-m",
        "polygraphmr.serve",
        "--cache",
        str(tmp / "cache"),
        "--synthetic-models",
        str(N_MODELS),
        "--seed",
        "7",
        "--port",
        "0",
        "--batch-sleep",
        "0.01",
        "--batch-max",
        "8",
        "--metrics-out",
        str(tmp / "metrics.json"),
        "--prom-out",
        str(tmp / "metrics.prom"),
    ]
    proc = subprocess.Popen(cmd, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    start = time.monotonic()
    ready_line = proc.stdout.readline()
    if not ready_line or time.monotonic() - start > DEADLINE_S:
        proc.kill()
        raise SystemExit(f"FAIL: gateway never became ready: {proc.stderr.read()}")
    ready = json.loads(ready_line)
    if ready.get("ready") is not True or sorted(ready.get("models", [])) != [f"net-{i:02d}" for i in range(N_MODELS)]:
        raise SystemExit(f"FAIL: bad ready line: {ready_line!r}")
    print(f"OK: gateway ready on port {ready['port']} serving {ready['models']}")
    return proc, int(ready["port"])


async def one_request(port: int, request: ServeRequest) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request_frame(request))
    await writer.drain()
    raw = await reader.readline()
    writer.close()
    if not raw:
        raise SystemExit(f"FAIL: no response for request {request.id!r}")
    return json.loads(raw)


def phase_concurrent_requests(port: int) -> dict[str, int]:
    async def run():
        payloads = await asyncio.gather(
            *[one_request(port, ServeRequest(id=f"r{i}", model=MODEL, samples=(i % 96,))) for i in range(N_CONCURRENT)]
        )
        pong = await one_request(port, ServeRequest(id="hb", op="ping"))
        snapshot = await one_request(port, ServeRequest(op="metrics"))
        return payloads, pong, snapshot

    payloads, pong, snapshot = asyncio.run(run())
    outcomes: dict[str, int] = {}
    for payload in payloads:
        outcomes[payload["outcome"]] = outcomes.get(payload["outcome"], 0) + 1
        if payload["outcome"] != "ok":
            raise SystemExit(f"FAIL: request {payload['id']} answered {payload['outcome']}, expected ok")
        if payload["degraded"] or payload["shed"]:
            raise SystemExit(f"FAIL: unloaded gateway served degraded: {payload['id']}")
    if pong != {"id": "hb", "ok": True, "op": "ping"}:
        raise SystemExit(f"FAIL: bad pong {pong!r}")
    if snapshot["requests"]["ok"] != N_CONCURRENT or sum(snapshot["requests"].values()) != N_CONCURRENT:
        raise SystemExit(f"FAIL: metrics op disagrees with responses: {snapshot!r}")
    print(f"OK: {N_CONCURRENT} concurrent requests all ok; ping + metrics ops answered inline")
    return outcomes


def phase_slow_reader(port: int) -> tuple[socket.socket, dict[str, int]]:
    """Open a connection that sends ``N_SLOW`` maximum-size requests and
    never reads, wait until the gateway has finished them, then require a
    normal request to be answered within ``REPLY_WITHIN_S``.  Returns the
    open slow socket (it must stay open through the drain) and the normal
    client's outcomes."""

    slow = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    slow.connect(("127.0.0.1", port))
    samples = tuple(i % N_TEST for i in range(MAX_SAMPLES_PER_REQUEST))
    for i in range(N_SLOW):
        slow.sendall(request_frame(ServeRequest(id=f"s{i}", model=MODEL, samples=samples)))

    async def run():
        deadline = time.monotonic() + DEADLINE_S
        while True:
            snapshot = await one_request(port, ServeRequest(op="metrics"))
            if snapshot["requests"]["ok"] >= N_CONCURRENT + N_SLOW:
                break
            if time.monotonic() > deadline:
                raise SystemExit(f"FAIL: gateway never finished the slow reader's requests: {snapshot!r}")
            await asyncio.sleep(0.05)
        started = time.monotonic()
        try:
            payload = await asyncio.wait_for(
                one_request(port, ServeRequest(id="beside-slow", model=MODEL, samples=(1, 2, 3))),
                timeout=REPLY_WITHIN_S,
            )
        except asyncio.TimeoutError:
            raise SystemExit(
                f"FAIL: a client beside the slow reader got no reply within {REPLY_WITHIN_S} s"
            ) from None
        return snapshot, payload, time.monotonic() - started

    snapshot, payload, waited = asyncio.run(run())
    if snapshot["slow_reader_closed"] != 0:
        raise SystemExit(f"FAIL: slow reader closed below the outbox bound: {snapshot!r}")
    if payload["outcome"] != "ok":
        raise SystemExit(f"FAIL: request beside the slow reader answered {payload['outcome']}")
    print(
        f"OK: slow reader holds {N_SLOW} unread max-size replies; "
        f"the client beside it was answered in {waited * 1000:.0f} ms"
    )
    return slow, {"ok": 1}


def phase_sigterm_mid_load(proc: subprocess.Popen, port: int) -> tuple[dict[str, int], str]:
    """SIGTERM while a paced stream is in flight; every accepted request
    must still get a terminal reply before the process exits 0."""

    async def run():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        payloads: list[dict] = []

        async def collect() -> None:
            # reads until the server closes the connection at the end of drain
            with contextlib.suppress(ConnectionError):
                while True:
                    raw = await reader.readline()
                    if not raw:
                        break
                    payloads.append(json.loads(raw))

        collector = asyncio.create_task(collect())
        # offered faster than the pinned service rate, so a backlog of
        # in-flight requests exists when the SIGTERM lands
        for i in range(N_MIDLOAD):
            writer.write(request_frame(ServeRequest(id=f"k{i}", model=MODEL, samples=(i % 96,))))
            await writer.drain()
            await asyncio.sleep(0.001)
        proc.send_signal(signal.SIGTERM)  # mid-load: the queue is not empty
        await collector
        writer.close()
        return payloads

    payloads = asyncio.run(run())
    try:
        stdout, stderr = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise SystemExit("FAIL: gateway did not exit after SIGTERM")
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: gateway exited {proc.returncode} after SIGTERM: {stderr}")
    answered = {payload["id"] for payload in payloads}
    expected = {f"k{i}" for i in range(N_MIDLOAD)}
    if answered != expected:
        raise SystemExit(
            f"FAIL: drain lost in-flight requests: {sorted(expected - answered)} unanswered, "
            f"{sorted(answered - expected)} unexpected"
        )
    if len(payloads) != N_MIDLOAD:
        raise SystemExit("FAIL: duplicate responses during drain")
    outcomes: dict[str, int] = {}
    for payload in payloads:
        outcomes[payload["outcome"]] = outcomes.get(payload["outcome"], 0) + 1
    bad = set(outcomes) - {"ok", "degraded"}
    if bad:
        raise SystemExit(f"FAIL: unexpected outcomes during drain: {outcomes}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    summary = json.loads(lines[-1])
    if summary.get("drained") is not True:
        raise SystemExit(f"FAIL: no drain summary: {stdout!r}")
    if summary.get("slow_reader_closed") != 1:
        raise SystemExit(f"FAIL: drain did not close the slow reader exactly once: {summary!r}")
    print(
        f"OK: SIGTERM mid-load; all {N_MIDLOAD} in-flight requests answered during drain, "
        "exit 0, drain summary present"
    )
    return outcomes, summary


def check_reconciliation(summary: dict, outcomes: dict[str, int], tmp: Path) -> None:
    for outcome in OUTCOMES:
        if summary["served"].get(outcome, 0) != outcomes.get(outcome, 0):
            raise SystemExit(
                f"FAIL: drain summary says {summary['served']}, responses tallied {outcomes}"
            )
    metrics = json.loads((tmp / "metrics.json").read_text(encoding="utf-8"))
    served = {
        row["labels"]["outcome"]: row["value"]
        for row in metrics["counters"]
        if row["name"] == "serve_requests_total"
    }
    if served != {k: v for k, v in outcomes.items() if v}:
        raise SystemExit(f"FAIL: metrics.json says {served}, responses tallied {outcomes}")
    closed = sum(row["value"] for row in metrics["counters"] if row["name"] == "serve_slow_reader_closed_total")
    if closed != 1:
        raise SystemExit(f"FAIL: metrics.json counts {closed} slow-reader closes, expected 1")
    prom = (tmp / "metrics.prom").read_text(encoding="utf-8")
    if "serve_requests_total" not in prom or "serve_request_seconds" not in prom:
        raise SystemExit("FAIL: Prometheus dump is missing the serve metrics")
    print("OK: drain summary, metrics.json, and responses (plus the slow reader's requests) reconcile exactly")


def check_hygiene(port: int, before: list[str], mapped: list[str]) -> None:
    if mapped:
        raise SystemExit(f"FAIL: the serving gateway mapped shared-memory segments: {mapped}")
    published = sorted(set(shm_segments()) - set(before))
    if published:
        raise SystemExit(f"FAIL: shared-memory segments appeared under /dev/shm: {published}")
    with socket.socket() as sock:
        sock.settimeout(1.0)
        if sock.connect_ex(("127.0.0.1", port)) == 0:
            raise SystemExit(f"FAIL: port {port} still accepting connections after exit")
    print("OK: no shared-memory segment mapped or published, listener gone")


def main() -> int:
    shm_before = shm_segments()
    tmp = Path(tempfile.mkdtemp(prefix="polygraphmr-smoke-serve-"))
    proc, port = start_gateway(tmp)
    slow = None
    try:
        outcomes = phase_concurrent_requests(port)
        mapped = mapped_segments(proc.pid)  # sessions are built: anything the gateway maps is mapped by now
        slow, beside_outcomes = phase_slow_reader(port)
        drain_outcomes, summary = phase_sigterm_mid_load(proc, port)
    finally:
        if proc.poll() is None:
            proc.kill()
        if slow is not None:
            slow.close()
    # the slow reader's requests were served and counted, never read
    outcomes["ok"] = outcomes.get("ok", 0) + N_SLOW
    for tally in (beside_outcomes, drain_outcomes):
        for outcome, n in tally.items():
            outcomes[outcome] = outcomes.get(outcome, 0) + n
    check_reconciliation(summary, outcomes, tmp)
    check_hygiene(port, shm_before, mapped)
    print("OK: serve smoke complete (slow reader included)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
