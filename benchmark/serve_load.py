"""The ``serve-cifar`` workload: a closed-loop client against ``polygraphmr-serve``.

One TCP connection keeps :data:`OUTSTANDING` requests in flight; each reply
is answered at once by the next request.  The gateway evaluates in-process
(``--serve-workers 0``), with ``--degrade-depth 0`` and a queue bound above
:data:`OUTSTANDING`, so nothing is shed or degraded and every run does the
same work.  Every reply must equal, byte for byte, the frame the serial
``PolygraphService.respond`` gives for that request on the same cache.

On a host with two or more CPUs the client busy-polls its socket on its own
CPU instead of sleeping in ``recv``, so its virtual CPU never idles and need
not be woken for each reply: in a slow phase of a 2-core virtual machine a
sleeping client saw 58-141 gaps of over 8 ms between replies per 10 s, a
polling one 9-61.

Client rule: read every outstanding reply before closing the connection and
sending SIGTERM.  A client that stops reading while large replies are
outstanding can leave the gateway stuck in drain, because
``_Connection.send`` awaits ``writer.drain()`` and the in-process
dispatcher awaits each send.
"""

from __future__ import annotations

import collections
import gc
import json
import socket
import subprocess
import time
from pathlib import Path

import numpy as np

from campaigns import build_cifar
from programs import (
    ROOT,
    BenchFailure,
    counter_total,
    cpu_split,
    host_argv,
    launch,
    proc_cpu_seconds,
    proc_vmhwm_kb,
    stop,
)
from stats import PERCENTILE_LADDER, median, percentile, ref_kernel_ms, top_percentile

OUTSTANDING = 32  # 2 x the gateway's default --batch-max
BATCH_MAX = 16
SAMPLES_PER_REQUEST = 8
POOL = 4096  # distinct requests, cycled; each has its reference frame
WARMUP_S = 2.0
# The timed window is cut into slices this long; the gated figures are the
# level held in all but the fastest quarter of them (:func:`sustained`).
SLICE_S = 0.25
SUSTAINED = 25.0  # percentile of the slices' reply rates
SETUP_LAUNCHES = 5  # gateway launches per untraced run; the last one is timed
SOCKET_TIMEOUT_S = 30.0
MODEL = "cifar"


def gateway_argv(cache: Path, seed: int, metrics_out: Path) -> list[str]:
    return [
        "--cache", str(cache.relative_to(ROOT)),
        "--port", "0",
        "--seed", str(seed),
        "--serve-workers", "0",
        "--degrade-depth", "0",
        "--max-queue", str(8 * OUTSTANDING),
        "--batch-max", str(BATCH_MAX),
        # the shared-memory plane only feeds forked pool workers
        "--no-plane",
        "--metrics-out", str(metrics_out.relative_to(ROOT)),
    ]  # fmt: skip


class Reference:
    """Request frames and their expected reply frames, built before timing."""

    def __init__(self, cache: Path, seed: int):
        from polygraphmr.serve import PolygraphService, ServeRequest, request_frame, response_frame
        from polygraphmr.store import ArtifactStore

        service = PolygraphService(ArtifactStore(cache), seed=seed)
        n = service.base_session(MODEL).n_samples
        rng = np.random.default_rng(seed)
        self.requests: list[bytes] = []
        self.replies: list[bytes] = []
        for k in range(POOL + 1):  # the extra one is each launch's setup request
            request = ServeRequest(
                id=f"q{k:05d}", model=MODEL, samples=tuple(int(i) for i in rng.integers(0, n, SAMPLES_PER_REQUEST))
            )
            payload = service.respond(request)
            if payload["outcome"] != "ok":
                raise BenchFailure(f"serial reference for request {k} is not ok: {payload!r}")
            self.requests.append(request_frame(request))
            self.replies.append(response_frame(payload))


class Client:
    """The client end of one connection: sends request frames, reads reply
    frames and checks each against its reference, byte for byte.  With
    ``spin`` it busy-polls the (blocking, timeout-free) socket."""

    def __init__(self, sock: socket.socket, ref: Reference, *, spin: bool = False):
        self.sock = sock
        self.ref = ref
        self.spin = spin
        self.spin_s = 0.0  # time spent polling an empty socket
        self.pending: collections.deque = collections.deque()  # (request index, send time)
        self.buffer = b""
        self.next = 0
        self.answered = 0
        self.failed = 0
        self.first_failure = ""

    def send_indices(self, indices: list[int]) -> None:
        now = time.perf_counter()
        self.pending.extend((k, now) for k in indices)
        self.sock.sendall(b"".join(self.ref.requests[k] for k in indices))

    def send(self, count: int) -> None:
        """The next ``count`` requests of the pool, cycling."""

        indices = [(self.next + i) % POOL for i in range(count)]
        self.next += count
        self.send_indices(indices)

    def read(self) -> tuple[float, int, list[float]]:
        """Block for the next chunk and check every whole reply in it.
        Returns the receive time, the number of replies, and the latency in
        seconds of each correct one."""

        chunk = self._recv()
        now = time.perf_counter()
        if not chunk:
            raise BenchFailure("gateway closed the connection")
        *frames, self.buffer = (self.buffer + chunk).split(b"\n")
        latencies = []
        for frame in frames:
            # one connection, one model, one dispatcher: replies come back
            # in request order
            k, sent = self.pending.popleft()
            if frame + b"\n" == self.ref.replies[k]:
                latencies.append(now - sent)
            else:
                self.failed += 1
                self.first_failure = self.first_failure or f"reply to request {k}: {frame[:160]!r}"
        self.answered += len(frames)
        return now, len(frames), latencies

    def _recv(self) -> bytes:
        if not self.spin:
            return self.sock.recv(1 << 18)
        start = time.perf_counter()
        while True:
            try:
                chunk = self.sock.recv(1 << 18, socket.MSG_DONTWAIT)
            except BlockingIOError:
                if time.perf_counter() - start > SOCKET_TIMEOUT_S:
                    raise BenchFailure(f"no reply from the gateway in {SOCKET_TIMEOUT_S:.0f} s") from None
                continue
            self.spin_s += time.perf_counter() - start
            return chunk

    def read_outstanding(self) -> None:
        while self.pending:
            self.read()


class Gateway:
    """One gateway process and its client connection."""

    def __init__(self, ref: Reference, argv: list[str], report: Path, *, trace: bool = False):
        start = time.perf_counter()
        self.proc = launch(host_argv("serve", report, argv, trace=trace), stdout=subprocess.PIPE, text=True)
        self.client: Client | None = None
        try:
            ready = json.loads(self.proc.stdout.readline() or "{}")
            if not ready.get("ready"):
                raise BenchFailure(f"gateway did not start: {ready!r}")
            sock = socket.create_connection(("127.0.0.1", ready["port"]), timeout=SOCKET_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            spin = cpu_split() is not None
            if spin:
                sock.settimeout(None)  # or recv waits in poll() first
            self.client = Client(sock, ref, spin=spin)
            # launch through the first reply: lazy session build and gate fit
            self.client.send_indices([POOL])
            self.client.read_outstanding()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def finish(self) -> None:
        """Read every outstanding reply, close, SIGTERM, and check that the
        drain summary counts exactly the replies received, all ok."""

        client = self.client
        client.read_outstanding()
        client.sock.close()
        stop(self.proc)
        lines = [line for line in self.proc.stdout.read().splitlines() if line.strip()]
        summary = json.loads(lines[-1]) if lines else {}
        served = summary.get("served", {})
        if self.proc.returncode != 0 or served.get("ok") != client.answered or sum(served.values()) != client.answered:
            raise BenchFailure(
                f"gateway exit {self.proc.returncode}, drain summary {summary!r}, client got {client.answered}"
            )

    def close(self) -> None:
        if self.client is not None:
            self.client.sock.close()
        stop(self.proc)
        self.proc.stdout.close()


def closed_loop(gw: Gateway, seconds: float) -> dict:
    """Warm up, then measure ``seconds`` of closed-loop traffic.

    The client's cyclic garbage collector is off meanwhile: its pauses would
    delay reading replies and show up as gateway latency."""

    gc.disable()
    try:
        return _closed_loop(gw.client, gw.proc.pid, seconds)
    finally:
        gc.enable()


def _closed_loop(client: Client, pid: int, seconds: float) -> dict:
    client.send(OUTSTANDING)
    warm_end = time.perf_counter() + WARMUP_S
    while True:
        now, count, _ = client.read()
        client.send(count)
        if now >= warm_end:
            break

    failed0 = client.failed
    n = max(1, round(seconds / SLICE_S))
    replies = [0] * n  # verified replies received in each slice
    latencies: list[list[float]] = [[] for _ in range(n)]
    cpu_marks = [proc_cpu_seconds(pid)]  # gateway CPU seconds at each slice boundary
    client_cpu0 = time.process_time() - client.spin_s
    start = time.perf_counter()
    attempted = good = 0
    while True:
        now, count, ok = client.read()
        attempted += count
        good += len(ok)
        slot = int((now - start) / SLICE_S)
        while len(cpu_marks) <= min(slot, n):
            cpu_marks.append(proc_cpu_seconds(pid))
        if slot >= n:
            break  # past the window: checked and counted, but in no slice
        replies[slot] += len(ok)
        latencies[slot].extend(s * 1000.0 for s in ok)
        client.send(count)
    return {
        "attempted": attempted,
        "failed": client.failed - failed0,
        "replies": good,
        "wall_s": now - start,
        "slice_replies": replies,
        "slice_latencies_ms": latencies,
        "slice_cpu_s": [b - a for a, b in zip(cpu_marks, cpu_marks[1:])],
        "gateway_cpu_s": cpu_marks[-1] - cpu_marks[0],
        "client_cpu_s": time.process_time() - client.spin_s - client_cpu0,
        "vmhwm_kb": proc_vmhwm_kb(pid),
    }


def sustained(window: dict) -> dict:
    """The window's goodput, latency and CPU cost at the level the gateway
    holds in three quarters of its slices: the 25th percentile of the
    slices' reply rates, and the 75th percentile over slices of each
    slice's p50 and p90 latency and gateway CPU per reply.  The host's
    bursts of extra speed (see the README) fall in the other quarter; a
    stall of the program lowers the slices it hits, so it is not hidden."""

    served = [i for i, count in enumerate(window["slice_replies"]) if count]
    if not served:
        raise BenchFailure("no verified reply in the timed window")
    upper = 100.0 - SUSTAINED

    def over_slices(value) -> float:
        return percentile([value(i) for i in served], upper)

    lat = window["slice_latencies_ms"]
    return {
        "goodput_per_s": percentile([count / SLICE_S for count in window["slice_replies"]], SUSTAINED),
        "latency_p50_ms": over_slices(lambda i: median(lat[i])),
        "latency_p90_ms": over_slices(lambda i: percentile(lat[i], 90.0)),
        "cpu_ms_per_op": over_slices(lambda i: window["slice_cpu_s"][i] * 1000.0 / window["slice_replies"][i]),
    }


def histogram(metrics: dict, name: str) -> dict:
    return next(h for h in metrics.get("histograms", ()) if h["name"] == name)


def run(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    cache = work / "cache"
    build_cifar(cache, seed)
    ref = Reference(cache, seed)
    probes = [ref_kernel_ms()]
    launches = ["plain"] * (SETUP_LAUNCHES - 1) if not trace else []
    launches += ["timed", "traced"] if trace else ["timed"]
    setups: list[float] = []
    windows: dict[str, dict] = {}
    attempted = failed = 0
    failure = ""
    for i, kind in enumerate(launches):
        metrics_out = work / f"gateway-{i}.metrics.json"
        report = work / f"gateway-{i}.report.json"
        gw = Gateway(ref, gateway_argv(cache, seed, metrics_out), report, trace=kind == "traced")
        try:
            setups.append(gw.setup_s)
            if kind != "plain":
                window = closed_loop(gw, seconds / 2 if trace else seconds)
            gw.finish()
        finally:
            gw.close()
        attempted += gw.client.answered
        failed += gw.client.failed
        failure = failure or gw.client.first_failure
        if kind != "plain":
            window["answered"] = gw.client.answered
            window["metrics"] = json.loads(metrics_out.read_text(encoding="utf-8"))
            window["report"] = json.loads(report.read_text(encoding="utf-8"))
            windows[kind] = window
    probes.append(ref_kernel_ms())

    timed = windows["timed"]
    latencies = [ms for part in timed["slice_latencies_ms"] for ms in part]
    rates = [count / SLICE_S for count in timed["slice_replies"]]
    result = {
        "e2e": {
            **sustained(timed),
            "ok_share": timed["replies"] / timed["attempted"],
            "peak_rss_mb": timed["vmhwm_kb"] / 1024.0,
            "setup_s": median(setups),
        },
        "details": {
            "operation": f"reply to one request of {SAMPLES_PER_REQUEST} samples, {OUTSTANDING} in flight",
            "replies": timed["replies"],
            "window_s": timed["wall_s"],
            "slices": len(rates),
            "slice_s": SLICE_S,
            # ungated: the whole window, fast slices included
            "replies_per_second": {f"p{p:g}": percentile(rates, p) for p in (10, 25, 50, 75, 90)},
            "latency_samples": len(latencies),
            "latency_ms": {
                f"p{p:g}": percentile(latencies, p) for p in PERCENTILE_LADDER if p <= top_percentile(len(latencies))
            },
            "setup_samples_s": setups,
            "host.ref_kernel_ms": probes,
        },
        "layers": {},
        "attempted": attempted,
        "failed": failed,
        "failure": failure,
    }
    if trace:
        result["layers"] = trace_layers(windows, probes)
    return result


def trace_layers(windows: dict, probes) -> dict:
    plain, traced = windows["timed"], windows["traced"]
    spans = traced["report"]["self"]
    cpu_s = traced["report"]["cpu_s"]
    # the traced gateway's spans and CPU cover its whole serve.main, setup
    # included, so they are spread over every reply it answered
    replies = traced["answered"]
    layers = {}
    for name, (seconds, calls) in spans.items():
        layers[f"{name}.us_per_op"] = seconds * 1e6 / replies
        layers[f"{name}.calls_per_op"] = calls / replies
    traced_self = sum(s for s, _ in spans.values())
    metrics = plain["metrics"]
    sizes = histogram(metrics, "serve_batch_size")
    hits = counter_total(metrics, "artifact_cache_hits_total")
    lookups = hits + counter_total(metrics, "artifact_cache_misses_total")
    layers.update(
        {
            "serve.residual.us_per_op": (cpu_s - traced_self) * 1e6 / replies,
            "serve.batch_fill": sizes["sum"] / sizes["count"] / BATCH_MAX,
            "serve.gateway_cpu_share": plain["gateway_cpu_s"] / plain["wall_s"],
            "client.cpu_share": plain["client_cpu_s"] / plain["wall_s"],
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            "trace.coverage_share": traced_self / cpu_s,
            "trace.overhead_ratio": sustained(plain)["goodput_per_s"] / sustained(traced)["goodput_per_s"] - 1.0,
            "host.ref_kernel_ms": median(probes),
        }
    )
    return layers
