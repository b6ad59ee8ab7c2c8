"""Async inference serving gateway: the ensemble runtime behind a socket.

The batch campaign machinery answers "how reliable is this ensemble?";
this module answers requests.  A :class:`ServeGateway` accepts concurrent
classification requests over a newline-delimited-JSON protocol (TCP and/or
Unix socket), coalesces them into micro-batches, and executes each batch
against the :class:`~polygraphmr.ensemble.ModelSession` that
:meth:`~polygraphmr.ensemble.EnsembleRuntime.session` builds for the
campaigns too — stacked probability tensors and a fitted decision module —
served out of a warm, verified-once :class:`~polygraphmr.cache.ArtifactCache`.

**Protocol.**  One JSON object per ``\\n``-terminated line, at most
``MAX_FRAME_BYTES`` per frame::

    {"id": "r1", "model": "tinynet", "samples": [0, 5, 9], "deadline_ms": 250}

The response mirrors the request ``id`` and carries an ``outcome``:
``ok``, ``degraded`` (served by fewer members than planned), ``overloaded``
(shed at the queue bound), ``deadline_exceeded``, or ``error`` (with the
exact offending field path, :class:`~polygraphmr.errors.ConfigError` style).
``{"op": "ping"}`` and ``{"op": "metrics"}`` are answered inline and are
never queued or counted as classifications.

**Micro-batch coalescing.**  A single dispatcher drains a *bounded* queue;
after the first request of a batch it waits briefly for companions, then
groups the batch by model, concatenates every request's sample indices, and
evaluates them in one tensor op.  Every statistic on the serving path
(member-mean probabilities, argmax predictions, the six agreement features
of :func:`~polygraphmr.decision.ensemble_features`, the logistic gate's
score) is a per-sample computation, so slicing the coalesced result back
per request is **byte-identical** to running each request alone — the
differential guarantee ``tests/test_serve.py`` enforces.  A reply's
``flags`` are that gate's decisions: the gate campaigns journal since
journal v4, fitted by Newton's method on the session's ``val`` stack once
per member set (no seed: ``PolygraphService(seed=...)`` is accepted and
ignored).

**Reply memo.**  A session never changes once built, so each test row's
reply text (its ``probs`` row, prediction and flag) is a pure function of
(session, row).  The gateway keeps a :class:`RowMemo` per session key
``(model, active members)``, bounded by the test split (about 275 B a row);
a batch evaluates only its *cold* rows, once each, and every reply frame is
spliced from the rows' cached text, the batch's encoded breaker map and the
cached text of the static stanza (:meth:`PolygraphService.reply_frames`).
Warm replies thus skip evaluation and float formatting; a row's first use
costs what it did before.  The dict path —
:meth:`PolygraphService.respond` → ``evaluate_requests`` →
``build_payloads`` → :func:`response_frame` — stays memo-free as the
serial reference every gateway frame must equal byte for byte.

**Load shedding and degradation.**  Past ``max_queue`` pending requests the
gateway replies ``overloaded`` immediately — the queue never grows beyond
its bound.  Above ``degrade_depth`` pending requests, each served batch
records a *failure* on the per-submodel circuit breakers of the sheddable
(non-core) ensemble members; after ``failure_threshold`` consecutive
overloaded batches those breakers trip open and subsequent batches run with
fewer members (``degraded`` responses, metrics-visible).  Cool-downs are
counted in batches (one board tick per batch); a half-open breaker re-admits
its member as a probe, and a calm queue closes it again.  A breaker opened
by corrupt artifacts produces the same ``degraded`` responses — overload and
corruption share one shedding mechanism.

**Deadline budgets.**  ``deadline_ms`` rides the
:class:`~polygraphmr.errors.RetryPolicy` sleep-budget machinery: the
dispatcher's coalescing waits are a ``RetryPolicy`` schedule whose
``max_total_sleep`` is the scarcest remaining budget in the batch, and a
request whose budget is exhausted by the time its batch executes is answered
``deadline_exceeded`` instead of evaluated.

**One evaluation path.**  Batches run one at a time, in-process, on the
dispatcher: :meth:`ServeGateway._plan_batch` ticks the breaker board,
decides the ``active``/``shed`` member split and records pressure, then
the batch's cold rows are evaluated and its frames spliced.  Shipping rows
to forked evaluator processes was measured slower, on cold rows and on
warm ones (``docs/ARCHITECTURE.md``, "One evaluation path").

**Outbox.**  Nothing on the dispatch path waits for a socket.  A batch's
reply frames — deadline, error and evaluated, in that order per model
group — are gathered per connection and handed to the connection's
transport in one ``write`` of their joined bytes; the read loop answers
parse errors, ``overloaded``, ``ping`` and ``metrics`` the same way,
without awaiting.  The transport's write buffer is the connection's
outbox: when its unsent bytes pass ``OUTBOX_LIMIT_BYTES`` (about twenty
maximum-size 10-class replies) the client is a slow reader, and the
connection is aborted and counted in ``serve_slow_reader_closed_total``.
One client that stops reading therefore costs the gateway a bounded amount
of memory and never delays another client's replies.  On drain, outboxes
get ``DRAIN_FLUSH_S`` to empty; connections still holding bytes after that
are aborted and counted the same way, so drain always ends.

Latency quantiles (``serve_request_seconds``), queue depth,
shed/degraded/deadline-exceeded counters, slow-reader closes, and the reply
rows served from the memo or evaluated (``serve_reply_rows_total{source}``)
flow through :mod:`polygraphmr.metrics` and export as JSON + Prometheus on
drain.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import signal
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .breaker import BreakerBoard, BreakerPolicy
from .cache import DEFAULT_CACHE_BYTES, ArtifactCache
from .ensemble import EnsembleRuntime, ModelSession
from .errors import ConfigError, DegradedEnsemble, RetryPolicy, ServeError
from .metrics import BATCH_SIZE_BUCKETS, get_registry
from .store import ArtifactStore

__all__ = [
    "MAX_FRAME_BYTES",
    "OUTCOMES",
    "OUTCOME_OK",
    "OUTCOME_DEGRADED",
    "OUTCOME_OVERLOADED",
    "OUTCOME_DEADLINE",
    "OUTCOME_ERROR",
    "ServeRequest",
    "parse_request",
    "request_frame",
    "response_frame",
    "flat_sample_indices",
    "reply_template",
    "FrameAssembler",
    "RowMemo",
    "ModelSession",
    "PolygraphService",
    "ServeConfig",
    "ServeGateway",
    "coalesce_slices",
    "main",
]

MAX_FRAME_BYTES = 1 << 20
MAX_SAMPLES_PER_REQUEST = 4096
MAX_ID_CHARS = 200
# Unsent reply bytes a connection may hold before it is closed as a slow
# reader.  A maximum-size reply (MAX_SAMPLES_PER_REQUEST rows of 10-class
# probabilities) is about 0.85 MB, so this holds about twenty of them.
OUTBOX_LIMIT_BYTES = 16 << 20
# How long drain waits for outboxes to empty before it aborts the
# connections still holding bytes, and how often it looks.
DRAIN_FLUSH_S = 2.0
DRAIN_POLL_S = 0.01

OP_CLASSIFY = "classify"
OP_PING = "ping"
OP_METRICS = "metrics"
_OPS = (OP_CLASSIFY, OP_PING, OP_METRICS)

OUTCOME_OK = "ok"
OUTCOME_DEGRADED = "degraded"
OUTCOME_OVERLOADED = "overloaded"
OUTCOME_DEADLINE = "deadline_exceeded"
OUTCOME_ERROR = "error"
OUTCOMES = (OUTCOME_OK, OUTCOME_DEGRADED, OUTCOME_OVERLOADED, OUTCOME_DEADLINE, OUTCOME_ERROR)

# shed reasons reported per excluded member
SHED_LOAD = "load-shed"

# where a reply row's text came from (``serve_reply_rows_total{source}``)
ROW_MEMO = "memo"
ROW_EVALUATED = "evaluated"
ROW_SOURCES = (ROW_MEMO, ROW_EVALUATED)

_REQUEST_FIELDS = ("id", "model", "samples", "deadline_ms", "op")


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeRequest:
    """One parsed request frame.  ``samples`` are test-split row indices."""

    id: str = ""
    model: str = ""
    samples: tuple[int, ...] = ()
    deadline_ms: float | None = None
    op: str = OP_CLASSIFY

    def to_wire(self) -> dict:
        """Minimal wire mapping; :func:`parse_request` of it is a fixed point."""

        if self.op != OP_CLASSIFY:
            out: dict = {"op": self.op}
            if self.id:
                out["id"] = self.id
            return out
        out = {"id": self.id, "model": self.model, "samples": list(self.samples)}
        if self.deadline_ms is not None:
            out["deadline_ms"] = self.deadline_ms
        return out


# The one canonical encoder (sorted keys, minimal separators) behind every
# frame and every memoised reply fragment; ``json.dumps`` with these options
# would build a fresh encoder on each call.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _frame_bytes(payload: dict) -> bytes:
    return _ENCODE(payload).encode("utf-8") + b"\n"


def request_frame(request: ServeRequest) -> bytes:
    """Serialize a request as one wire frame (canonical JSON + newline)."""

    return _frame_bytes(request.to_wire())


def response_frame(payload: dict) -> bytes:
    """Serialize a response payload as one wire frame.

    Canonical (sorted-key, minimal-separator) JSON: a response's bytes are a
    pure function of its payload, which is what makes the serial≡coalesced
    differential checks byte-exact rather than merely value-exact.
    """

    return _frame_bytes(payload)


def _bad(field_path: str, reason: str, detail: str = "") -> ConfigError:
    return ConfigError(field_path, reason, detail)


def parse_request(line: bytes | str) -> ServeRequest:
    """Parse one frame; rejects with the exact offending field path.

    Raises :class:`~polygraphmr.errors.ConfigError` whose ``field`` names the
    precise location (``request.samples[3]``, ``request.deadline_ms``, …), in
    the same style as scenario-file validation.
    """

    if isinstance(line, (bytes, bytearray)):
        try:
            line = bytes(line).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _bad("request", "bad-utf8", str(exc)) from exc
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise _bad("request", "bad-json", str(exc)) from exc
    if not isinstance(obj, dict):
        raise _bad("request", "not-an-object", f"got {type(obj).__name__}")
    for key in obj:
        if key not in _REQUEST_FIELDS:
            raise _bad(f"request.{key}", "unknown-field")

    op = obj.get("op", OP_CLASSIFY)
    if not isinstance(op, str) or op not in _OPS:
        raise _bad("request.op", "unknown-op", f"expected one of {_OPS}")

    rid = obj.get("id", "")
    if not isinstance(rid, str):
        raise _bad("request.id", "bad-type", "id must be a string")
    if len(rid) > MAX_ID_CHARS:
        raise _bad("request.id", "too-long", f"max {MAX_ID_CHARS} characters")

    if op != OP_CLASSIFY:
        for key in ("model", "samples", "deadline_ms"):
            if key in obj:
                raise _bad(f"request.{key}", "unexpected-field", f"not valid on op={op!r}")
        return ServeRequest(id=rid, op=op)

    if "id" not in obj:
        raise _bad("request.id", "missing-field")
    if not rid:
        raise _bad("request.id", "empty")

    model = obj.get("model")
    if model is None:
        raise _bad("request.model", "missing-field")
    if not isinstance(model, str) or not model:
        raise _bad("request.model", "bad-type", "model must be a non-empty string")

    samples = obj.get("samples")
    if samples is None:
        raise _bad("request.samples", "missing-field")
    if not isinstance(samples, list) or not samples:
        raise _bad("request.samples", "bad-type", "samples must be a non-empty list")
    if len(samples) > MAX_SAMPLES_PER_REQUEST:
        raise _bad("request.samples", "too-many", f"max {MAX_SAMPLES_PER_REQUEST} per request")
    indices = []
    for i, value in enumerate(samples):
        if isinstance(value, bool) or not isinstance(value, int):
            raise _bad(f"request.samples[{i}]", "bad-type", "sample index must be an integer")
        if value < 0:
            raise _bad(f"request.samples[{i}]", "out-of-range", "sample index must be >= 0")
        indices.append(value)

    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
            raise _bad("request.deadline_ms", "bad-type", "deadline_ms must be a number")
        if not math.isfinite(deadline_ms) or deadline_ms <= 0:
            raise _bad("request.deadline_ms", "out-of-range", "deadline_ms must be finite and > 0")
        deadline_ms = float(deadline_ms)

    return ServeRequest(id=rid, model=model, samples=tuple(indices), deadline_ms=deadline_ms)


class FrameAssembler:
    """Reassembles newline-delimited frames across arbitrary chunk splits.

    Feed raw socket chunks in, get complete frames (without the trailing
    newline) out; a partial tail is buffered until its newline arrives.  A
    frame longer than ``max_frame_bytes`` raises
    :class:`~polygraphmr.errors.ServeError` (``frame-too-large``) — the
    connection is poisoned, since frame boundaries can no longer be trusted.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)

    def feed(self, chunk: bytes) -> list[bytes]:
        self._buffer.extend(chunk)
        frames: list[bytes] = []
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                break
            frames.append(bytes(self._buffer[:newline]))
            del self._buffer[: newline + 1]
        if len(self._buffer) > self.max_frame_bytes:
            raise ServeError("frame-too-large", f"unterminated frame exceeds {self.max_frame_bytes} bytes")
        return frames


# ---------------------------------------------------------------------------
# service core (transport-independent)
# ---------------------------------------------------------------------------


def flat_sample_indices(requests: list[ServeRequest]) -> np.ndarray:
    """Concatenated sample indices across ``requests`` — the flat batch the
    serial reference (:meth:`PolygraphService.evaluate_requests`) evaluates
    in one tensor op."""

    return np.array([idx for r in requests for idx in r.samples], dtype=np.int64)


# the reply fields spliced in per request or per batch, in canonical key order
_SPLICED_FIELDS = ("breakers", "flags", "id", "predictions", "probs")


def reply_template(stanza: dict) -> tuple[str, ...]:
    """The canonical text of a reply carrying ``stanza``, cut around the
    spliced fields: one literal piece before each of :data:`_SPLICED_FIELDS`
    (in sorted key order, like the encoder) and one after the last.
    :meth:`RowMemo.frame` fills the gaps."""

    pieces: list[str] = []
    text = "{"
    for n, key in enumerate(sorted({*stanza, *_SPLICED_FIELDS})):
        text += ("," if n else "") + _ENCODE(key) + ":"
        if key in _SPLICED_FIELDS:
            pieces.append(text)
            text = ""
        else:
            text += _ENCODE(stanza[key])
    pieces.append(text + "}\n")
    return tuple(pieces)


class RowMemo:
    """The encoded reply text of each test row of one session: its ``probs``
    row, prediction and flag, each encoded on a row's first use.

    A :class:`~polygraphmr.ensemble.ModelSession` never changes once built,
    and every statistic it serves is per-sample, so a row's text is a pure
    function of (session, row).  One slot per test row bounds the memo at
    the split size (about 275 B a row for 10 classes)."""

    def __init__(self, n_rows: int):
        self.probs: list[str | None] = [None] * n_rows
        self.predictions: list[str | None] = [None] * n_rows
        self.flags: list[str | None] = [None] * n_rows

    def cold(self, requests: list[ServeRequest]) -> np.ndarray:
        """The distinct rows of ``requests`` with no text yet, ascending."""

        probs = self.probs
        return np.array(sorted({i for r in requests for i in r.samples if probs[i] is None}), dtype=np.int64)

    def fill(self, rows: np.ndarray, probs: np.ndarray, predictions: np.ndarray, flags: np.ndarray) -> None:
        """Store the text of ``rows`` from their evaluation arrays.

        One encoder call per array; the outer list's text is then cut at
        its row separators, which float and integer text never contains."""

        probs_text = _ENCODE(probs.tolist())[2:-2].split("],[")
        predictions_text = _ENCODE(predictions.tolist())[1:-1].split(",")
        flags_text = _ENCODE(flags.tolist())[1:-1].split(",")
        for row, p, y, f in zip(rows.tolist(), probs_text, predictions_text, flags_text):
            self.probs[row] = f"[{p}]"
            self.predictions[row] = y
            self.flags[row] = f

    def frame(self, template: tuple[str, ...], breakers: str, request: ServeRequest) -> bytes:
        """The reply frame of ``request``: ``template`` spliced with the
        encoded ``breakers`` map, the request id and the rows' text — byte
        for byte :func:`response_frame` of the same payload."""

        t = template
        rows = request.samples
        probs = ",".join([self.probs[i] for i in rows])
        predictions = ",".join([self.predictions[i] for i in rows])
        flags = ",".join([self.flags[i] for i in rows])
        rid = _ENCODE(request.id)
        return f"{t[0]}{breakers}{t[1]}[{flags}]{t[2]}{rid}{t[3]}[{predictions}]{t[4]}[{probs}]{t[5]}".encode()


class PolygraphService:
    """The gateway's compute core: sessions, breakers, and request payloads.

    Deliberately synchronous and transport-free — the asyncio gateway calls
    into it from the dispatcher, and tests drive it directly to build serial
    reference responses for the differential suite.
    """

    def __init__(
        self,
        store: ArtifactStore,
        *,
        min_members: int = 2,
        keep_members: int | None = None,
        seed: int = 0,  # unused: the gate fit is unseeded; accepted for existing callers
        breakers: BreakerBoard | None = None,
    ):
        self.store = store
        # members beyond the first ``keep_members`` are sheddable under load;
        # ORG and enough companions to stay above min_members never shed
        self.keep_members = max(min_members, keep_members if keep_members is not None else min_members)
        self.board = breakers if breakers is not None else BreakerBoard(BreakerPolicy())
        self.runtime = EnsembleRuntime(store, min_members=min_members, breakers=self.board)
        self._base: dict[str, ModelSession] = {}
        self._derived: dict[tuple[str, tuple[str, ...]], ModelSession] = {}
        # reply text per session, keyed like ``_derived`` (the base session too)
        self._memos: dict[tuple[str, tuple[str, ...]], RowMemo] = {}
        self._stanzas: dict[tuple[str, tuple[str, ...], tuple[str, ...]], dict] = {}
        self._templates: dict[tuple[str, tuple[str, ...], tuple[str, ...]], tuple[str, ...]] = {}

    # -- sessions --------------------------------------------------------

    def base_session(self, model: str) -> ModelSession:
        """The full-ensemble :meth:`EnsembleRuntime.session` for ``model``,
        built on first use; corrupt members quarantine (and feed their
        breakers) rather than crash."""

        session = self._base.get(model)
        if session is not None:
            return session
        if not self.store.model_dir(model).is_dir():
            raise ServeError("unknown-model", f"no model directory {model!r} in {self.store.root}")
        session = self._base[model] = self.runtime.session(model)
        get_registry().counter("serve_sessions_built_total", kind="base").inc()
        return session

    def session_for(self, model: str, members: tuple[str, ...]) -> ModelSession:
        """A session restricted to ``members`` (a subset of the base session's,
        in base order) — derived by slicing the resident stacks and refitting
        the decision module on the narrower feature layout.  Cached: the
        shed/recover cycle alternates between a handful of subsets."""

        base = self.base_session(model)
        if list(members) == base.members:
            return base
        key = (model, members)
        session = self._derived.get(key)
        if session is not None:
            return session
        rows = [base.members.index(s) for s in members]
        val_stack = base.val_stack[rows]
        session = self._derived[key] = replace(
            base,
            members=list(members),
            val_stack=val_stack,
            test_stack=base.test_stack[rows],
            module=self.runtime.fit_gate(model, list(members), val_stack),
        )
        get_registry().counter("serve_sessions_built_total", kind="derived").inc()
        return session

    def row_memo(self, model: str, active: list[str]) -> RowMemo:
        """The reply-text memo of the session serving ``active`` members.
        Keyed by member set, so a row warmed under one set is never served
        under another; sized from the base session's test split."""

        key = (model, tuple(active))
        memo = self._memos.get(key)
        if memo is None:
            memo = self._memos[key] = RowMemo(self.base_session(model).n_samples)
        return memo

    # -- breaker-driven member selection ---------------------------------

    def active_members(self, model: str) -> tuple[list[str], list[str]]:
        """(active, shed) member stems for the next batch of ``model``.

        Core members (the first ``keep_members`` of the base session) always
        serve; each sheddable member serves only while its breaker admits it.
        ``allow`` also flips an open breaker to half-open once its cool-down
        (in batches) has elapsed, re-admitting the member as a probe.
        """

        base = self.base_session(model)
        active: list[str] = []
        shed: list[str] = []
        for i, stem in enumerate(base.members):
            if i < self.keep_members or self.board.allow(model, stem):
                active.append(stem)
            else:
                shed.append(stem)
        return active, shed

    def record_pressure(self, model: str, active: list[str], overloaded: bool) -> None:
        """Feed this batch's overload verdict to the sheddable breakers.

        An overloaded batch is a *failure* for every sheddable member that
        served it (consecutive failures trip the breaker open — hysteresis
        for free); a calm batch is a success (closes half-open probes,
        resets failure streaks).
        """

        base = self.base_session(model)
        for stem in base.members[self.keep_members :]:
            if stem not in active:
                continue
            if overloaded:
                self.board.record_failure(model, stem)
            else:
                self.board.record_success(model, stem)

    # -- evaluation ------------------------------------------------------

    def check_samples(self, model: str, request: ServeRequest) -> None:
        """Range-check sample indices against the model's test split.

        One ``max`` over the request's tuple (the parser already rejected
        negative indices); only a failing request walks its indices, so the
        error names the exact offending field path, ``request.samples[i]``
        for the *first* out-of-range index.
        """

        n = self.base_session(model).n_samples
        samples = request.samples
        if max(samples, default=-1) >= n:
            i = next(i for i, value in enumerate(samples) if value >= n)
            raise _bad(f"request.samples[{i}]", "out-of-range", f"model {model!r} has {n} test samples")

    def static_stanza(self, model: str, active: list[str], shed: list[str]) -> dict:
        """The response fields that are constant across every payload of a
        ``(model, active, shed)`` combination — members, degraded verdict,
        missing/quarantined rosters.  Cached and shared by reference: the
        shed/recover cycle alternates between a handful of member subsets,
        and re-building (and re-serialising state into) these lists per
        request is pure overhead on the hot path.  Callers must treat the
        returned mapping and its values as frozen."""

        key = (model, tuple(active), tuple(shed))
        stanza = self._stanzas.get(key)
        if stanza is None:
            base = self.base_session(model)
            degraded = bool(shed or base.missing or base.quarantined)
            stanza = {
                "outcome": OUTCOME_DEGRADED if degraded else OUTCOME_OK,
                "model": model,
                "members": list(active),
                "degraded": degraded,
                "shed": sorted(shed),
                "missing": list(base.missing),
                "quarantined": dict(base.quarantined),
            }
            self._stanzas[key] = stanza
        return stanza

    def reply_frames(
        self,
        model: str,
        requests: list[ServeRequest],
        *,
        active: list[str],
        shed: list[str],
        breaker_states: dict,
    ) -> list[bytes]:
        """The gateway's reply frames, spliced from the row memo.

        Every row of ``requests`` must already be in :meth:`row_memo`'s memo
        for ``active``.  The frames equal ``response_frame`` of
        :meth:`build_payloads`' payloads byte for byte, without building
        them: the static stanza's text is cached per ``(model, active,
        shed)``, the breaker map is encoded once per batch, and each row's
        text once per session."""

        key = (model, tuple(active), tuple(shed))
        template = self._templates.get(key)
        if template is None:
            template = self._templates[key] = reply_template(self.static_stanza(model, active, shed))
        memo = self.row_memo(model, active)
        breakers = _ENCODE(breaker_states)
        return [memo.frame(template, breakers, request) for request in requests]

    def build_payloads(
        self,
        model: str,
        requests: list[ServeRequest],
        counts: list[int],
        probs: np.ndarray,
        predictions: np.ndarray,
        flags: np.ndarray,
        *,
        active: list[str],
        shed: list[str],
        breaker_states: dict,
    ) -> list[dict]:
        """Slice raw evaluation arrays back into per-request payloads.

        The dict-based serial reference: :meth:`respond` goes through here,
        while the gateway sends :meth:`reply_frames`, which must equal
        ``response_frame`` of these payloads byte for byte.  Pure assembly —
        no policy, no board reads: everything dynamic
        (``active``/``shed``/``breaker_states``) is decided by the caller
        and passed in.  ``ndarray.tolist()`` does the number conversion in
        one C call per array (bit-identical to the old per-element
        ``float()``/``int()`` loops — enforced by a regression test), and
        the static stanza is shared by reference across payloads.
        """

        stanza = self.static_stanza(model, active, shed)
        probs_list = probs.tolist()
        predictions_list = predictions.tolist()
        flags_list = flags.tolist()
        payloads = []
        offset = 0
        for request, count in zip(requests, counts):
            span = slice(offset, offset + count)
            offset += count
            payloads.append(
                {
                    "id": request.id,
                    **stanza,
                    "probs": probs_list[span],
                    "predictions": predictions_list[span],
                    "flags": flags_list[span],
                    "breakers": breaker_states,
                }
            )
        return payloads

    def evaluate_requests(
        self,
        model: str,
        requests: list[ServeRequest],
        *,
        active: list[str] | None = None,
        shed: list[str] | None = None,
        breaker_states: dict | None = None,
    ) -> list[dict]:
        """Response payloads for same-model requests, evaluated as one tensor op.

        All requests' sample indices are concatenated, evaluated once, and
        sliced back per request — byte-identical to evaluating each request
        alone because every statistic involved is per-sample.  Part of the
        serial reference (:meth:`respond`); it reads and fills no row memo.
        """

        base = self.base_session(model)
        if active is None:
            active = list(base.members)
        shed = list(shed or [])
        session = self.session_for(model, tuple(active))
        counts = [len(r.samples) for r in requests]
        flat = flat_sample_indices(requests)
        probs, predictions, flags = session.evaluate(flat)
        if breaker_states is None:
            breaker_states = self.board.states_for(model)
        return self.build_payloads(
            model,
            requests,
            counts,
            probs,
            predictions,
            flags,
            active=active,
            shed=shed,
            breaker_states=breaker_states,
        )

    def respond(self, request: ServeRequest) -> dict:
        """The serial reference path: one request, straight through.

        Evaluates every row afresh and builds the payload dict, memo-free.
        The gateway's memo frames must be byte-identical to
        ``response_frame`` of this (given the same board state and no
        overload) — the differential tests and the benchmark's reply check
        compare against it directly.
        """

        try:
            self.base_session(request.model)
            self.check_samples(request.model, request)
            active, shed = self.active_members(request.model)
            return self.evaluate_requests(request.model, [request], active=active, shed=shed)[0]
        except (ServeError, ConfigError, DegradedEnsemble) as exc:
            return error_payload(request.id, exc)


def error_payload(rid: str, exc: BaseException) -> dict:
    """An ``outcome=error`` response payload for a rejected request."""

    error: dict = {"reason": getattr(exc, "reason", type(exc).__name__), "detail": str(exc)}
    if isinstance(exc, ConfigError):
        error["field"] = exc.field
        error["detail"] = exc.detail
    if isinstance(exc, DegradedEnsemble):
        error["reason"] = "degraded-below-minimum"
    return {"id": rid, "outcome": OUTCOME_ERROR, "error": error}


# ---------------------------------------------------------------------------
# deadline / coalescing budgets
# ---------------------------------------------------------------------------

COALESCE_SLICES = 4  # the coalescing window is polled in this many waits


def coalesce_slices(window_s: float, budget_s: float, *, n: int = COALESCE_SLICES) -> list[float]:
    """The dispatcher's coalescing waits as a ``RetryPolicy`` sleep schedule.

    ``n`` equal slices of the coalescing window, clamped by the batch's
    scarcest remaining deadline budget via ``RetryPolicy.max_total_sleep`` —
    the same machinery that caps retry backoff caps how long a request may
    sit waiting for batch companions.
    """

    if window_s <= 0.0 or budget_s <= 0.0:
        return []
    piece = window_s / n
    policy = RetryPolicy(
        attempts=n + 1, base_delay=piece, max_delay=piece, jitter=0.0, max_total_sleep=budget_s
    )
    return [delay for delay in policy.schedule() if delay > 0.0]


# ---------------------------------------------------------------------------
# asyncio gateway
# ---------------------------------------------------------------------------


@dataclass
class ServeConfig:
    """Gateway knobs.  ``degrade_depth``/``max_queue`` are pending-request
    counts; ``coalesce_ms`` bounds how long the dispatcher waits for batch
    companions; ``batch_sleep_s`` pads each executed batch (bench/smoke use
    it to pin the service rate so overload behaviour is reproducible)."""

    host: str | None = "127.0.0.1"
    port: int = 0
    unix_path: str | None = None
    max_queue: int = 64
    degrade_depth: int = 8
    coalesce_ms: float = 2.0
    batch_max: int = 16
    default_deadline_ms: float | None = None
    batch_sleep_s: float = 0.0
    metrics_out: str | None = None
    prom_out: str | None = None

    def __post_init__(self) -> None:
        # below 1 the queue would be unbounded (asyncio.Queue's maxsize) and
        # nothing would ever shed
        for name in ("max_queue", "batch_max"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"serve.{name}", "out-of-range", f"must be >= 1, got {value}")


_STOP = object()


@dataclass
class _Queued:
    request: ServeRequest
    conn: _Connection
    started: float

    def remaining_s(self, now: float, default_deadline_ms: float | None) -> float | None:
        deadline_ms = self.request.deadline_ms
        if deadline_ms is None:
            deadline_ms = default_deadline_ms
        if deadline_ms is None:
            return None
        return deadline_ms / 1000.0 - (now - self.started)


@dataclass
class _BatchPlan:
    """One model group's dispatch-time policy decisions, frozen before the
    batch executes.

    The dispatcher computes everything stateful here — validation verdicts,
    active/shed member selection (with its ``allow()`` probe side effects),
    the breaker-state snapshot, and the pressure recording — before the
    batch's sleep padding and evaluation, so execution downstream is a pure
    function of the plan.
    """

    model: str
    queued: list[_Queued] = field(default_factory=list)
    errors: list[tuple[_Queued, dict]] = field(default_factory=list)
    active: list[str] = field(default_factory=list)
    shed: list[str] = field(default_factory=list)
    breaker_states: dict = field(default_factory=dict)


class _Connection:
    """One client connection's outbox: its transport's write buffer, bounded
    at :data:`OUTBOX_LIMIT_BYTES`.

    :meth:`write` hands whole frames to the transport and never waits for
    the socket, so batch replies and the read loop's inline replies append
    without a lock and cannot tear frames.  A write that leaves more than
    the bound unsent closes the connection as a slow reader."""

    def __init__(self, transport: asyncio.WriteTransport):
        self.transport = transport

    @property
    def unsent(self) -> int:
        """Reply bytes written but not yet taken by the socket."""

        return self.transport.get_write_buffer_size()

    def write(self, data: bytes) -> None:
        transport = self.transport
        if transport.is_closing():
            return
        transport.write(data)
        if transport.get_write_buffer_size() > OUTBOX_LIMIT_BYTES:
            self.close_slow()

    def close_slow(self) -> None:
        """Abort the connection, dropping its unsent bytes, and count it in
        ``serve_slow_reader_closed_total``."""

        self.transport.abort()
        get_registry().counter("serve_slow_reader_closed_total").inc()


class ServeGateway:
    """Asyncio front-end: bounded queue, coalescing dispatcher, graceful drain."""

    def __init__(self, service: PolygraphService, config: ServeConfig | None = None):
        self.service = service
        self.config = config or ServeConfig()
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=self.config.max_queue)
        self._servers: list[asyncio.base_events.Server] = []
        self._dispatcher: asyncio.Task | None = None
        self._handlers: set[asyncio.Task] = set()
        self._connections: set[_Connection] = set()
        self._draining = False
        self._drained = asyncio.Event()
        self.bound_port: int | None = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        if self.config.host is not None:
            server = await asyncio.start_server(self._handle, self.config.host, self.config.port)
            self._servers.append(server)
            for sock in server.sockets:
                if self.bound_port is None:
                    self.bound_port = sock.getsockname()[1]
        if self.config.unix_path is not None:
            server = await asyncio.start_unix_server(self._handle, path=self.config.unix_path)
            self._servers.append(server)
        if not self._servers:
            raise ServeError("no-listener", "gateway needs a TCP host or a unix socket path")
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def drain(self) -> None:
        """Graceful SIGTERM semantics: stop accepting, complete everything
        already queued, give the outboxes :data:`DRAIN_FLUSH_S` to empty,
        export metrics, close connections."""

        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        await self.queue.put(_STOP)
        if self._dispatcher is not None:
            await self._dispatcher
        await self._flush_outboxes()
        self._export_metrics()
        for task in list(self._handlers):
            task.cancel()
        await asyncio.gather(*self._handlers, return_exceptions=True)
        self._drained.set()

    async def _flush_outboxes(self) -> None:
        """Wait up to :data:`DRAIN_FLUSH_S` for every connection's unsent
        replies to reach its client, then close the connections still
        holding bytes as slow readers."""

        deadline = time.monotonic() + DRAIN_FLUSH_S
        while any(conn.unsent for conn in self._connections) and time.monotonic() < deadline:
            await asyncio.sleep(DRAIN_POLL_S)
        for conn in list(self._connections):
            if conn.unsent:
                conn.close_slow()

    def _export_metrics(self) -> None:
        registry = get_registry()
        if self.config.metrics_out:
            registry.write_json(self.config.metrics_out)
        if self.config.prom_out:
            path = Path(self.config.prom_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(registry.to_prometheus(), encoding="utf-8")

    # -- connection handling ---------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        conn = _Connection(writer.transport)
        self._connections.add(conn)
        assembler = FrameAssembler()
        try:
            while not self._draining:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                try:
                    frames = assembler.feed(chunk)
                except ServeError as exc:
                    conn.write(response_frame(error_payload("", exc)))
                    break
                for frame in frames:
                    if frame.strip():
                        self._ingest(conn, frame)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(conn)
            with contextlib.suppress(ConnectionError):
                writer.close()

    def _ingest(self, conn: _Connection, frame: bytes) -> None:
        """Parse one frame and queue it, or answer it at once: parse errors,
        ``overloaded``, ``ping`` and ``metrics`` never reach the dispatcher."""

        started = time.perf_counter()
        registry = get_registry()
        try:
            request = parse_request(frame)
        except ConfigError as exc:
            rid = _salvage_id(frame)
            reply = response_frame(error_payload(rid, exc))
            self._finish([(OUTCOME_ERROR, [_Queued(ServeRequest(id=rid), conn, started)], [reply])])
            return
        if request.op == OP_PING:
            conn.write(response_frame({"id": request.id, "op": OP_PING, "ok": True}))
            return
        if request.op == OP_METRICS:
            conn.write(response_frame({"id": request.id, "op": OP_METRICS, **self._metrics_snapshot()}))
            return
        queued = _Queued(request, conn, started)
        try:
            self.queue.put_nowait(queued)
        except asyncio.QueueFull:
            registry.counter("serve_shed_total").inc()
            payload = {
                "id": request.id,
                "outcome": OUTCOME_OVERLOADED,
                "model": request.model,
                "queue_depth": self.queue.qsize(),
            }
            self._finish([(OUTCOME_OVERLOADED, [queued], [response_frame(payload)])])
            return
        registry.gauge("serve_queue_depth").set(float(self.queue.qsize()))

    def _metrics_snapshot(self) -> dict:
        registry = get_registry()
        return {
            "requests": {outcome: registry.counter_value("serve_requests_total", outcome=outcome) for outcome in OUTCOMES},
            "shed": registry.counter_value("serve_shed_total"),
            "degraded": registry.counter_value("serve_degraded_total"),
            "deadline_exceeded": registry.counter_value("serve_deadline_exceeded_total"),
            "batches": registry.counter_value("serve_batches_total"),
            "slow_reader_closed": registry.counter_value("serve_slow_reader_closed_total"),
            "queue_depth": self.queue.qsize(),
            "reply_rows": {
                source: registry.counter_value("serve_reply_rows_total", source=source) for source in ROW_SOURCES
            },
        }

    def _finish(self, replies: list[tuple[str, list[_Queued], list[bytes]]]) -> None:
        """Count and send terminal reply frames, given as ``(outcome,
        requests, frames)`` groups in send order.

        The single point that counts outcomes — ``serve_requests_total
        {outcome}`` once per group, ``serve_request_seconds`` once per
        request — so the counters reconcile exactly with the frames clients
        receive (a client closed as a slow reader is counted for every reply
        it was sent).  Each connection gets all of its frames in one write."""

        registry = get_registry()
        observe = registry.histogram("serve_request_seconds").observe
        now = time.perf_counter()
        outboxes: dict[_Connection, list[bytes]] = {}
        for outcome, queued, frames in replies:
            registry.counter("serve_requests_total", outcome=outcome).inc(len(queued))
            for q, frame in zip(queued, frames):
                observe(now - q.started)
                outbox = outboxes.get(q.conn)
                if outbox is None:
                    outboxes[q.conn] = [frame]
                else:
                    outbox.append(frame)
        for conn, frames in outboxes.items():
            conn.write(b"".join(frames))

    # -- dispatcher ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        stopping = False
        while True:
            if stopping:
                try:
                    item = self.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            else:
                item = await self.queue.get()
            if item is _STOP:
                stopping = True
                continue
            batch = [item]
            if stopping:
                while len(batch) < self.config.batch_max:
                    try:
                        extra = self.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if extra is _STOP:
                        continue
                    batch.append(extra)
            else:
                stopping = await self._coalesce(batch)
            # one batch at a time: batch N is answered before batch N+1 is
            # planned, so the board sees every batch's pressure in order
            await self._execute(batch)

    def _batch_budget_s(self, batch: list[_Queued], now: float) -> float:
        """The scarcest remaining deadline in the batch (coalescing must not
        eat a request's whole budget), or the full window when nobody is in
        a hurry."""

        window_s = self.config.coalesce_ms / 1000.0
        budget = window_s
        for queued in batch:
            remaining = queued.remaining_s(now, self.config.default_deadline_ms)
            if remaining is not None:
                budget = min(budget, remaining)
        return budget

    async def _coalesce(self, batch: list[_Queued]) -> bool:
        """Wait briefly for batch companions; returns True when _STOP arrived."""

        slices = coalesce_slices(self.config.coalesce_ms / 1000.0, self._batch_budget_s(batch, time.perf_counter()))
        for delay in slices:
            if len(batch) >= self.config.batch_max:
                break
            try:
                item = await asyncio.wait_for(self.queue.get(), timeout=delay)
            except asyncio.TimeoutError:
                break
            if item is _STOP:
                return True
            batch.append(item)
            while len(batch) < self.config.batch_max:
                try:
                    extra = self.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is _STOP:
                    return True
                batch.append(extra)
        return False

    async def _execute(self, batch: list[_Queued]) -> None:
        """Plan then run one batch: what the dispatcher does with every
        batch it coalesces."""

        await self._run_plans(self._plan_batch(batch))

    def _plan_batch(self, batch: list[_Queued]) -> list[_BatchPlan]:
        """All of a batch's policy, synchronously at dispatch time.

        Groups the batch by model, validates (unknown model / out-of-range
        samples become error payloads in the plan), selects active/shed
        members, snapshots breaker states for the payloads, and records this
        batch's pressure verdict — the complete set of board reads and
        writes, so execution never touches shared policy state.
        """

        registry = get_registry()
        depth = self.queue.qsize()
        registry.gauge("serve_queue_depth").set(float(depth))
        overloaded = self.config.degrade_depth > 0 and depth >= self.config.degrade_depth
        registry.counter("serve_batches_total").inc()
        registry.histogram("serve_batch_size", buckets=BATCH_SIZE_BUCKETS).observe(float(len(batch)))
        self.service.board.tick()

        groups: dict[str, list[_Queued]] = {}
        for queued in batch:
            groups.setdefault(queued.request.model, []).append(queued)

        plans: list[_BatchPlan] = []
        for model, queued_group in groups.items():
            plan = _BatchPlan(model)
            plans.append(plan)
            try:
                self.service.base_session(model)
            except (ServeError, DegradedEnsemble) as exc:
                plan.errors = [(q, error_payload(q.request.id, exc)) for q in queued_group]
                continue
            for queued in queued_group:
                try:
                    self.service.check_samples(model, queued.request)
                except ConfigError as exc:
                    plan.errors.append((queued, error_payload(queued.request.id, exc)))
                else:
                    plan.queued.append(queued)
            if not plan.queued:
                continue
            plan.active, plan.shed = self.service.active_members(model)
            plan.breaker_states = self.service.board.states_for(model)
            self.service.record_pressure(model, plan.active, overloaded)
        return plans

    async def _run_plans(self, plans: list[_BatchPlan]) -> None:
        """Execute planned work: sleep-padding, deadline filtering, tensor
        evaluation, response frames, then one :meth:`_finish` for the whole
        batch.  Touches no policy state."""

        registry = get_registry()
        if self.config.batch_sleep_s > 0.0:
            await asyncio.sleep(self.config.batch_sleep_s)

        now = time.perf_counter()
        replies: list[tuple[str, list[_Queued], list[bytes]]] = []
        for plan in plans:
            live: list[_Queued] = []
            expired: list[_Queued] = []
            for queued in plan.queued:
                remaining = queued.remaining_s(now, self.config.default_deadline_ms)
                if remaining is not None and remaining <= 0.0:
                    expired.append(queued)
                else:
                    live.append(queued)
            if expired:
                registry.counter("serve_deadline_exceeded_total").inc(len(expired))
                frames = [
                    response_frame({"id": q.request.id, "outcome": OUTCOME_DEADLINE, "model": plan.model})
                    for q in expired
                ]
                replies.append((OUTCOME_DEADLINE, expired, frames))
            if plan.errors:
                replies.append(
                    (OUTCOME_ERROR, [q for q, _ in plan.errors], [response_frame(p) for _, p in plan.errors])
                )
            if not live:
                continue
            frames = self._evaluate_plan(plan, live)
            outcome = self.service.static_stanza(plan.model, plan.active, plan.shed)["outcome"]
            if outcome == OUTCOME_DEGRADED:
                registry.counter("serve_degraded_total").inc(len(live))
            replies.append((outcome, live, frames))
        self._finish(replies)

    def _evaluate_plan(self, plan: _BatchPlan, live: list[_Queued]) -> list[bytes]:
        """Reply frames for one plan's surviving requests, from the row memo
        of the plan's session (:meth:`PolygraphService.reply_frames`).

        Only the memo's cold rows are evaluated, once each, by the session
        serving the plan's members; a fully warm batch evaluates nothing.
        The rows' text comes from one encoder and one splice, so the frames
        equal the serial :meth:`PolygraphService.respond` reference byte for
        byte.  ``serve_reply_rows_total{source}`` counts every reply row as
        ``evaluated`` here or served from the ``memo``."""

        registry = get_registry()
        requests = [q.request for q in live]
        memo = self.service.row_memo(plan.model, plan.active)
        cold = memo.cold(requests)
        if cold.size:
            memo.fill(cold, *self.service.session_for(plan.model, tuple(plan.active)).evaluate(cold))
        rows = sum(len(r.samples) for r in requests)
        registry.counter("serve_reply_rows_total", source=ROW_EVALUATED).inc(cold.size)
        registry.counter("serve_reply_rows_total", source=ROW_MEMO).inc(rows - cold.size)
        return self.service.reply_frames(
            plan.model,
            requests,
            active=plan.active,
            shed=plan.shed,
            breaker_states=plan.breaker_states,
        )


def _salvage_id(frame: bytes) -> str:
    """Best-effort request id for error responses to malformed frames."""

    try:
        obj = json.loads(frame.decode("utf-8", errors="replace"))
    except json.JSONDecodeError:
        return ""
    if isinstance(obj, dict) and isinstance(obj.get("id"), str):
        return obj["id"][:MAX_ID_CHARS]
    return ""


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _build_store(args) -> ArtifactStore:
    cache_root = Path(args.cache)
    if args.synthetic_models > 0:
        from .faults import build_synthetic_model

        existing = set(ArtifactStore(cache_root).models()) if cache_root.is_dir() else set()
        for i in range(args.synthetic_models):
            name = f"net-{i:02d}"
            if name not in existing:
                build_synthetic_model(cache_root, name, n_val=96, n_test=96, seed=args.seed + i)
    return ArtifactStore(cache_root, cache=ArtifactCache(max_bytes=args.cache_bytes))


def _config(args) -> ServeConfig:
    return ServeConfig(
        host=None if args.unix else args.host,
        port=args.port,
        unix_path=args.unix,
        max_queue=args.max_queue,
        degrade_depth=args.degrade_depth,
        coalesce_ms=args.coalesce_ms,
        batch_max=args.batch_max,
        default_deadline_ms=args.deadline_ms if args.deadline_ms > 0 else None,
        batch_sleep_s=args.batch_sleep,
        metrics_out=args.metrics_out,
        prom_out=args.prom_out,
    )


async def _serve(args, config: ServeConfig) -> int:
    store = _build_store(args)
    board = BreakerBoard(BreakerPolicy(failure_threshold=args.failure_threshold, cooldown_ticks=args.cooldown_ticks))
    service = PolygraphService(
        store,
        min_members=args.min_members,
        keep_members=args.keep_members,
        breakers=board,
    )
    gateway = ServeGateway(service, config)
    await gateway.start()

    shutdown = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, shutdown.set)

    ready = {"ready": True, "models": store.models(), "port": gateway.bound_port, "unix": args.unix}
    print(json.dumps(ready, sort_keys=True), flush=True)

    await shutdown.wait()
    await gateway.drain()

    registry = get_registry()
    summary = {
        "drained": True,
        "served": {outcome: registry.counter_value("serve_requests_total", outcome=outcome) for outcome in OUTCOMES},
        "batches": registry.counter_value("serve_batches_total"),
        "shed": registry.counter_value("serve_shed_total"),
        "degraded": registry.counter_value("serve_degraded_total"),
        "deadline_exceeded": registry.counter_value("serve_deadline_exceeded_total"),
        "slow_reader_closed": registry.counter_value("serve_slow_reader_closed_total"),
    }
    print(json.dumps(summary, sort_keys=True), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="polygraphmr-serve",
        description="Async ensemble inference gateway with load-shedding and deadline budgets",
    )
    parser.add_argument("--cache", required=True, help="artifact cache root to serve from")
    parser.add_argument(
        "--synthetic-models",
        type=int,
        default=0,
        help="build this many synthetic models into --cache first (smoke/bench)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="TCP bind host (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0, help="TCP port; 0 picks a free one (printed on the ready line)")
    parser.add_argument("--unix", default=None, help="serve on this unix socket path instead of TCP")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-members", type=int, default=2)
    parser.add_argument(
        "--keep-members",
        type=int,
        default=None,
        help="members that never shed under load (default: --min-members)",
    )
    parser.add_argument("--max-queue", type=int, default=64, help="pending-request bound; beyond it requests shed")
    parser.add_argument(
        "--degrade-depth",
        type=int,
        default=8,
        help="queue depth at which batches count as overloaded and sheddable members start tripping (0 disables)",
    )
    parser.add_argument("--coalesce-ms", type=float, default=2.0, help="micro-batch coalescing window (milliseconds)")
    parser.add_argument("--batch-max", type=int, default=16, help="max requests per micro-batch")
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=0.0,
        help="default per-request deadline budget in ms (0 = none unless the request carries one)",
    )
    parser.add_argument(
        "--batch-sleep",
        type=float,
        default=0.0,
        help="pad each executed batch by this many seconds (bench/smoke: pins the service rate)",
    )
    # Older command lines pass these: evaluation is always in-process, so
    # --serve-workers accepts only 0.  --no-plane is a no-op kept only
    # because benchmark/serve_load.py still passes it.
    parser.add_argument("--serve-workers", type=int, choices=[0], default=0, help=argparse.SUPPRESS)
    parser.add_argument("--failure-threshold", type=int, default=3, help="overloaded batches before a member sheds")
    parser.add_argument("--cooldown-ticks", type=int, default=2, help="batches an open breaker waits before probing")
    parser.add_argument("--no-plane", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cache-bytes", type=int, default=DEFAULT_CACHE_BYTES)
    parser.add_argument("--metrics-out", default=None, help="write metrics JSON here on drain")
    parser.add_argument("--prom-out", default=None, help="write Prometheus text exposition here on drain")
    args = parser.parse_args(argv)
    if args.keep_members is None:
        args.keep_members = args.min_members
    try:
        config = _config(args)
    except ConfigError as exc:
        parser.error(str(exc))
    try:
        return asyncio.run(_serve(args, config))
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C race
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
