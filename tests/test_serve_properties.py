"""Property tests for the serving wire codec: parse∘serialize is a fixed
point, malformed frames are rejected with exact field paths, the frame
assembler reconstructs frames across arbitrary chunk splits, and reply
frames spliced from the row memo equal the canonical JSON of the payload."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polygraphmr.errors import ConfigError, ServeError
from polygraphmr.serve import (
    MAX_ID_CHARS,
    MAX_SAMPLES_PER_REQUEST,
    FrameAssembler,
    PolygraphService,
    RowMemo,
    ServeRequest,
    parse_request,
    reply_template,
    request_frame,
    response_frame,
)
from polygraphmr.store import ArtifactStore

_ids = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.", min_size=1, max_size=24
)
_models = _ids
_samples = st.lists(st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=32)
_deadlines = st.one_of(
    st.none(),
    st.floats(min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False).map(float),
)


@st.composite
def classify_requests(draw) -> ServeRequest:
    return ServeRequest(
        id=draw(_ids),
        model=draw(_models),
        samples=tuple(draw(_samples)),
        deadline_ms=draw(_deadlines),
    )


@st.composite
def classify_dicts(draw) -> dict:
    """Always-valid classify wire mappings (the raw-JSON view)."""

    d: dict = {
        "id": draw(_ids),
        "model": draw(_models),
        "samples": draw(_samples),
    }
    if draw(st.booleans()):
        d["deadline_ms"] = draw(
            st.floats(min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False)
        )
    return d


class TestCodecFixedPoint:
    @given(classify_requests())
    def test_parse_of_serialize_is_a_fixed_point(self, request_):
        frame = request_frame(request_)
        assert frame.endswith(b"\n")
        again = parse_request(frame[:-1])
        assert again == request_
        assert request_frame(again) == frame

    @given(st.sampled_from(["ping", "metrics"]), st.one_of(st.just(""), _ids))
    def test_op_frames_round_trip(self, op, rid):
        request_ = ServeRequest(id=rid, op=op)
        assert parse_request(request_frame(request_)[:-1]) == request_

    @given(classify_dicts())
    def test_key_order_never_matters(self, d):
        shuffled = dict(reversed(list(d.items())))
        assert parse_request(json.dumps(shuffled)) == parse_request(json.dumps(d))

    @given(classify_dicts())
    def test_parse_accepts_bytes_and_str_identically(self, d):
        text = json.dumps(d)
        assert parse_request(text) == parse_request(text.encode("utf-8"))


class TestMalformedFramesNameTheField:
    @given(classify_dicts(), st.sampled_from(["id", "model", "samples", "deadline_ms"]))
    def test_structurally_wrong_value_names_the_exact_field(self, d, field):
        corrupted = {**d, field: {"not": "valid"}}
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps(corrupted))
        assert exc_info.value.field == f"request.{field}"
        assert exc_info.value.reason == "bad-type"

    @given(classify_dicts(), _ids)
    def test_unknown_fields_are_rejected_by_name(self, d, extra_key):
        if extra_key in ("id", "model", "samples", "deadline_ms", "op"):
            return
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps({**d, extra_key: 1}))
        assert exc_info.value.field == f"request.{extra_key}"
        assert exc_info.value.reason == "unknown-field"

    @given(classify_dicts(), st.integers(min_value=0, max_value=31), st.integers(max_value=-1))
    def test_negative_sample_is_named_by_index(self, d, pos, bad):
        samples = list(d["samples"])
        pos = pos % len(samples)
        samples[pos] = bad
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps({**d, "samples": samples}))
        assert exc_info.value.field == f"request.samples[{pos}]"
        assert exc_info.value.reason == "out-of-range"

    @given(classify_dicts(), st.integers(min_value=0, max_value=31), st.sampled_from([True, False, 1.5, "7", None]))
    def test_non_integer_sample_is_named_by_index(self, d, pos, bad):
        samples = list(d["samples"])
        pos = pos % len(samples)
        samples[pos] = bad
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps({**d, "samples": samples}))
        assert exc_info.value.field == f"request.samples[{pos}]"
        assert exc_info.value.reason == "bad-type"

    @given(classify_dicts(), st.sampled_from(["model", "samples"]))
    def test_missing_required_field_is_named(self, d, field):
        del d[field]
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps(d))
        assert exc_info.value.field == f"request.{field}"
        assert exc_info.value.reason == "missing-field"

    @given(classify_dicts(), st.sampled_from([0, 0.0, -1, -0.5, float("nan"), float("inf")]))
    def test_non_positive_or_non_finite_deadline_is_rejected(self, d, bad):
        text = json.dumps({**d, "deadline_ms": bad}, allow_nan=True)
        with pytest.raises(ConfigError) as exc_info:
            parse_request(text)
        assert exc_info.value.field == "request.deadline_ms"
        assert exc_info.value.reason == "out-of-range"

    @given(st.sampled_from(["ping", "metrics"]), st.sampled_from(["model", "samples", "deadline_ms"]))
    def test_classify_fields_are_rejected_on_admin_ops(self, op, field):
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps({"op": op, field: 1}))
        assert exc_info.value.field == f"request.{field}"
        assert exc_info.value.reason == "unexpected-field"

    @given(st.text(max_size=64))
    def test_non_json_or_non_object_frames_blame_the_request(self, text):
        try:
            decoded = json.loads(text)
        except json.JSONDecodeError:
            decoded = ...  # not JSON at all
        if isinstance(decoded, dict):
            return
        with pytest.raises(ConfigError) as exc_info:
            parse_request(text)
        assert exc_info.value.field == "request"
        assert exc_info.value.reason in ("bad-json", "not-an-object")

    def test_bad_utf8_and_oversize_limits(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_request(b"\xff\xfe{}")
        assert (exc_info.value.field, exc_info.value.reason) == ("request", "bad-utf8")
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps({"id": "x" * (MAX_ID_CHARS + 1), "model": "m", "samples": [0]}))
        assert (exc_info.value.field, exc_info.value.reason) == ("request.id", "too-long")
        with pytest.raises(ConfigError) as exc_info:
            parse_request(
                json.dumps({"id": "r", "model": "m", "samples": [0] * (MAX_SAMPLES_PER_REQUEST + 1)})
            )
        assert (exc_info.value.field, exc_info.value.reason) == ("request.samples", "too-many")


class TestFrameAssembly:
    @given(
        st.lists(classify_requests(), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=60)
    def test_reassembly_across_arbitrary_chunk_splits(self, requests, data):
        """However the byte stream is sliced, the assembler yields exactly
        the original frames, in order, each parseable back to its request."""

        stream = b"".join(request_frame(r) for r in requests)
        cuts = sorted(
            data.draw(
                st.lists(st.integers(min_value=0, max_value=len(stream)), max_size=16),
                label="cuts",
            )
        )
        chunks, prev = [], 0
        for cut in [*cuts, len(stream)]:
            chunks.append(stream[prev:cut])
            prev = cut

        assembler = FrameAssembler()
        frames = [frame for chunk in chunks for frame in assembler.feed(chunk)]
        assert assembler.pending_bytes == 0
        assert frames == [request_frame(r)[:-1] for r in requests]
        assert [parse_request(f) for f in frames] == requests

    @given(st.integers(min_value=1, max_value=64))
    def test_unterminated_oversize_frame_poisons_the_connection(self, limit):
        assembler = FrameAssembler(max_frame_bytes=limit)
        with pytest.raises(ServeError) as exc_info:
            assembler.feed(b"x" * (limit + 1))
        assert exc_info.value.reason == "frame-too-large"
        # a terminated frame of any length under the bound is still fine
        ok = FrameAssembler(max_frame_bytes=limit)
        assert ok.feed(b"y" * limit + b"\n") == [b"y" * limit]


# text the encoder must escape: quotes, backslashes, control characters,
# non-ASCII, and lone surrogates as ``json.loads`` yields them from
# ``\ud800``-style escapes
_LONE_SURROGATES = [json.loads(r'"\ud800"'), json.loads(r'"\udbff"'), json.loads(r'"\udfff"')]
_awkward_text = st.lists(
    st.one_of(
        st.text(max_size=3),
        st.sampled_from(
            ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "/", "é", "\u2028", "\U0001f600", *_LONE_SURROGATES]
        ),
    ),
    max_size=6,
).map("".join)
_breaker_maps = st.dictionaries(_awkward_text, st.sampled_from(["open", "half-open", "closed"]), max_size=4)
N_ROWS = 6
N_CLASSES = 3


@st.composite
def stanzas(draw) -> dict:
    degraded = draw(st.booleans())
    return {
        "outcome": "degraded" if degraded else "ok",
        "model": draw(_awkward_text),
        "members": draw(st.lists(_awkward_text, max_size=4)),
        "degraded": degraded,
        "shed": sorted(draw(st.lists(_awkward_text, max_size=3))),
        "missing": draw(st.lists(_awkward_text, max_size=3)),
        "quarantined": draw(st.dictionaries(_awkward_text, _awkward_text, max_size=3)),
    }


def _requests(max_row: int, model: str = "m"):
    """Requests with awkward ids and sample lists that repeat rows within a
    request and across requests."""

    return st.lists(
        st.builds(
            lambda rid, samples: ServeRequest(id=rid, model=model, samples=tuple(samples)),
            _awkward_text,
            st.lists(st.integers(min_value=0, max_value=max_row), min_size=1, max_size=8),
        ),
        min_size=1,
        max_size=5,
    )


class TestSpliceIsCanonicalJson:
    @given(
        stanzas(),
        _breaker_maps,
        _requests(N_ROWS - 1),
        st.lists(st.floats(width=32), min_size=N_ROWS * N_CLASSES, max_size=N_ROWS * N_CLASSES),
        st.lists(st.integers(min_value=0, max_value=N_CLASSES - 1), min_size=N_ROWS, max_size=N_ROWS),
        st.lists(st.integers(min_value=0, max_value=1), min_size=N_ROWS, max_size=N_ROWS),
        st.data(),
    )
    def test_spliced_frame_equals_response_frame(self, stanza, breakers, requests, values, labels, bits, data):
        """Whatever the stanza, breaker map, ids and rows (NaN and infinite
        probabilities included), and however the rows were warmed, the
        spliced frame is byte for byte the canonical JSON of the payload."""

        probs = np.array(values, dtype=np.float32).reshape(N_ROWS, N_CLASSES)
        predictions = np.array(labels, dtype=np.int64)
        flags = np.array(bits, dtype=np.int64)
        memo = RowMemo(N_ROWS)
        split = data.draw(st.integers(min_value=0, max_value=len(requests)), label="warmed first")
        for batch in (requests[:split], requests[split:]):
            cold = memo.cold(batch)
            assert cold.tolist() == sorted({i for r in batch for i in r.samples if memo.probs[i] is None})
            memo.fill(cold, probs[cold], predictions[cold], flags[cold])

        template = reply_template(stanza)
        breakers_text = json.dumps(breakers, sort_keys=True, separators=(",", ":"))
        for request in requests:
            rows = list(request.samples)
            payload = {
                "id": request.id,
                **stanza,
                "probs": probs[rows].tolist(),
                "predictions": predictions[rows].tolist(),
                "flags": flags[rows].tolist(),
                "breakers": breakers,
            }
            assert memo.frame(template, breakers_text, request) == response_frame(payload)

    @given(
        st.sets(st.sampled_from(["pp-Hist", "pp-FlipX", "replica-001"])),
        _breaker_maps,
        st.lists(_requests(159, "tinynet"), min_size=1, max_size=3),
    )
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_service_reply_frames_equal_the_serial_payloads(self, synthetic_cache, shed, breakers, batches):
        """Through real sessions, full and derived: each member set's
        served entry sheds exactly the base members it does not serve, and
        batches served from its row memo (cold rows evaluated per batch,
        warm ones reused across batches) give the frames of the dict-based
        serial reference."""

        service = PolygraphService(ArtifactStore(synthetic_cache))
        reference = PolygraphService(ArtifactStore(synthetic_cache))
        members = service.base_session("tinynet").members
        active = [m for m in members if m not in shed]
        served = service.served("tinynet", active)
        assert served.stanza["shed"] == sorted(set(members) - set(active))
        assert service.served("tinynet", list(active)) is served
        for batch in batches:
            frames = served.frames(batch, breakers)
            payloads = reference.evaluate_requests("tinynet", batch, active=active, breaker_states=breakers)
            assert frames == [response_frame(p) for p in payloads]
