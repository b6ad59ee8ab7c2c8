from __future__ import annotations

import itertools
import threading

import pytest
import spans
from spans import SpanRecorder, covered_length, self_times


def test_covered_length_merges_overlaps_and_clips_to_parent():
    intervals = [(1, 3), (2, 5), (4, 6), (8, 12), (-1, 0.5), (11, 13)]
    # [0, 0.5] + [1, 6] + [8, 10]
    assert covered_length(0, 10, intervals) == pytest.approx(7.5)
    assert covered_length(0, 10, []) == 0.0


def test_self_time_subtracts_direct_children_only():
    tree = [
        (0, "parent", 0.0, 10.0, None),
        (1, "a", 1.0, 4.0, 0),
        (2, "b", 3.0, 6.0, 0),  # overlaps its sibling a on [3, 4]
        (3, "g", 2.0, 3.0, 1),  # nested in a: does not count against parent
        (4, "a", 7.0, 8.0, 0),
    ]
    out = self_times(tree)
    assert out["parent"] == (pytest.approx(10 - 6), 1)  # children cover [1, 6] and [7, 8]
    assert out["a"] == (pytest.approx((3 - 1) + 1), 2)
    assert out["b"] == (pytest.approx(3), 1)
    assert out["g"] == (pytest.approx(1), 1)


@pytest.fixture
def ticking_clock(monkeypatch):
    """perf_counter that advances by exactly 1 per call, thread-safely."""

    ticks = itertools.count()
    lock = threading.Lock()

    def clock() -> float:
        with lock:
            return float(next(ticks))

    monkeypatch.setattr(spans.time, "perf_counter", clock)


def test_recorder_nests_calls_on_one_thread(ticking_clock):
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda: inner())
    outer()  # outer [0, 3], inner [1, 2]
    assert recorder.drain() == {"outer": (2.0, 1), "inner": (1.0, 1)}
    assert recorder.spans == []


def test_span_on_a_spawned_thread_is_a_child_of_the_blocked_spawner(ticking_clock):
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda: None)

    def spawn_and_join():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    recorder.wrap("outer", spawn_and_join)()  # outer [0, 3], inner [1, 2]
    assert recorder.drain() == {"outer": (2.0, 1), "inner": (1.0, 1)}


def test_install_wraps_every_binding_of_a_function():
    import polygraphmr.batching as batching
    import polygraphmr.decision as decision
    import polygraphmr.faults as faults

    original_sanitize = faults.sanitize_probs_batch
    original_fit = decision.LogisticDecisionModule.fit
    patched = spans.install(SpanRecorder())
    try:
        assert faults.sanitize_probs_batch is not original_sanitize
        # batching bound it with `from .faults import sanitize_probs_batch`
        assert batching.sanitize_probs_batch is faults.sanitize_probs_batch
        assert faults.sanitize_probs_batch.__wrapped__ is original_sanitize
        assert decision.LogisticDecisionModule.fit.__wrapped__ is original_fit
    finally:
        spans.uninstall(patched)
    assert batching.sanitize_probs_batch is original_sanitize
    assert decision.LogisticDecisionModule.fit is original_fit
