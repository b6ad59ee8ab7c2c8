from __future__ import annotations

import pytest
from serve_load import SLICE_S, sustained


def window(rates: list[float], latency_ms: list[float], cpu_ms_per_reply: list[float]) -> dict:
    replies = [int(rate * SLICE_S) for rate in rates]
    return {
        "slice_replies": replies,
        "slice_latencies_ms": [[ms] * count for ms, count in zip(latency_ms, replies)],
        "slice_cpu_s": [ms * count / 1000.0 for ms, count in zip(cpu_ms_per_reply, replies)],
    }


def test_bursts_in_a_quarter_of_the_slices_do_not_move_the_figures():
    steady = window([4000.0] * 12, [8.0] * 12, [0.25] * 12)
    bursty = window([4000.0] * 9 + [6000.0] * 3, [8.0] * 9 + [5.0] * 3, [0.25] * 9 + [0.17] * 3)
    assert sustained(bursty) == pytest.approx(sustained(steady))
    assert sustained(steady) == pytest.approx(
        {"goodput_per_s": 4000.0, "latency_p50_ms": 8.0, "latency_p90_ms": 8.0, "cpu_ms_per_op": 0.25}
    )


def test_a_stall_in_a_third_of_the_slices_shows():
    stalled = sustained(window([4000.0] * 8 + [1000.0] * 4, [8.0] * 8 + [30.0] * 4, [0.25] * 12))
    assert stalled["goodput_per_s"] < 4000.0
    assert stalled["latency_p50_ms"] > 8.0


def test_an_empty_slice_reads_as_zero_goodput_and_no_latency():
    figures = sustained(window([0.0] * 4 + [4000.0] * 8, [0.0] * 4 + [8.0] * 8, [0.0] * 4 + [0.25] * 8))
    assert figures["goodput_per_s"] < 4000.0
    assert figures["latency_p50_ms"] == pytest.approx(8.0)
