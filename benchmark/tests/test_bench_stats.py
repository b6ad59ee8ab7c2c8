from __future__ import annotations

import pytest
from stats import median, percentile, samples_beyond, top_percentile


@pytest.mark.parametrize(
    ("n", "expected"),
    [
        (19, None),  # even the median would have only 9 samples above it
        (20, 50.0),
        (100, 90.0),
        (999, 95.0),  # 9 above p99: one short
        (1000, 99.0),
        (10_000, 99.9),
        (100_000, 99.99),
    ],
)
def test_top_percentile_keeps_ten_samples_beyond(n, expected):
    assert top_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert median(values) == 2.5
    assert percentile(values, 25) == pytest.approx(1.75)


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)
