"""Property-based checks of the metrics-shard merge.

The campaign folds per-worker metric shards with
:func:`polygraphmr.metrics.merge_registries`, which claims an exact,
order-independent merge: counters and histogram bucket counts are integer
additions, gauges fold with ``max``, and histogram sums fold with
``math.fsum`` over every component at once.  Hypothesis drives random shard
populations against those claims — commutativity, associativity and
conserved totals.
"""

from __future__ import annotations

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from polygraphmr.metrics import MetricsRegistry, merge_registries  # noqa: E402

BOUNDS = (0.001, 0.01, 0.1, 1.0, 10.0)

_counter_rows = st.dictionaries(
    st.sampled_from(["loads_total", "trials_total", "skips_total"]),
    st.dictionaries(
        st.sampled_from([("result", "hit"), ("result", "miss"), ("outcome", "ok")]),
        st.integers(min_value=0, max_value=1_000),
        max_size=3,
    ),
    max_size=3,
)

_observations = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
    max_size=30,
)

_gauges = st.dictionaries(
    st.sampled_from(["workers", "completed"]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    max_size=2,
)


@st.composite
def registries(draw) -> MetricsRegistry:
    reg = MetricsRegistry()
    for name, labelled in draw(_counter_rows).items():
        for (lk, lv), n in labelled.items():
            reg.counter(name, **{lk: lv}).inc(n)
    for name, value in draw(_gauges).items():
        reg.gauge(name).set(value)
    h = reg.histogram("lat", buckets=BOUNDS)
    for v in draw(_observations):
        h.observe(v)
    return reg


def _equal_exact(a: MetricsRegistry, b: MetricsRegistry) -> None:
    """Integer state must match exactly; float sums to fsum tolerance."""

    da, db = a.to_dict(), b.to_dict()
    assert da["counters"] == db["counters"]
    assert da["gauges"] == db["gauges"]
    assert len(da["histograms"]) == len(db["histograms"])
    for ra, rb in zip(da["histograms"], db["histograms"]):
        assert (ra["name"], ra["labels"]) == (rb["name"], rb["labels"])
        assert ra["bounds"] == rb["bounds"]
        assert ra["bucket_counts"] == rb["bucket_counts"]
        assert ra["count"] == rb["count"]
        assert math.isclose(ra["sum"], rb["sum"], rel_tol=1e-12, abs_tol=1e-12)


class TestMergeAlgebra:
    @given(registries(), registries())
    def test_merge_is_commutative(self, a, b):
        _equal_exact(merge_registries([a, b]), merge_registries([b, a]))

    @given(registries(), registries(), registries())
    def test_merge_is_associative(self, a, b, c):
        left = merge_registries([merge_registries([a, b]), c])
        right = merge_registries([a, merge_registries([b, c])])
        _equal_exact(left, right)
        _equal_exact(left, merge_registries([a, b, c]))

    @given(st.lists(registries(), min_size=1, max_size=5))
    def test_totals_are_conserved(self, shards):
        merged = merge_registries(shards)
        for name in ("loads_total", "trials_total", "skips_total"):
            assert merged.counter_total(name) == sum(s.counter_total(name) for s in shards)
        h = merged.histogram_for("lat")
        parts = [s.histogram_for("lat") for s in shards]
        assert h.count == sum(p.count for p in parts)
        for i in range(len(BOUNDS) + 1):
            assert h.bucket_counts[i] == sum(p.bucket_counts[i] for p in parts)
        assert math.isclose(
            h.sum, math.fsum(p.sum for p in parts), rel_tol=1e-12, abs_tol=1e-12
        )
        for name in ("workers", "completed"):
            assert merged.gauge_value(name) == max(s.gauge_value(name) for s in shards)

    @given(registries())
    def test_merge_of_single_shard_is_identity(self, a):
        _equal_exact(merge_registries([a]), a)

    @given(registries(), registries())
    def test_serialisation_commutes_with_merge(self, a, b):
        """Merging JSON round-tripped shards equals round-tripping the merge —
        what makes worker shard files a faithful transport."""

        via_files = merge_registries(
            [MetricsRegistry.from_dict(a.to_dict()), MetricsRegistry.from_dict(b.to_dict())]
        )
        _equal_exact(via_files, merge_registries([a, b]))
