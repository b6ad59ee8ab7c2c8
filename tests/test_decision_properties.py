"""Property-based check of the gate's AUC against a pairwise oracle.

``_rank_auc`` computes the Mann-Whitney statistic from average ranks over
tie groups; :func:`tests.oracles.pairwise_auc` counts every (positive,
negative) pair directly.  Both are exact in float64 (the rank sum and the
pair count are half-integers), so they must agree bit for bit — on heavy
ties, single-class targets and NaN scores alike.  The oracle never looks at
row order, so agreement also proves ``_rank_auc`` does not.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from polygraphmr.decision import _rank_auc  # noqa: E402, PLC2701 - checking the internal

from . import oracles  # noqa: E402

# a few levels make ties the rule, not the exception; NaN is one more level
_score = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, np.nan]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)
_label = st.sampled_from([0.0, 1.0])


@st.composite
def _scored_targets(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    scores = np.array(draw(st.lists(_score, min_size=n, max_size=n)), dtype=np.float64)
    # single-class targets are drawn on purpose: AUC is 0.5 there by definition
    targets = draw(st.one_of(_label.map(lambda y: [y] * n), st.lists(_label, min_size=n, max_size=n)))
    return scores, np.array(targets)


@given(_scored_targets())
def test_rank_auc_matches_pairwise_oracle(case):
    scores, targets = case
    assert _rank_auc(scores, targets) == oracles.pairwise_auc(scores, targets)
