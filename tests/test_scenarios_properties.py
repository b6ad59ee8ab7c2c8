"""Property tests for scenario round-tripping: parse → canonicalize → hash
stability, exact-field-path rejection of corrupted configs, and built-in
determinism under arbitrary seeds."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygraphmr.errors import ConfigError
from polygraphmr.faults import FAULT_MODELS, SURFACES
from polygraphmr.scenarios import SCENARIO_FIELDS, builtin_scenarios, parse_scenario

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.", min_size=1, max_size=24
)
_rates = st.floats(min_value=0.001, max_value=1.0, allow_nan=False).map(float)


@st.composite
def scenario_dicts(draw) -> dict:
    """Always-valid scenario mappings spanning every surface × kind."""

    surface = draw(st.sampled_from(SURFACES))
    kind = draw(st.sampled_from(FAULT_MODELS))
    d: dict = {
        "name": draw(_names),
        "surface": surface,
        "kind": kind,
        "target": draw(st.sampled_from(["probs", "weights"])),
    }
    if surface == "element":
        d["count"] = draw(st.integers(min_value=1, max_value=64))
    else:
        d["rate"] = draw(_rates)
    if kind == "gaussian":
        d["sigma"] = draw(_rates)
    if kind == "quantize":
        d["step"] = draw(_rates)
    return d


class TestCanonicalizationProperties:
    @given(scenario_dicts())
    def test_parse_canonicalize_hash_is_stable(self, d):
        """parse → canonical → parse is a fixed point, and the hash only
        depends on the canonical form — not on input key order."""

        s = parse_scenario(d)
        again = parse_scenario(s.canonical())
        assert again == s
        assert again.config_hash() == s.config_hash()
        shuffled = dict(reversed(list(d.items())))
        assert parse_scenario(shuffled).config_hash() == s.config_hash()

    @given(scenario_dicts())
    def test_canonical_json_is_loadable_and_complete(self, d):
        s = parse_scenario(d)
        decoded = json.loads(s.canonical_json())
        assert set(decoded) == set(SCENARIO_FIELDS)
        assert decoded["name"] == d["name"]

    @given(scenario_dicts(), st.sampled_from(sorted(SCENARIO_FIELDS)))
    def test_corruption_is_rejected_with_the_exact_field_path(self, d, field):
        """Replacing any field with a structurally wrong value must raise
        ConfigError naming that field (or a field it conflicts with)."""

        corrupted = {**parse_scenario(d).canonical(), field: object()}
        with pytest.raises(ConfigError) as exc_info:
            parse_scenario(corrupted, source="fuzz.json")
        assert exc_info.value.field.startswith("fuzz.json: scenario.")

    @given(scenario_dicts(), _names)
    def test_unknown_fields_are_rejected_by_name(self, d, extra_key):
        if extra_key in SCENARIO_FIELDS:
            return
        with pytest.raises(ConfigError) as exc_info:
            parse_scenario({**d, extra_key: 1})
        assert exc_info.value.field == f"scenario.{extra_key}"
        assert exc_info.value.reason == "unknown-field"


class TestBuiltinDeterminismProperties:
    @settings(max_examples=25)
    @given(
        st.sampled_from(sorted(builtin_scenarios())),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_every_builtin_is_byte_deterministic_under_any_seed(self, name, seed):
        scenario = builtin_scenarios()[name]
        arr = np.random.default_rng(7).random((24, 10))
        pristine = arr.copy()
        a = scenario.fault(seed).apply_batch(arr[None])[0]
        b = scenario.fault(seed).apply_batch(arr[None])[0]
        assert a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(arr, pristine)  # mutation-free
        assert scenario.fault(seed).describe() == scenario.fault(seed).describe()
