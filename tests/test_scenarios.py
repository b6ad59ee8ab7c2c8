"""Declarative scenarios: parsing, validation field paths, the built-in
library, multi-resolution injection semantics, and journalled identity."""

from __future__ import annotations

import json

import numpy as np
import pytest

from polygraphmr.errors import ConfigError
from polygraphmr.faults import (
    FAULT_MODELS,
    SURFACES,
    draw_fault,
    select_fault_indices,
)
from polygraphmr.scenarios import (
    Scenario,
    builtin_scenarios,
    get_builtin,
    load_scenario_file,
    parse_scenario,
    resolve_scenarios,
)


def _arr(shape=(20, 10), seed=0):
    return np.random.default_rng(seed).random(shape)


def _inject(scenario: Scenario, arr: np.ndarray, seed: int = 0) -> np.ndarray:
    """Inject ``scenario`` into a single tensor: a batch of one."""

    return scenario.fault(seed).apply_batch(arr[None])[0]


class TestScenarioValidation:
    def test_valid_scenario_constructs(self):
        s = Scenario("x", "tensor", "bitflip", rate=0.1)
        assert s.target == "probs"

    @pytest.mark.parametrize(
        ("kwargs", "field", "reason"),
        [
            (dict(name="", surface="tensor", kind="bitflip", rate=0.1), "scenario.name", "bad-type"),
            (dict(name="a b", surface="tensor", kind="bitflip", rate=0.1), "scenario.name", "bad-name"),
            (dict(name="x", surface="plane", kind="bitflip", rate=0.1), "scenario.surface", "unknown-surface"),
            (dict(name="x", surface="tensor", kind="rowhammer", rate=0.1), "scenario.kind", "unknown-kind"),
            (dict(name="x", surface="tensor", kind="bitflip", rate=0.1, target="bias"), "scenario.target", "unknown-target"),
            (dict(name="x", surface="tensor", kind="bitflip", rate=1.5), "scenario.rate", "out-of-range"),
            (dict(name="x", surface="tensor", kind="bitflip", rate="lots"), "scenario.rate", "bad-type"),
            (dict(name="x", surface="tensor", kind="gaussian", rate=0.1, sigma=-1.0), "scenario.sigma", "out-of-range"),
            (dict(name="x", surface="element", kind="bitflip", count=0), "scenario.count", "missing-field"),
            (dict(name="x", surface="element", kind="bitflip", count=2, rate=0.1), "scenario.rate", "conflicting-field"),
            (dict(name="x", surface="tensor", kind="bitflip", rate=0.0), "scenario.rate", "missing-field"),
            (dict(name="x", surface="channel", kind="bitflip", rate=0.1, count=3), "scenario.count", "conflicting-field"),
            (dict(name="x", surface="tensor", kind="gaussian", rate=0.1), "scenario.sigma", "missing-field"),
            (dict(name="x", surface="tensor", kind="bitflip", rate=0.1, sigma=0.5), "scenario.sigma", "conflicting-field"),
            (dict(name="x", surface="tensor", kind="quantize", rate=1.0), "scenario.step", "missing-field"),
            (dict(name="x", surface="tensor", kind="stuck0", rate=0.1, step=0.5), "scenario.step", "conflicting-field"),
        ],
    )
    def test_invalid_scenario_names_exact_field(self, kwargs, field, reason):
        with pytest.raises(ConfigError) as exc_info:
            Scenario(**kwargs)
        assert exc_info.value.field == field
        assert exc_info.value.reason == reason

    def test_unknown_kind_message_lists_known_kinds(self):
        with pytest.raises(ConfigError) as exc_info:
            Scenario("x", "tensor", "rowhammer", rate=0.1)
        for kind in FAULT_MODELS:
            assert kind in str(exc_info.value)

    def test_config_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            Scenario("x", "tensor", "bitflip", rate=2.0)


class TestParsing:
    def test_parse_rejects_unknown_field_with_source_prefix(self, tmp_path):
        with pytest.raises(ConfigError) as exc_info:
            parse_scenario(
                {"name": "x", "surface": "tensor", "kind": "bitflip", "rate": 0.1, "ratee": 0.2},
                source="sweep.json",
            )
        assert exc_info.value.field == "sweep.json: scenario.ratee"
        assert exc_info.value.reason == "unknown-field"

    def test_parse_rejects_missing_required_field(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_scenario({"name": "x", "kind": "bitflip"})
        assert exc_info.value.field == "scenario.surface"
        assert exc_info.value.reason == "missing-field"

    def test_parse_rejects_non_mapping(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_scenario(["not", "a", "mapping"])
        assert exc_info.value.reason == "bad-type"

    def test_construction_errors_gain_the_source_prefix(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_scenario(
                {"name": "x", "surface": "tensor", "kind": "bitflip", "rate": 7.0}, source="bad.toml"
            )
        assert exc_info.value.field == "bad.toml: scenario.rate"

    def test_load_json_and_toml_agree(self, tmp_path):
        j = tmp_path / "s.json"
        j.write_text(json.dumps({"name": "s", "surface": "channel", "kind": "bitflip", "rate": 0.25}))
        t = tmp_path / "s.toml"
        t.write_text('name = "s"\nsurface = "channel"\nkind = "bitflip"\nrate = 0.25\n')
        assert load_scenario_file(j) == load_scenario_file(t)
        assert load_scenario_file(j).config_hash() == load_scenario_file(t).config_hash()

    def test_load_rejects_unknown_suffix_and_garbage(self, tmp_path):
        bad = tmp_path / "s.yaml"
        bad.write_text("name: s")
        with pytest.raises(ConfigError) as exc_info:
            load_scenario_file(bad)
        assert exc_info.value.reason == "unknown-format"
        garbage = tmp_path / "s.json"
        garbage.write_text("{not json")
        with pytest.raises(ConfigError) as exc_info:
            load_scenario_file(garbage)
        assert exc_info.value.reason == "unparseable"
        assert str(garbage) in exc_info.value.field

    def test_missing_file_is_unreadable(self, tmp_path):
        with pytest.raises(ConfigError) as exc_info:
            load_scenario_file(tmp_path / "absent.json")
        assert exc_info.value.reason == "unreadable"


class TestBuiltinLibrary:
    def test_library_has_at_least_eight_unique_scenarios(self):
        library = builtin_scenarios()
        assert len(library) >= 8
        hashes = {s.config_hash() for s in library.values()}
        assert len(hashes) == len(library)

    def test_library_covers_the_acceptance_surfaces(self):
        library = builtin_scenarios()
        combos = {(s.surface, s.kind) for s in library.values()}
        assert ("channel", "bitflip") in combos
        assert any(kind == "quantize" for _, kind in combos)
        assert any(kind in ("stuck0", "stuck1") for _, kind in combos)
        assert any(s.target == "weights" for s in library.values())
        assert {s.surface for s in library.values()} == set(SURFACES)

    def test_every_builtin_is_deterministic_under_a_fixed_seed(self):
        arr = _arr((30, 10))
        for scenario in builtin_scenarios().values():
            a = _inject(scenario, arr, 123)
            b = _inject(scenario, arr, 123)
            assert a.tobytes() == b.tobytes(), scenario.name
            assert a.shape == arr.shape

    def test_get_builtin_unknown_lists_library(self):
        with pytest.raises(ConfigError) as exc_info:
            get_builtin("no-such-scenario")
        assert exc_info.value.reason == "unknown-scenario"
        assert "quantize-4bit" in str(exc_info.value)


class TestResolve:
    def test_mixes_names_and_paths(self, tmp_path):
        p = tmp_path / "mine.toml"
        p.write_text('name = "mine"\nsurface = "tensor"\nkind = "stuck1"\nrate = 0.05\n')
        out = resolve_scenarios(["quantize-4bit", str(p)])
        assert [s.name for s in out] == ["quantize-4bit", "mine"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError) as exc_info:
            resolve_scenarios(["quantize-4bit", "quantize-4bit"])
        assert exc_info.value.reason == "duplicate-name"


class TestInjectionSemantics:
    def test_channel_surface_hits_whole_columns(self):
        arr = _arr((50, 10))
        rng = np.random.default_rng(3)
        idx = select_fault_indices(arr.shape, "channel", rate=0.2, rng=rng)
        cols = np.unique(idx % arr.shape[-1])
        assert len(cols) == 2  # 20% of 10 channels
        assert len(idx) == 2 * arr.shape[0]  # every element of each hit column

    def test_element_surface_hits_exact_count(self):
        arr = _arr((6, 7))
        idx = select_fault_indices(arr.shape, "element", count=5, rng=np.random.default_rng(0))
        assert len(idx) == len(set(idx.tolist())) == 5
        oversized = select_fault_indices(arr.shape, "element", count=10_000, rng=np.random.default_rng(0))
        assert len(oversized) == arr.size  # clamped, never out of bounds

    def test_unknown_surface_and_kind_raise_config_error(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            select_fault_indices((4, 4), "plane", rate=0.5, rng=rng)
        with pytest.raises(ConfigError):
            draw_fault((20, 10), surface="tensor", kind="rowhammer", rate=0.5, seed=0)

    def test_injectors_never_mutate_input(self):
        arr = _arr((16, 8))
        pristine = arr.copy()
        _inject(Scenario("c", "channel", "bitflip", rate=0.5), arr, 1)
        _inject(Scenario("e", "element", "bitflip", count=9), arr, 1)
        _inject(Scenario("q", "tensor", "quantize", rate=1.0, step=0.125), arr, 1)
        _inject(Scenario("s", "tensor", "stuck1", rate=0.3), arr, 1)
        np.testing.assert_array_equal(arr, pristine)

    def test_quantize_snaps_to_grid(self):
        arr = _arr((12, 4))
        out = _inject(Scenario("q", "tensor", "quantize", rate=1.0, step=0.25), arr)
        np.testing.assert_allclose(out, np.round(arr / 0.25) * 0.25)

    def test_stuck_at_clamps_selected_cells(self):
        arr = np.full((10, 10), 0.5)
        out0 = _inject(Scenario("s0", "tensor", "stuck0", rate=0.2), arr, 2)
        out1 = _inject(Scenario("s1", "tensor", "stuck1", rate=0.2), arr, 2)
        assert (out0 == 0.0).sum() == 20
        assert (out1 == 1.0).sum() == 20
        # same seed, same selection: only the clamped value differs
        np.testing.assert_array_equal(out0 == 0.0, out1 == 1.0)

    def test_scenario_fault_describe_pins_identity(self):
        scenario = get_builtin("channel-bitflip-10pct")
        stanza = scenario.fault(77).describe()
        assert stanza["scenario"] == "channel-bitflip-10pct"
        assert stanza["scenario_sha256"] == scenario.config_hash()
        assert stanza["seed"] == 77
        assert stanza["surface"] == "channel"


class TestCanonicalIdentity:
    def test_hash_is_stable_across_key_order_and_formats(self):
        a = parse_scenario({"name": "x", "surface": "tensor", "kind": "bitflip", "rate": 0.5})
        b = parse_scenario({"rate": 0.5, "kind": "bitflip", "surface": "tensor", "name": "x"})
        assert a.canonical_json() == b.canonical_json()
        assert a.config_hash() == b.config_hash()

    def test_any_field_change_changes_the_hash(self):
        base = Scenario("x", "tensor", "bitflip", rate=0.5)
        assert base.config_hash() != Scenario("y", "tensor", "bitflip", rate=0.5).config_hash()
        assert base.config_hash() != Scenario("x", "tensor", "bitflip", rate=0.25).config_hash()
        assert base.config_hash() != Scenario("x", "channel", "bitflip", rate=0.5).config_hash()

    def test_canonical_round_trips_through_parse(self):
        for scenario in builtin_scenarios().values():
            again = parse_scenario(scenario.canonical())
            assert again == scenario
            assert again.config_hash() == scenario.config_hash()
