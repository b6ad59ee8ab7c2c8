"""Declarative fault-injection scenarios.

A *scenario* is a named, frozen description of one injection experiment:
which **surface** the fault lands on (whole tensor, a fraction of last-axis
channels, or an exact count of addressed elements), which **fault model**
perturbs the selected cells (IEEE-754 bit-flip, additive gaussian,
quantization-style rounding, stuck-at-0/1), which **target** tensor is hit
(member probabilities, or the decision gate's fitted weight vector), and at
what rate/intensity.  Scenarios are parsed from JSON or TOML files,
validated at construction (:class:`~polygraphmr.errors.ConfigError` names
the exact offending field), and identified by the SHA-256 of their
canonical JSON — the hash the campaign journal records per trial and mixes
into the chain genesis, so a sweep's identity covers *what* was injected,
not just how many times.

~9 named built-in scenarios ship alongside this module (the ``*.json`` /
``*.toml`` files in this directory); list them with
:func:`builtin_scenarios` or ``python -m polygraphmr.faults --list-scenarios``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..errors import ConfigError
from ..faults import FAULT_MODELS, SURFACES, FaultDraw, _apply_batch, _require_number, draw_fault, fault_dtype
from ..journal import canonical_json, sha256_hex

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: stdlib tomllib is 3.11+
    tomllib = None

__all__ = [
    "TARGETS",
    "SCENARIO_FIELDS",
    "Scenario",
    "ScenarioFault",
    "parse_scenario",
    "load_scenario_file",
    "builtin_scenarios",
    "get_builtin",
    "resolve_scenarios",
]

TARGETS = ("probs", "weights")

#: Every key a scenario mapping may carry, in canonical order.
SCENARIO_FIELDS = ("name", "surface", "kind", "target", "rate", "sigma", "step", "count")

_REQUIRED_FIELDS = ("name", "surface", "kind")


@dataclass(frozen=True)
class Scenario:
    """One validated, immutable fault-injection scenario.

    Construction *is* validation: every constraint violation raises
    :class:`~polygraphmr.errors.ConfigError` with the exact field path
    (``scenario.rate``, ``scenario.kind``, ...), a machine-readable reason
    code, and an actionable detail string.  A ``Scenario`` that exists is a
    scenario that can run.
    """

    name: str
    surface: str  # "tensor" | "channel" | "element"
    kind: str  # "bitflip" | "gaussian" | "quantize" | "stuck0" | "stuck1"
    target: str = "probs"  # "probs" | "weights"
    rate: float = 0.0  # tensor/channel surfaces: fraction selected
    sigma: float = 0.0  # gaussian: noise stddev
    step: float = 0.0  # quantize: rounding grid
    count: int = 0  # element surface: exact cells addressed

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError("scenario.name", "bad-type", f"expected a non-empty string, got {self.name!r}")
        if any(c.isspace() or c == "/" for c in self.name):
            raise ConfigError(
                "scenario.name", "bad-name", f"got {self.name!r}; names must be slug-like (no spaces or '/')"
            )
        if self.surface not in SURFACES:
            raise ConfigError(
                "scenario.surface",
                "unknown-surface",
                f"got {self.surface!r}; known surfaces: {', '.join(SURFACES)}",
            )
        if self.kind not in FAULT_MODELS:
            raise ConfigError(
                "scenario.kind", "unknown-kind", f"got {self.kind!r}; known kinds: {', '.join(FAULT_MODELS)}"
            )
        if self.target not in TARGETS:
            raise ConfigError(
                "scenario.target", "unknown-target", f"got {self.target!r}; known targets: {', '.join(TARGETS)}"
            )
        _require_number("scenario.rate", self.rate, low=0.0, high=1.0)
        _require_number("scenario.sigma", self.sigma, low=0.0)
        _require_number("scenario.step", self.step, low=0.0)
        if isinstance(self.count, bool) or not isinstance(self.count, int) or self.count < 0:
            raise ConfigError("scenario.count", "bad-type", f"expected an integer >= 0, got {self.count!r}")

        # Surface/model coupling: every parameter the scenario carries must
        # matter, so a typo'd config cannot silently describe a no-op sweep.
        if self.surface == "element":
            if self.count < 1:
                raise ConfigError(
                    "scenario.count", "missing-field", "element surface needs count >= 1 addressed cells"
                )
            if self.rate != 0.0:
                raise ConfigError(
                    "scenario.rate", "conflicting-field", "element surface addresses by count, not rate"
                )
        else:
            if self.rate <= 0.0:
                raise ConfigError(
                    "scenario.rate", "missing-field", f"{self.surface} surface needs rate in (0, 1]"
                )
            if self.count != 0:
                raise ConfigError(
                    "scenario.count", "conflicting-field", f"{self.surface} surface selects by rate, not count"
                )
        if self.kind == "gaussian" and self.sigma <= 0.0:
            raise ConfigError("scenario.sigma", "missing-field", "gaussian kind needs sigma > 0")
        if self.kind != "gaussian" and self.sigma != 0.0:
            raise ConfigError("scenario.sigma", "conflicting-field", f"{self.kind} kind does not use sigma")
        if self.kind == "quantize" and self.step <= 0.0:
            raise ConfigError("scenario.step", "missing-field", "quantize kind needs step > 0 (e.g. 0.0625 for 4-bit)")
        if self.kind != "quantize" and self.step != 0.0:
            raise ConfigError("scenario.step", "conflicting-field", f"{self.kind} kind does not use step")

    def canonical(self) -> dict:
        """The scenario as a plain dict with every field, in schema order."""

        return {
            "name": self.name,
            "surface": self.surface,
            "kind": self.kind,
            "target": self.target,
            "rate": float(self.rate),
            "sigma": float(self.sigma),
            "step": float(self.step),
            "count": int(self.count),
        }

    def canonical_json(self) -> str:
        """Canonical JSON encoding — the bytes the identity hash covers."""

        return canonical_json(self.canonical())

    def config_hash(self) -> str:
        """SHA-256 of the canonical JSON: the scenario's journalled identity."""

        return sha256_hex(self.canonical_json())

    def fault(self, seed: int) -> "ScenarioFault":
        """Bind this scenario to a trial seed, yielding an applicable fault."""

        return ScenarioFault(self, seed)


@dataclass(frozen=True)
class ScenarioFault:
    """A scenario bound to one trial's seed — the duck-typed fault object
    :func:`polygraphmr.faults.measure_degradation` consumes (``dtype`` /
    ``draw`` / ``apply_batch`` / ``describe`` / ``seed`` / ``target``),
    mirroring :class:`polygraphmr.faults.FaultSpec`."""

    scenario: Scenario
    seed: int = 0

    @property
    def target(self) -> str:
        return self.scenario.target

    @property
    def dtype(self) -> np.dtype:
        """The dtype the fault is injected in (:func:`~polygraphmr.faults.fault_dtype`)."""

        return fault_dtype(self.scenario.kind)

    def draw(self, shape: tuple[int, ...]) -> FaultDraw:
        """The scenario's :func:`~polygraphmr.faults.draw_fault` on one
        slice of ``shape``, from this fault's seed."""

        s = self.scenario
        return draw_fault(
            shape,
            surface=s.surface,
            kind=s.kind,
            rate=s.rate,
            sigma=s.sigma,
            step=s.step,
            count=s.count,
            seed=self.seed,
        )

    def apply_batch(self, stacked: np.ndarray) -> np.ndarray:
        """This fault's :meth:`draw` injected into a copy of every slice of
        ``stacked`` (:func:`~polygraphmr.faults._inject`); a single tensor
        is a batch of one (``fault.apply_batch(arr[None])[0]``)."""

        return _apply_batch(self, stacked)

    def describe(self) -> dict:
        """The journalled ``fault`` stanza: full scenario identity + seed."""

        return {"scenario": self.scenario.name, "scenario_sha256": self.scenario.config_hash(), **self.scenario.canonical(), "seed": self.seed}


def parse_scenario(data: object, *, source: str = "") -> Scenario:
    """Validate a decoded JSON/TOML mapping into a :class:`Scenario`.

    ``source`` (usually the file path) prefixes every error's field path, so
    a malformed config in a sweep of many files is pinpointed exactly:
    ``scenarios/quantize-4bit.toml: scenario.step: missing-field (...)``.
    """

    prefix = f"{source}: " if source else ""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{prefix}scenario", "bad-type", f"expected a mapping, got {type(data).__name__}")
    for key in data:
        if key not in SCENARIO_FIELDS:
            raise ConfigError(
                f"{prefix}scenario.{key}",
                "unknown-field",
                f"known fields: {', '.join(SCENARIO_FIELDS)}",
            )
    for key in _REQUIRED_FIELDS:
        if key not in data:
            raise ConfigError(f"{prefix}scenario.{key}", "missing-field", "required")
    try:
        return Scenario(**dict(data))
    except ConfigError as exc:
        if prefix:
            raise ConfigError(f"{prefix}{exc.field}", exc.reason, exc.detail) from None
        raise


def _loads_toml(text: str) -> dict:
    if tomllib is not None:
        return tomllib.loads(text)
    # Python 3.10 fallback: flat `key = value` tables only — exactly what
    # scenario files use.  Full TOML needs the 3.11+ stdlib parser.
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key or not value:
            raise ValueError(f"line {lineno}: expected `key = value`")
        if value.startswith('"'):
            out[key] = json.loads(value)
        elif value in ("true", "false"):
            out[key] = value == "true"
        else:
            out[key] = int(value) if value.lstrip("+-").isdigit() else float(value)
    return out


def load_scenario_file(path: str | Path) -> Scenario:
    """Parse one scenario config file (``.json`` or ``.toml``)."""

    path = Path(path)
    suffix = path.suffix.lower()
    if suffix not in (".json", ".toml"):
        raise ConfigError(str(path), "unknown-format", "scenario files must be .json or .toml")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(str(path), "unreadable", repr(exc)) from None
    try:
        data = json.loads(text) if suffix == ".json" else _loads_toml(text)
    except ValueError as exc:  # JSONDecodeError and TOMLDecodeError both subclass it
        raise ConfigError(str(path), "unparseable", str(exc)) from None
    return parse_scenario(data, source=str(path))


@lru_cache(maxsize=1)
def builtin_scenarios() -> dict[str, Scenario]:
    """The named built-in scenario library, keyed by name, sorted.

    Every ``*.json``/``*.toml`` file shipped next to this module is one
    scenario; its file stem must equal its ``name`` so the library cannot
    drift from the filenames users pass on the command line.
    """

    here = Path(__file__).resolve().parent
    out: dict[str, Scenario] = {}
    for path in sorted(here.glob("*.json")) + sorted(here.glob("*.toml")):
        scenario = load_scenario_file(path)
        if scenario.name != path.stem:
            raise ConfigError(
                f"{path}: scenario.name", "name-mismatch", f"file stem {path.stem!r} != name {scenario.name!r}"
            )
        out[scenario.name] = scenario
    return dict(sorted(out.items()))


def get_builtin(name: str) -> Scenario:
    """Look up one built-in scenario by name; unknown names list the library."""

    library = builtin_scenarios()
    if name not in library:
        raise ConfigError(
            "scenario.name", "unknown-scenario", f"got {name!r}; built-ins: {', '.join(library)}"
        )
    return library[name]


def resolve_scenarios(specs: Sequence[str]) -> list[Scenario]:
    """Resolve a mixed list of built-in names and config-file paths.

    A spec containing a path separator or a ``.json``/``.toml`` suffix is
    loaded as a file; anything else is a built-in name.  Duplicate scenario
    names in one sweep are rejected — the cross-scenario report keys rows by
    name, so duplicates would silently merge unrelated trials.
    """

    out: list[Scenario] = []
    seen: set[str] = set()
    for spec in specs:
        if "/" in spec or spec.lower().endswith((".json", ".toml")):
            scenario = load_scenario_file(spec)
        else:
            scenario = get_builtin(spec)
        if scenario.name in seen:
            raise ConfigError("scenarios", "duplicate-name", f"scenario {scenario.name!r} listed twice")
        seen.add(scenario.name)
        out.append(scenario)
    return out
