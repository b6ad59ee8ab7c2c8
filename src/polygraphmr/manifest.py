"""Available-vs-expected artifact manifests for a model cache directory."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["ArtifactStatus", "ArtifactRecord", "ModelManifest", "CacheManifest"]

SPLITS = ("val", "test")

# status values an ArtifactRecord may carry
VALID = "valid"
CORRUPT = "corrupt"
MISSING = "missing"


@dataclass(frozen=True)
class ArtifactStatus:
    """One of ``valid`` / ``corrupt`` / ``missing`` plus the reason code."""

    status: str
    reason: str = ""
    detail: str = ""


@dataclass(frozen=True)
class ArtifactRecord:
    """Identity + health of one expected artifact file."""

    model: str
    stem: str  # ORG | pp-* | replica-*
    kind: str  # "probs" | "weights"
    split: str | None  # val/test for probs, None for weights
    filename: str
    status: ArtifactStatus

    @property
    def ok(self) -> bool:
        return self.status.status == VALID


def expected_filenames(stem: str) -> list[tuple[str, str | None, str]]:
    """(kind, split, filename) triples every submodel stem should provide."""

    names = [("probs", split, f"{stem}.{split}.probs.npz") for split in SPLITS]
    names.append(("weights", None, f"{stem}.weights.npz"))
    return names


@dataclass
class ModelManifest:
    """Health report for one model's artifact directory."""

    model: str
    records: list[ArtifactRecord] = field(default_factory=list)
    greedy: dict[str, list[str]] = field(default_factory=dict)  # greedy-k -> stems
    unexpected: list[str] = field(default_factory=list)  # files not in the roster

    def by_status(self, status: str) -> list[ArtifactRecord]:
        return [r for r in self.records if r.status.status == status]

    @property
    def n_valid(self) -> int:
        return len(self.by_status(VALID))

    @property
    def n_corrupt(self) -> int:
        return len(self.by_status(CORRUPT))

    @property
    def n_missing(self) -> int:
        return len(self.by_status(MISSING))

    def usable_stems(self, *, splits: Iterable[str] = SPLITS) -> list[str]:
        """Stems whose probs artifacts are valid for *all* requested splits."""

        wanted = tuple(splits)
        ok: dict[str, set[str]] = {}
        for r in self.records:
            if r.kind == "probs" and r.ok and r.split is not None:
                ok.setdefault(r.stem, set()).add(r.split)
        return sorted(s for s, got in ok.items() if all(w in got for w in wanted))

    def present_stems(self) -> list[str]:
        """Stems with at least one file on disk (valid *or* corrupt).

        This is the honest planning set for the ensemble runtime: a stem
        whose artifacts exist but are corrupt must be attempted (and then
        reported quarantined/missing), not silently dropped from the plan.
        """

        return sorted({r.stem for r in self.records if r.status.status != MISSING})

    def quarantined(self) -> list[ArtifactRecord]:
        return self.by_status(CORRUPT)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "valid": self.n_valid,
            "corrupt": self.n_corrupt,
            "missing": self.n_missing,
            "usable_stems": self.usable_stems(),
            "greedy": self.greedy,
            "unexpected": self.unexpected,
            "records": [
                {
                    "stem": r.stem,
                    "kind": r.kind,
                    "split": r.split,
                    "file": r.filename,
                    "status": r.status.status,
                    "reason": r.status.reason,
                }
                for r in self.records
            ],
        }


@dataclass
class CacheManifest:
    """Health report across every model directory in a cache root."""

    root: str
    models: dict[str, ModelManifest] = field(default_factory=dict)

    @property
    def n_valid(self) -> int:
        return sum(m.n_valid for m in self.models.values())

    @property
    def n_corrupt(self) -> int:
        return sum(m.n_corrupt for m in self.models.values())

    @property
    def n_missing(self) -> int:
        return sum(m.n_missing for m in self.models.values())

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "totals": {
                "valid": self.n_valid,
                "corrupt": self.n_corrupt,
                "missing": self.n_missing,
            },
            "models": {name: m.to_dict() for name, m in sorted(self.models.items())},
        }
