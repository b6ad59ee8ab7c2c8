"""Artifact integrity validation.

The seed ``.repro_cache`` demonstrates why this layer exists: every ``.npz``
in it was truncated mid-file by the capture pipeline (zip local headers are
squashed and the end-of-central-directory record points past EOF), so a bare
``np.load`` raises ``BadZipFile``/``EOFError``/``zlib.error`` depending on
where the cut landed.  Validation here converts that zoo of failure modes
into a single :class:`~polygraphmr.errors.ArtifactCorrupt` with a structured
reason code, and layers semantic checks (simplex, finiteness, dtype) on top
as :class:`~polygraphmr.errors.IntegrityMismatch`.
"""

from __future__ import annotations

import io
import struct
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArtifactCorrupt, ArtifactMissing, IntegrityMismatch, RetryPolicy, retry_with_backoff

__all__ = [
    "EndOfCentralDirectory",
    "read_bytes",
    "find_eocd",
    "validate_zip_container",
    "load_npz_validated",
    "check_probs",
    "check_weights",
]

ZIP_MAGIC = b"PK\x03\x04"
EOCD_MAGIC = b"PK\x05\x06"
SIMPLEX_ATOL = 1e-3


@dataclass(frozen=True)
class EndOfCentralDirectory:
    """Parsed end-of-central-directory record of a zip container."""

    offset: int  # where the EOCD signature sits in the file
    n_total: int  # member count the archive claims
    cd_size: int
    cd_offset: int

    @property
    def consistent(self) -> bool:
        """Whether the claimed central directory fits before the EOCD —
        false for the mid-file truncation pattern in the seed cache."""

        return self.cd_offset + self.cd_size <= self.offset


def find_eocd(data: bytes) -> EndOfCentralDirectory | None:
    """Locate and parse the EOCD record, or ``None`` when absent/unparseable."""

    at = data.rfind(EOCD_MAGIC)
    if at < 0 or at + 22 > len(data):
        return None
    # EOCD layout: sig(4) disk(2) cd_disk(2) n_here(2) n_total(2) cd_size(4) cd_offset(4)
    n_total = struct.unpack_from("<H", data, at + 10)[0]
    cd_size, cd_offset = struct.unpack_from("<II", data, at + 12)
    return EndOfCentralDirectory(offset=at, n_total=n_total, cd_size=cd_size, cd_offset=cd_offset)


def read_bytes(path: str | Path, *, policy: RetryPolicy | None = None) -> bytes:
    """Read a file with bounded retry on transient IO errors.

    A missing file is *not* transient: it raises :class:`ArtifactMissing`
    immediately rather than burning retry attempts.
    """

    p = Path(path)
    if not p.is_file():
        raise ArtifactMissing(p)
    return retry_with_backoff(p.read_bytes, path=p, policy=policy)


def validate_zip_container(path: str | Path, *, data: bytes | None = None) -> None:
    """Structurally validate a zip container without decompressing members.

    Checks, in order: non-empty, zip magic, EOCD record present, EOCD's
    central-directory offset within the file, and that ``zipfile`` can parse
    the directory and its members pass CRC.  Each failure raises
    :class:`ArtifactCorrupt` with a distinct reason code, so the audit
    report can say *how* a file is broken, not just that it is.
    """

    p = Path(path)
    if data is None:
        data = read_bytes(p)
    if len(data) == 0:
        raise ArtifactCorrupt(p, "empty", "0-byte file")
    if not data.startswith(ZIP_MAGIC):
        raise ArtifactCorrupt(p, "bad-magic", f"header={data[:4].hex()}")
    eocd = find_eocd(data)
    if eocd is None:
        raise ArtifactCorrupt(p, "no-eocd", "end-of-central-directory record missing")
    if not eocd.consistent:
        raise ArtifactCorrupt(
            p,
            "truncated",
            f"central directory claims offset={eocd.cd_offset} size={eocd.cd_size} "
            f"but EOCD sits at {eocd.offset} (bytes cut from the middle)",
        )
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            bad = zf.testzip()
    except (zipfile.BadZipFile, zlib.error, EOFError, OSError, ValueError) as exc:
        raise ArtifactCorrupt(p, "bad-zip", repr(exc)) from exc
    if bad is not None:
        raise ArtifactCorrupt(p, "bad-crc", f"member {bad!r} fails CRC")


def load_npz_validated(
    path: str | Path,
    *,
    expect_keys: tuple[str, ...] | None = None,
    policy: RetryPolicy | None = None,
) -> dict[str, np.ndarray]:
    """Load an ``.npz`` defensively, returning plain ``{name: array}``.

    Raises :class:`ArtifactCorrupt` on any container/parse failure and
    :class:`IntegrityMismatch` when ``expect_keys`` are absent.  Arrays are
    fully materialised so the file handle never leaks into caller state.
    """

    p = Path(path)
    data = read_bytes(p, policy=policy)
    validate_zip_container(p, data=data)
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            arrays = {name: np.asarray(npz[name]) for name in npz.files}
    except (ValueError, OSError, zipfile.BadZipFile, zlib.error, EOFError, KeyError) as exc:
        raise ArtifactCorrupt(p, "bad-npy", repr(exc)) from exc
    if expect_keys is not None:
        missing = [k for k in expect_keys if k not in arrays]
        if missing:
            raise IntegrityMismatch(p, "missing-keys", f"absent: {missing}, present: {sorted(arrays)}")
    return arrays


def check_probs(arr: np.ndarray, *, path: str | Path = "<memory>") -> np.ndarray:
    """Validate a probability matrix: 2-D float, finite, rows on the simplex.

    Returns the array as ``float64`` on success.
    """

    if arr.ndim != 2:
        raise IntegrityMismatch(path, "probs-bad-shape", f"expected 2-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.floating):
        raise IntegrityMismatch(path, "probs-bad-dtype", f"expected float, got {arr.dtype}")
    out = arr.astype(np.float64, copy=False)
    if not np.isfinite(out).all():
        raise IntegrityMismatch(path, "probs-not-finite", "NaN or Inf present")
    if (out < -SIMPLEX_ATOL).any() or (out > 1 + SIMPLEX_ATOL).any():
        raise IntegrityMismatch(path, "probs-out-of-range", "entries outside [0, 1]")
    row_sums = out.sum(axis=1)
    worst = float(np.abs(row_sums - 1.0).max()) if len(row_sums) else 0.0
    if worst > SIMPLEX_ATOL:
        raise IntegrityMismatch(path, "probs-not-simplex", f"max |row_sum - 1| = {worst:.3g}")
    return out


def check_weights(arrays: dict[str, np.ndarray], *, path: str | Path = "<memory>") -> dict[str, np.ndarray]:
    """Validate a weights bundle: non-empty, every tensor float and finite."""

    if not arrays:
        raise IntegrityMismatch(path, "weights-empty", "no tensors in archive")
    for name, arr in arrays.items():
        if not np.issubdtype(arr.dtype, np.floating):
            raise IntegrityMismatch(path, "weights-bad-dtype", f"tensor {name!r} has dtype {arr.dtype}")
        if not np.isfinite(arr).all():
            raise IntegrityMismatch(path, "weights-not-finite", f"tensor {name!r} has NaN/Inf")
    return arrays

