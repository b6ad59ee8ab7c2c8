"""Tamper-evident, hash-chained campaign journal (format v4).

The journal is the campaign subsystem's write-ahead evidence trail, and
PolygraphMR's reliability claims rest on it — so the format must be
*verifiable by distrustful parties* (pvCNN), not merely trusted.  v2 sealed
each record with its own SHA-256, which catches bit rot but not a dropped,
reordered, or spliced record: nothing bound records to each other.  v3
closes that gap with a hash chain:

* **Sealed records.**  Every line is one JSON object whose ``sha256`` field
  is the SHA-256 of the canonical JSON of everything else in the record.
  Sealing is byte-stable: re-sealing a record read back from a journal
  reproduces the original line exactly — the property the shard merger's
  byte-identity guarantee relies on.
* **Chained records.**  Every record also carries ``prev``: the seal hash
  of the record before it.  The first record links to a *genesis hash*
  derived from the campaign config (:func:`chain_genesis`), so a journal is
  cryptographically rooted in the campaign that produced it.  Altering any
  committed record breaks its own seal; re-sealing it breaks the next
  record's ``prev``; re-linking the whole suffix changes the chain head,
  which every checkpoint seals (see :func:`polygraphmr.campaign.checkpoint_payload`).
* **Per-shard chains.**  A parallel worker's shard is its own chain rooted
  at ``chain_genesis(config_sha, shard=worker_id)`` — same config root,
  disjoint genesis per worker.  :func:`merge_journal` folds shards back
  into the canonical journal by re-linking every record in index order from
  the canonical genesis, which reproduces a serial run's bytes exactly.

Crash-tolerance is unchanged from v2: appends are single-write + fsync, so
a crash can only tear the *final* line, and reading forgives exactly that.
A well-sealed record with the wrong ``prev`` can never be produced by a
crash, so a broken link anywhere — even on the last line — is tampering
and raises.  :func:`walk_chain` is the stricter auditor's walk used by
``python -m polygraphmr.campaign verify``: it forgives nothing and reports
the exact first offending line.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CampaignError

__all__ = [
    "JOURNAL_NAME",
    "CHECKPOINT_NAME",
    "JOURNAL_VERSION",
    "VERIFIABLE_VERSIONS",
    "canonical_json",
    "sha256_hex",
    "config_chain_hash",
    "chain_genesis",
    "seal_record",
    "ChainIssue",
    "walk_chain",
    "CampaignJournal",
    "shard_name",
    "shard_journals",
    "CampaignState",
    "scan_campaign",
    "merge_journal",
    "write_checkpoint",
    "read_checkpoint",
    "load_checkpoint",
]

JOURNAL_NAME = "journal.jsonl"
CHECKPOINT_NAME = "checkpoint.json"
JOURNAL_VERSION = 4
# formats ``campaign verify`` audits; ``--resume`` extends only JOURNAL_VERSION.
# v3 and v4 share the chain and seal rules; v4 trials carry the six-feature
# Newton-fitted gate's metrics, so a v3 journal can be audited, not extended
VERIFIABLE_VERSIONS = (3, 4)

_SHARD_RE = re.compile(r"^journal\.w(\d{2,})\.jsonl$")


def canonical_json(obj: dict) -> str:
    """The canonical serialisation every hash in the format is taken over."""

    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_chain_hash(config_dict: dict) -> str:
    """SHA-256 of the canonical JSON of a campaign config dict — the root
    every chain in that campaign's directory is derived from."""

    return sha256_hex(canonical_json(config_dict))


def chain_genesis(
    config_sha: str | None = None, *, shard: int | None = None, version: int = JOURNAL_VERSION
) -> str:
    """The genesis hash a journal chain of format ``version`` starts from.

    The canonical journal uses ``shard=None``; worker shard ``NN`` uses
    ``shard=NN`` — every chain in a campaign directory is rooted in the same
    config hash but no shard's chain can be passed off as another's.
    ``config_sha=None`` is the anonymous genesis for journals with no
    campaign identity (tests, ad-hoc logs).  The format version is part of
    the root, so a chain cannot be passed off as another version's.
    """

    return sha256_hex(canonical_json({"chain": version, "config_sha256": config_sha, "shard": shard}))


def seal_record(record: dict, prev: str) -> tuple[str, str]:
    """Chain-link and seal one record: returns ``(line, seal)``.

    Any stale ``prev``/``sha256`` on the input (e.g. a record read back for
    re-linking during a merge) is discarded; the seal is the SHA-256 of the
    canonical JSON of the record *including* its fresh ``prev``, so the seal
    hash doubles as the chain link the next record carries.  Sealing is
    byte-stable: sealing a read-back record with the same ``prev``
    reproduces the original line.
    """

    payload = {k: v for k, v in record.items() if k not in ("sha256", "prev")}
    payload["prev"] = prev
    seal = sha256_hex(canonical_json(payload))
    payload["sha256"] = seal
    return json.dumps(payload, sort_keys=True), seal


def _parse_sealed(line: bytes) -> tuple[dict | None, str | None, str | None]:
    """``(payload, seal, bad_reason)`` for one journal line.

    The returned payload keeps ``prev`` (it is part of the record's chained
    identity) but has the verified ``sha256`` stripped.
    """

    try:
        payload = json.loads(line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None, None, "journal-unparseable-line"
    if not isinstance(payload, dict):
        return None, None, "journal-bad-checksum"
    claimed = payload.pop("sha256", None)
    if claimed != sha256_hex(canonical_json(payload)):
        return None, None, "journal-bad-checksum"
    return payload, claimed, None


@dataclass(frozen=True)
class ChainIssue:
    """The exact first offending line found by :func:`walk_chain`."""

    path: str
    line: int  # 1-based line number in the file
    reason: str
    detail: str = ""


def walk_chain(
    path: str | Path, genesis: str | None = None
) -> tuple[list[dict], list[str], ChainIssue | None]:
    """Strict audit walk: ``(verified records, their seals, first issue)``.

    Unlike :meth:`CampaignJournal.scan`, nothing is forgiven: a torn or
    unterminated final line, a seal failure, a broken link, and (when
    ``genesis`` is given) a first record not rooted at the genesis hash all
    stop the walk with a :class:`ChainIssue` naming the exact first bad
    line.  The records and seals returned are the verified prefix before
    that line.
    """

    p = Path(path)
    records: list[dict] = []
    chain: list[str] = []
    if not p.is_file():
        return records, chain, None
    raw = p.read_bytes()
    if not raw:
        return records, chain, None
    lines = raw.split(b"\n")
    for i, line in enumerate(lines[:-1]):
        payload, seal, bad = _parse_sealed(line)
        detail = ""
        if bad is None:
            expected = chain[-1] if chain else genesis
            if expected is not None and payload.get("prev") != expected:
                bad = "journal-chain-broken"
                linked = str(payload.get("prev"))[:12]
                want = "the genesis hash" if not chain else "the previous record's seal"
                detail = f"prev {linked}… does not link to {want} {expected[:12]}…"
        if bad is not None:
            if not detail:
                detail = (
                    "line is not valid JSON"
                    if bad == "journal-unparseable-line"
                    else "record fails its sha256 seal"
                )
            return records, chain, ChainIssue(str(p), i + 1, bad, detail)
        records.append(payload)
        chain.append(seal)
    if lines[-1]:
        return records, chain, ChainIssue(
            str(p),
            len(lines),
            "journal-torn-tail",
            "unterminated final line (crash-torn write); resume or repair the campaign "
            "before auditing",
        )
    return records, chain, None


class CampaignJournal:
    """Append-only JSONL write-ahead journal of chained, sealed records.

    The same class backs the canonical ``journal.jsonl`` and the per-worker
    shards (``journal.wNN.jsonl``) of a parallel run — one chained-record
    format everywhere; only the ``genesis`` each chain is rooted at differs.
    """

    def __init__(self, path: str | Path, *, genesis: str | None = None):
        self.path = Path(path)
        self.genesis = genesis if genesis is not None else chain_genesis()
        self._head: str | None = None  # cached chain head; None = unknown

    @property
    def head(self) -> str:
        """The current chain head (the genesis hash for an empty journal)."""

        if self._head is None:
            _, chain = self.scan()
            if self._head is None:  # scan only caches when the file is clean
                return chain[-1] if chain else self.genesis
        return self._head

    def prime_head(self, head: str) -> None:
        """Install an externally computed head (e.g. after a shard merge
        rewrote the file) without re-reading the journal."""

        self._head = head

    def append(self, record: dict) -> None:
        """Durably append one chained record: :meth:`append_many` of one."""

        self.append_many([record])

    def append_many(self, records: list[dict]) -> list[str]:
        """Durably append a run of chained records with one write + fsync.

        The first append after opening an existing journal reads it to
        recover the chain head, repairing any crash-torn tail so the new
        records land on a clean line; a journal whose committed history
        fails verification refuses the append (scan raises).

        Byte-identical to appending the records one at a time — each
        record is sealed against the previous one's hash in order — but the
        batch runner's window flush pays the open/flush/fsync cost once per
        window instead of once per trial.  A crash mid-write tears at most
        the final line (appends are sequential), which :meth:`scan` already
        forgives.  An empty sequence is a no-op.

        Returns each record's seal in order (the chain segment just
        written), so a caller reporting per-record progress can name the
        chain head *as of that record* rather than the batch's final head.
        """

        records = list(records)
        if not records:
            return []
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self._head is None:
            _, chain = self.scan(repair=True)
            self._head = chain[-1] if chain else self.genesis
        head = self._head
        lines = []
        seals = []
        for record in records:
            line, head = seal_record(record, head)
            lines.append(line)
            seals.append(head)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._head = head
        return seals

    def scan(self, *, repair: bool = False) -> tuple[list[dict], list[str]]:
        """``(verified records, their seal hashes)``.

        A torn or corrupt *final* line is dropped — that is exactly the
        crash-mid-append this journal exists to survive.  Seal damage
        anywhere earlier means committed history was altered and raises
        :class:`CampaignError`; so does a broken chain link *anywhere*,
        including the final line, because no crash can produce a well-sealed
        record whose ``prev`` doesn't match its predecessor.  The first
        record's link to the genesis hash is deliberately not checked here
        (a scan doesn't know the campaign config); root checks live in
        :func:`polygraphmr.campaign.seal_finding`, the one rule set both
        ``--resume`` and ``campaign verify`` apply.

        With ``repair=True`` a torn tail is also truncated off the file so
        the next append starts on a fresh line.
        """

        if not self.path.is_file():
            self._head = self.genesis
            return [], []
        records: list[dict] = []
        chain: list[str] = []
        raw = self.path.read_bytes()
        lines = raw.split(b"\n")
        offset = 0
        for i, line in enumerate(lines):
            if i == len(lines) - 1:
                # ``line`` is whatever follows the last "\n" (b"" when the
                # file ends cleanly).  The trailing newline is what commits
                # an append, so even a checksum-valid tail here is a torn
                # write: drop it — counting it would leave the file without
                # a terminator and make the *next* append glue onto it.
                break
            payload, seal, bad = _parse_sealed(line)
            if bad is None and chain and payload.get("prev") != chain[-1]:
                bad = "journal-chain-broken"
            if bad is not None:
                if bad != "journal-chain-broken" and i >= len(lines) - 2:
                    break  # last line, torn (with or without the final \n)
                raise CampaignError(bad, f"{self.path} line {i + 1}")
            records.append(payload)
            chain.append(seal)
            offset += len(line) + 1
        if repair and offset < len(raw):
            with open(self.path, "r+b") as fh:
                fh.truncate(offset)
                fh.flush()
                os.fsync(fh.fileno())
        if repair or offset == len(raw):
            # only cache the head when the file ends exactly at the verified
            # prefix — appending after un-truncated torn bytes would glue
            self._head = chain[-1] if chain else self.genesis
        return records, chain

    def read(self) -> list[dict]:
        return self.scan()[0]

    def repair_tail(self) -> list[dict]:
        """Drop any torn final line *from the file itself* so the next append
        starts on a fresh line; returns the surviving records."""

        return self.scan(repair=True)[0]

    def trial_records(self) -> dict[int, dict]:
        return {r["index"]: r for r in self.read() if r.get("type") == "trial"}


# -- shards ----------------------------------------------------------------


def shard_name(worker: int) -> str:
    """Journal shard filename for one worker, e.g. ``journal.w03.jsonl``."""

    return f"journal.w{worker:02d}.jsonl"


def shard_journals(out_dir: str | Path) -> dict[int, CampaignJournal]:
    """Every journal shard in ``out_dir``, keyed by worker id."""

    out: dict[int, CampaignJournal] = {}
    d = Path(out_dir)
    if d.is_dir():
        for p in sorted(d.iterdir()):
            m = _SHARD_RE.match(p.name)
            if m:
                out[int(m.group(1))] = CampaignJournal(p)
    return out


@dataclass
class CampaignState:
    """Everything on disk about a campaign: the canonical journal plus any
    worker shards, deduplicated by trial index (canonical wins), with the
    verified chain seals of every file."""

    header: dict | None
    trials: dict[int, dict]
    canonical_records: int  # verified record count in journal.jsonl
    shard_counts: dict[int, int] = field(default_factory=dict)  # worker -> trial records
    canonical_chain: list[str] = field(default_factory=list)  # seal per canonical record
    shard_chains: dict[int, list[str]] = field(default_factory=dict)  # worker -> seals

    def complete(self, n_trials: int) -> bool:
        return all(i in self.trials for i in range(n_trials))


def scan_campaign(out_dir: str | Path, *, repair: bool = False) -> CampaignState:
    """Read the canonical journal *and* every shard; with ``repair=True``,
    torn tails are truncated in place (the resume path)."""

    canonical = CampaignJournal(Path(out_dir) / JOURNAL_NAME)
    records, chain = canonical.scan(repair=repair)
    header = records[0] if records and records[0].get("type") == "header" else None
    trials = {r["index"]: r for r in records if r.get("type") == "trial"}
    shard_counts: dict[int, int] = {}
    shard_chains: dict[int, list[str]] = {}
    for worker, shard in shard_journals(out_dir).items():
        shard_records, shard_chain = shard.scan(repair=repair)
        shard_trials = [r for r in shard_records if r.get("type") == "trial"]
        shard_counts[worker] = len(shard_trials)
        shard_chains[worker] = shard_chain
        for r in shard_trials:
            trials.setdefault(r["index"], r)
    return CampaignState(header, trials, len(records), shard_counts, chain, shard_chains)


def merge_journal(out_dir: str | Path, header: dict, trials: dict[int, dict]) -> tuple[Path, str]:
    """Fold shards into the canonical journal, **in index order**; returns
    ``(canonical path, final chain head)``.

    The canonical file is atomically *replaced* (tmp + fsync + ``os.replace``)
    with header + every trial record sorted by index, each record re-linked
    into one chain rooted at the canonical genesis derived from the header's
    config; only then are the shards deleted.  Until the replace lands, the
    shards remain the write-ahead source of truth, so a crash at any point
    loses nothing, and re-running the merge is idempotent.  Because sealing
    is byte-stable, re-linking is deterministic, and records carry no
    wall-clock data, the merged file is byte-identical to the journal a
    serial run writes.
    """

    out = Path(out_dir)
    path = out / JOURNAL_NAME
    cfg = header.get("config") if isinstance(header, dict) else None
    head = chain_genesis(config_chain_hash(cfg) if isinstance(cfg, dict) else None)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        for record in (header, *(trials[i] for i in sorted(trials))):
            line, head = seal_record(record, head)
            fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    for shard in shard_journals(out).values():
        shard.path.unlink(missing_ok=True)
    return path, head


# -- checkpoints -----------------------------------------------------------


def write_checkpoint(path: str | Path, payload: dict) -> None:
    """Atomically replace the checkpoint: tmp file + fsync + ``os.replace``."""

    p = Path(path)
    body = dict(payload)
    body["sha256"] = sha256_hex(canonical_json(payload))
    tmp = p.with_name(p.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(body, fh, sort_keys=True, indent=2)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, p)


def load_checkpoint(path: str | Path) -> tuple[dict | None, str | None]:
    """``(payload, problem)``: the checkpoint body, or why it is unusable.

    ``problem`` is ``None`` when the payload verified, ``"absent"`` when no
    file exists, and ``"checkpoint-invalid"`` when a file exists but is not
    a checksum-valid checkpoint — a distinction the auditor cares about
    (resume merely forfeits the cross-check; see :func:`read_checkpoint`).
    """

    p = Path(path)
    if not p.is_file():
        return None, "absent"
    try:
        body = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError, UnicodeDecodeError):
        return None, "checkpoint-invalid"
    if not isinstance(body, dict):
        return None, "checkpoint-invalid"
    claimed = body.pop("sha256", None)
    if claimed != sha256_hex(canonical_json(body)):
        return None, "checkpoint-invalid"
    return body, None


def read_checkpoint(path: str | Path) -> dict | None:
    """The checkpoint payload, or ``None`` when absent or checksum-invalid.

    The journal is the source of truth; an unreadable checkpoint merely
    forfeits the fast consistency cross-check.
    """

    return load_checkpoint(path)[0]
