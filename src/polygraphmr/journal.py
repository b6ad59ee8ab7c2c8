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
crash, so a broken link anywhere — even on the last line — is tampering.

:func:`walk_chain` is the only loop over journal lines: it stops at the
exact first offending line and says whether a crash could have left it
(:attr:`ChainIssue.crash`).  :func:`scan_campaign` is the one reader of a
campaign directory, behind ``--resume``, ``campaign verify`` and
``campaign report`` alike: it walks the canonical journal and every shard,
each from its own root, cross-checks trials journalled in more than one
place, and records what it found; its callers decide what to forgive.
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
    """The exact first offending line of a journal file (or, from
    :func:`scan_campaign`'s cross-file pass, of a trial record), or a file
    named like a shard that is not one (``line`` is ``None``)."""

    path: str
    line: int | None  # 1-based line number in the file; None when the whole file is the finding
    reason: str
    detail: str = ""
    offset: int = 0  # byte length of the verified prefix before ``line``
    crash: bool = False  # a crash mid-append could have left it: a torn final line

    def as_finding(self) -> tuple[str, int, str, str]:
        """``(file name, line, reason, detail)``, the form every audit rule reports."""

        return Path(self.path).name, self.line, self.reason, self.detail


def walk_chain(
    path: str | Path, genesis: str | None = None
) -> tuple[list[dict], list[str], ChainIssue | None]:
    """``(verified records, their seals, first issue)``: the one loop over
    journal lines.

    A seal failure, a broken link, (when ``genesis`` is given) a first
    record not rooted at the genesis hash, and an unterminated final line
    all stop the walk with a :class:`ChainIssue` naming the exact first bad
    line; the records and seals returned are the verified prefix before
    it.  Appends are sequential, so a crash can only leave the *final*
    line bad: unterminated, or terminated but failing its seal.  Such an
    issue is marked ``crash``; a broken link never is — no crash writes a
    well-sealed record with the wrong ``prev``.
    """

    p = Path(path)
    records: list[dict] = []
    chain: list[str] = []
    lines = (p.read_bytes() if p.is_file() else b"").split(b"\n")
    offset = 0
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
            unparseable = bad == "journal-unparseable-line"
            detail = detail or ("line is not valid JSON" if unparseable else "record fails its sha256 seal")
            crash = bad != "journal-chain-broken" and i == len(lines) - 2
            return records, chain, ChainIssue(str(p), i + 1, bad, detail, offset, crash)
        records.append(payload)
        chain.append(seal)
        offset += len(line) + 1
    if lines[-1]:  # the trailing newline commits an append: even a well-sealed line without one is torn
        detail = "unterminated final line (crash-torn write); resume or repair the campaign before auditing"
        return records, chain, ChainIssue(str(p), len(lines), "journal-torn-tail", detail, offset, True)
    return records, chain, None


def _truncate(path: str | Path, offset: int) -> None:
    """Cut a crash-torn tail off ``path`` so the next append starts on a fresh line."""

    with open(path, "r+b") as fh:
        fh.truncate(offset)
        fh.flush()
        os.fsync(fh.fileno())


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
        """``(verified records, their seal hashes)``: :func:`walk_chain`
        plus one rule.

        A crash issue (a torn final line — exactly the crash-mid-append this
        journal exists to survive) is dropped; with ``repair=True`` it is
        also truncated off the file so the next append starts on a fresh
        line.  Any other issue means committed history was altered and
        raises :class:`CampaignError`.  The first record's link to the
        genesis hash is not checked here (a scan doesn't know the campaign
        config); :func:`scan_campaign` and
        :func:`polygraphmr.campaign.seal_finding` check roots.
        """

        records, chain, issue = walk_chain(self.path)
        if issue is not None:
            if not issue.crash:
                raise CampaignError(issue.reason, f"{self.path} line {issue.line}")
            if repair:
                _truncate(self.path, issue.offset)
        if issue is None or repair:
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


def _shard_files(out_dir: str | Path) -> list[tuple[int, Path]]:
    """``(worker id, path)`` of every file in ``out_dir`` named like a shard."""

    d = Path(out_dir)
    if not d.is_dir():
        return []
    return [(int(m.group(1)), p) for p in sorted(d.iterdir()) if (m := _SHARD_RE.match(p.name))]


def shard_journals(out_dir: str | Path) -> dict[int, CampaignJournal]:
    """Every journal shard in ``out_dir``, keyed by worker id.

    A worker's shard is the file :func:`shard_name` names; another spelling
    of the same id (``journal.w007.jsonl`` for worker 7) is an alias, not a
    shard, and :func:`scan_campaign` reports it."""

    return {w: CampaignJournal(p) for w, p in _shard_files(out_dir) if p.name == shard_name(w)}


def _strip_links(record: dict) -> dict:
    """A record's chained identity minus its chain position — what must agree
    when the same trial appears in the canonical journal and a shard."""

    return {k: v for k, v in record.items() if k not in ("prev", "sha256")}


@dataclass
class CampaignState:
    """Everything on disk about a campaign, as :func:`scan_campaign` reads
    it: the verified prefix and chain seals of the canonical journal and of
    every worker shard, each trial's first record and where it lies, and
    what the reader found wrong."""

    header: dict | None
    canonical_chain: list[str] = field(default_factory=list)  # seal per verified canonical record
    shard_chains: dict[int, list[str]] = field(default_factory=dict)  # worker -> seals
    trials: dict[int, dict] = field(default_factory=dict)
    where: dict[int, tuple[str, int]] = field(default_factory=dict)  # index -> (file name, line)
    issues: list[ChainIssue] = field(default_factory=list)  # aliased shard names, first bad line per damaged file
    conflict: ChainIssue | None = None  # first cross-file finding

    @property
    def finding(self) -> ChainIssue | None:
        """The first thing wrong that no crash could have left, or ``None``."""

        return next((issue for issue in self.issues if not issue.crash), self.conflict)

    def raise_finding(self) -> None:
        """Raise :attr:`finding`, if any, as a :class:`CampaignError`."""

        if self.finding is not None:
            file, line, reason, detail = self.finding.as_finding()
            where = file if line is None else f"{file} line {line}"
            raise CampaignError(reason, f"{where}: {detail}")

    def repair(self) -> None:
        """Truncate every crash tail off its file; the verified prefixes stay."""

        for issue in self.issues:
            if issue.crash:
                _truncate(issue.path, issue.offset)
        self.issues = [issue for issue in self.issues if not issue.crash]

    def complete(self, n_trials: int) -> bool:
        return all(i in self.trials for i in range(n_trials))


def scan_campaign(out_dir: str | Path, *, repair: bool = False) -> CampaignState:
    """The one reader of a campaign directory.

    Walks the canonical journal, then every shard from its own genesis
    (derived from the header's config and format version), then cross-checks
    the verified records: after the header every record must be a trial with
    an integer index, no file may journal a trial twice, and a trial
    journalled in two files must be the same record minus its chain
    position.  A file named like a shard under another spelling of its
    worker id than :func:`shard_name`'s (``journal.w007.jsonl``) is not
    read; it is reported as ``journal-shard-alias``.  Nothing raises: each
    aliased name and each file's first bad line land in ``issues`` and the
    first cross-file finding in ``conflict``.  With ``repair=True`` crash tails are truncated
    (:meth:`CampaignState.repair`); without it they are reported.
    """

    records, chain, issue = walk_chain(Path(out_dir) / JOURNAL_NAME)
    header = records[0] if records and records[0].get("type") == "header" else None
    cfg, version = (header or {}).get("config"), (header or {}).get("version")
    config_sha = config_chain_hash(cfg) if isinstance(cfg, dict) else None
    # shards are rooted in the header's format version; the header rules refuse any other
    version = version if version in VERIFIABLE_VERSIONS else JOURNAL_VERSION
    state = CampaignState(header, chain, issues=[issue] if issue else [])
    for worker, path in _shard_files(out_dir):
        if path.name != shard_name(worker):
            detail = f"aliases worker {worker}'s shard {shard_name(worker)}; a shard is read only under that name"
            state.issues.append(ChainIssue(str(path), None, "journal-shard-alias", detail))
    files = [(JOURNAL_NAME, 2, records[1:])]  # (name, first line, records after any header)
    for worker, shard in sorted(shard_journals(out_dir).items()):
        genesis = None if config_sha is None else chain_genesis(config_sha, shard=worker, version=version)
        s_records, state.shard_chains[worker], s_issue = walk_chain(shard.path, genesis)
        state.issues += [s_issue] if s_issue else []
        files.append((shard.path.name, 1, s_records))
    # cross-file pass: index every trial by its first record; the first record
    # that is no trial, has no integer index, repeats a trial in its own file,
    # or disagrees with another file's record of the same trial is the conflict
    for name, first, file_records in files:
        for line, r in enumerate(file_records, start=first):
            idx = r.get("index")
            if r.get("type") != "trial":
                found = "journal-unknown-record", f"unexpected record type {r.get('type')!r}"
            elif type(idx) is not int:  # bool is an int subclass: True would alias trial 1
                found = "trial-out-of-range", f"trial index {idx!r} is not an integer"
            elif (where := state.where.get(idx)) is None:
                state.trials[idx], state.where[idx] = r, (name, line)
                continue
            elif where[0] == name:
                found = "journal-duplicate-trial", f"trial {idx!r} already journalled at {where[0]} line {where[1]}"
            elif _strip_links(r) != _strip_links(state.trials[idx]):
                found = "journal-record-conflict", f"trial {idx!r} disagrees with {where[0]} line {where[1]}"
            else:
                continue
            state.conflict = state.conflict or ChainIssue(name, line, *found)
    if repair:
        state.repair()
    return state


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
