"""Property-based fuzzing of journal recovery and chain auditing.

The v3 journal's contract has two layers:

* **Recovery** (``CampaignJournal.scan``): whatever bytes a crash (or bit
  rot) leaves behind, reading either yields a *verified prefix* of the
  records that were appended, or raises a typed :class:`CampaignError` —
  never a record that fails its seal, and never silently reordered or
  altered history.
* **Auditing** (``walk_chain``): under random truncation, byte-flips,
  record deletion, and record reordering, the audit walk localises the
  *exact first offending line* — and torn-tail repair never produces a
  journal that fails verification.

Hypothesis drives random damage against both, for the canonical journal
and for worker shards via :func:`scan_campaign`.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from polygraphmr.campaign import (  # noqa: E402
    JOURNAL_NAME,
    JOURNAL_VERSION,
    CampaignJournal,
    scan_campaign,
    shard_name,
)
from polygraphmr.journal import chain_genesis, walk_chain  # noqa: E402
from polygraphmr.errors import CampaignError  # noqa: E402

# journal payloads are arbitrary JSON objects; keep them small but varied
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def _record_lists(min_size: int) -> st.SearchStrategy:
    return st.lists(
        st.fixed_dictionaries(
            {"type": st.just("trial"), "index": st.integers(min_value=0, max_value=99)},
            optional={"payload": _json_values},
        ),
        min_size=min_size,
        max_size=5,
    )


_records = _record_lists(1)

_TYPED_REASONS = {"journal-bad-checksum", "journal-unparseable-line", "journal-chain-broken"}


def _strip_chain(record: dict) -> dict:
    """A read-back record minus its chain link — comparable to the input."""

    return {k: v for k, v in record.items() if k != "prev"}


def _write_journal(tmp: str, records: list[dict]) -> CampaignJournal:
    journal = CampaignJournal(Path(tmp) / "j.jsonl", genesis=chain_genesis("cafe" * 16))
    for record in records:
        journal.append(record)
    return journal


@settings(max_examples=40)
@given(records=_records)
def test_append_read_round_trip_and_chain_links(records):
    with tempfile.TemporaryDirectory() as tmp:
        journal = _write_journal(tmp, records)
        read_back = journal.read()
        assert [_strip_chain(r) for r in read_back] == records
        # the chain links: record 0 roots at the genesis, record i at seal i-1
        walked, chain, issue = walk_chain(journal.path, genesis=journal.genesis)
        assert issue is None
        assert walked == read_back
        assert read_back[0]["prev"] == journal.genesis
        for prev_seal, record in zip(chain, read_back[1:]):
            assert record["prev"] == prev_seal
        assert journal.head == chain[-1]


@settings(max_examples=60)
@given(records=_records, data=st.data())
def test_truncation_always_recovers_a_valid_prefix(records, data):
    """Truncation only ever removes the torn tail, so recovery must *never*
    raise — and after repair, the journal must audit clean and accept
    appends that keep the chain verifiable."""

    with tempfile.TemporaryDirectory() as tmp:
        journal = _write_journal(tmp, records)
        raw = journal.path.read_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(raw)), label="cut")
        journal.path.write_bytes(raw[:cut])

        recovered = journal.read()
        assert [_strip_chain(r) for r in recovered] == records[: len(recovered)]

        repaired = journal.repair_tail()
        assert repaired == recovered
        # repair never produces a journal that fails verification...
        _, _, issue = walk_chain(journal.path, genesis=journal.genesis)
        assert issue is None
        # ...and the next append lands on a clean line, still verifiable
        journal.append({"type": "trial", "index": 100})
        read_back = journal.read()
        assert [_strip_chain(r) for r in read_back] == [
            _strip_chain(r) for r in recovered
        ] + [{"type": "trial", "index": 100}]
        _, chain, issue = walk_chain(journal.path, genesis=journal.genesis)
        assert issue is None
        assert journal.head == chain[-1]


@settings(max_examples=60)
@given(records=_records, data=st.data())
def test_byte_flip_is_localised_to_the_exact_line(records, data):
    """A flipped byte anywhere either leaves a parse-identical line (benign
    whitespace flip) — in which case the audit passes untouched — or the
    audit walk stops at *exactly* the flipped line, returning the verified
    prefix before it.  Lenient reads stay prefix-or-typed-error."""

    with tempfile.TemporaryDirectory() as tmp:
        journal = _write_journal(tmp, records)
        raw = bytearray(journal.path.read_bytes())
        pristine = journal.read()
        pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1), label="pos")
        mask = data.draw(st.integers(min_value=1, max_value=255), label="mask")
        raw[pos] ^= mask
        journal.path.write_bytes(bytes(raw))

        # which 0-based line did the flip land in?  A flip on the file's
        # final newline byte leaves the last record unterminated, so the
        # post-flip split yields one fewer separator and the hit is the
        # (now torn) last line rather than any interior one.
        lines = bytes(raw).split(b"\n")
        acc, hit = 0, 0
        for k, line in enumerate(lines[:-1]):
            if pos < acc + len(line) + 1:
                hit = k
                break
            acc += len(line) + 1
        else:
            hit = len(lines) - 1

        walked, _, issue = walk_chain(journal.path, genesis=journal.genesis)
        if issue is None:
            # only a parse-identical flip (e.g. whitespace) can audit clean
            assert walked == pristine
        else:
            assert issue.line == hit + 1
            assert walked == pristine[:hit]

        try:
            recovered = journal.read()
        except CampaignError as exc:
            assert exc.reason in _TYPED_REASONS
        else:
            assert [_strip_chain(r) for r in recovered] == records[: len(recovered)]


@settings(max_examples=60)
@given(records=_record_lists(2), data=st.data())
def test_record_deletion_breaks_the_chain_at_the_gap(records, data):
    """Deleting any committed line is detectable: an interior deletion breaks
    the very next record's link; deleting the final record moves the chain
    head — which the checkpoint seal (and the saved head here) exposes."""

    with tempfile.TemporaryDirectory() as tmp:
        journal = _write_journal(tmp, records)
        _, seals, issue = walk_chain(journal.path, genesis=journal.genesis)
        assert issue is None
        lines = journal.path.read_bytes().split(b"\n")[:-1]
        j = data.draw(st.integers(min_value=0, max_value=len(lines) - 1), label="deleted")
        survivors = lines[:j] + lines[j + 1 :]
        journal.path.write_bytes(b"".join(line + b"\n" for line in survivors))

        walked, chain, issue = walk_chain(journal.path, genesis=journal.genesis)
        if j == len(lines) - 1:
            # a trimmed tail chains fine, but the head no longer matches
            assert issue is None
            assert (chain[-1] if chain else journal.genesis) != seals[-1]
            assert chain == seals[:-1]
        else:
            assert issue is not None
            assert issue.reason == "journal-chain-broken"
            assert issue.line == j + 1
            assert chain == seals[:j]
            assert len(walked) == j


@settings(max_examples=60)
@given(records=_record_lists(2), data=st.data())
def test_record_reordering_breaks_the_chain_at_the_first_moved_line(records, data):
    with tempfile.TemporaryDirectory() as tmp:
        journal = _write_journal(tmp, records)
        _, seals, _ = walk_chain(journal.path, genesis=journal.genesis)
        lines = journal.path.read_bytes().split(b"\n")[:-1]
        i = data.draw(st.integers(min_value=0, max_value=len(lines) - 2), label="i")
        j = data.draw(st.integers(min_value=i + 1, max_value=len(lines) - 1), label="j")
        lines[i], lines[j] = lines[j], lines[i]
        journal.path.write_bytes(b"".join(line + b"\n" for line in lines))

        walked, chain, issue = walk_chain(journal.path, genesis=journal.genesis)
        assert issue is not None
        assert issue.reason == "journal-chain-broken"
        assert issue.line == i + 1
        assert chain == seals[:i]
        assert len(walked) == i


@settings(max_examples=40)
@given(data=st.data())
def test_shard_damage_never_corrupts_the_merged_view(data):
    """scan_campaign over canonical + shards: damaging any one file either
    raises a typed error or yields a state in which every surviving trial
    record is exactly the one that was appended, each index once."""

    n = data.draw(st.integers(min_value=2, max_value=8), label="n_trials")
    workers = data.draw(st.integers(min_value=1, max_value=3), label="workers")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        header = {"type": "header", "version": JOURNAL_VERSION, "config": {"n_trials": n}}
        CampaignJournal(out / JOURNAL_NAME).append(header)
        originals: dict[int, dict] = {}
        for index in range(n):
            record = {"type": "trial", "index": index, "outcome": "ok", "spec": {"i": index}}
            originals[index] = record
            CampaignJournal(out / shard_name(index % workers)).append(record)

        files = sorted(p for p in out.iterdir() if p.suffix == ".jsonl")
        target = files[data.draw(st.integers(min_value=0, max_value=len(files) - 1), label="file")]
        raw = bytearray(target.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            target.write_bytes(bytes(raw[: data.draw(st.integers(0, len(raw)), label="cut")]))
        else:
            pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1), label="pos")
            raw[pos] ^= data.draw(st.integers(min_value=1, max_value=255), label="mask")
            target.write_bytes(bytes(raw))

        try:
            state = scan_campaign(out, repair=True)
        except CampaignError as exc:
            assert exc.reason in _TYPED_REASONS
        else:
            seen = sorted(state.trials)
            assert seen == sorted(set(seen))  # each index at most once
            for index, record in state.trials.items():
                assert _strip_chain(record) == originals[index]
