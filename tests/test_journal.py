"""Journal v4 chain format and the `campaign verify` auditor.

Covers the sealing/linking primitives, chain-aware resume refusals,
actionable version-mismatch errors, verify's acceptance of v3 journals
(the committed ``tests/data/journal_v3`` directories, written by the last
v3 release) that ``--resume`` refuses, and the full verify walk: exit 0 on a
fresh campaign, exit 3 with the exact first offending record on chain
damage, exit 4 on a journal whose chain is intact but whose records do not
re-derive from the journalled config.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from pathlib import Path

import pytest

from polygraphmr.campaign import (
    CHECKPOINT_NAME,
    JOURNAL_NAME,
    JOURNAL_VERSION,
    CampaignConfig,
    CampaignRunner,
    config_from_dict,
    config_genesis,
    main,
    read_checkpoint,
    verify_campaign,
    write_checkpoint,
)
from polygraphmr.errors import CampaignError
from polygraphmr.journal import (
    CampaignJournal,
    chain_genesis,
    config_chain_hash,
    load_checkpoint,
    seal_record,
    sha256_hex,
    shard_journals,
    walk_chain,
)
from polygraphmr.metrics import get_registry
from polygraphmr.parallel import ParallelCampaignRunner
from polygraphmr.tracing import get_tracer


def _fake_trial(spec):
    return {"model": spec.model, "kind": spec.kind}


def _run_campaign(tmp_path, bare_cache, n_trials=3, **kwargs):
    config = CampaignConfig(cache=str(bare_cache()), n_trials=n_trials, seed=5)
    runner = CampaignRunner(config, tmp_path / "out", trial_fn=_fake_trial)
    runner.run(**kwargs)
    return config, tmp_path / "out"


def _interrupted_parallel_run(tmp_path, bare_cache):
    """A 2-worker campaign stopped mid-sweep, its shards left on disk."""

    def slow_trial(spec):
        time.sleep(0.15)
        return _fake_trial(spec)

    config = CampaignConfig(cache=str(bare_cache("m0", "m1")), n_trials=12, seed=5)
    runner = ParallelCampaignRunner(config, tmp_path / "out", workers=2, trial_fn=slow_trial)
    threading.Timer(0.2, runner.request_stop).start()
    summary = runner.run()
    assert summary["stopped_early"]
    return config, tmp_path / "out"


def _reforge(out, mutate):
    """Tamper with a journal the way a capable adversary would: apply
    ``mutate`` to the decoded records, re-seal and re-link the whole chain,
    and re-issue a checksum-valid checkpoint sealing the forged head."""

    path = out / JOURNAL_NAME
    records, _, issue = walk_chain(path)
    assert issue is None
    mutate(records)
    head = records[0]["prev"]  # keep the original (config-derived) genesis
    lines = []
    for record in records:
        line, head = seal_record(record, head)
        lines.append(line)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    checkpoint = read_checkpoint(out / CHECKPOINT_NAME)
    if checkpoint is not None:
        checkpoint["chain_head"] = head
        write_checkpoint(out / CHECKPOINT_NAME, checkpoint)


def _tamper_checkpoint(checkpoint: dict, case: str) -> None:
    """Apply one tamper ``case`` to a checkpoint body.  A serial checkpoint
    has no workers stanza, so a worker case first adds a mark claiming
    nothing journalled."""

    workers = checkpoint.setdefault("workers", {"00": {"journalled": 0}}) if "worker" in case else {}
    first = min(workers, default=None)
    if case == "worker-key-not-an-integer":
        workers["xx"] = workers.pop(first)
    elif case == "worker-mark-not-an-object":
        workers[first] = 7
    elif case == "worker-over-count":
        workers[first]["journalled"] += 1
    elif case == "worker-head-forged":
        workers[first]["journalled"] = max(workers[first]["journalled"], 1)
        workers[first]["chain_head"] = sha256_hex("forged")
    elif case == "canonical-head-forged":
        checkpoint["chain_head"] = sha256_hex("forged")
    else:
        name = {"journal-records-a-string": "journal_records", "completed-a-string": "completed"}[case]
        checkpoint[name] = str(checkpoint[name])


# tamper case -> the reason --resume and verify must both name; a forged
# worker head over a serial run's (absent) shard over-counts it instead
_TAMPER_REASONS = {
    "worker-key-not-an-integer": "checkpoint-invalid",
    "worker-mark-not-an-object": "checkpoint-invalid",
    "journal-records-a-string": "checkpoint-invalid",
    "completed-a-string": "checkpoint-invalid",
    "worker-over-count": "journal-behind-checkpoint",
    "worker-head-forged": {"serial": "journal-behind-checkpoint", "parallel": "journal-chain-broken"},
    "canonical-head-forged": "journal-chain-broken",
}


class TestChainPrimitives:
    def test_sealing_is_byte_stable(self):
        line, seal = seal_record({"type": "trial", "index": 0}, "aa" * 32)
        payload = json.loads(line)
        assert payload["prev"] == "aa" * 32
        assert payload["sha256"] == seal
        # re-sealing a read-back record reproduces the line exactly
        again, seal2 = seal_record(payload, "aa" * 32)
        assert (again, seal2) == (line, seal)

    def test_genesis_hashes_are_distinct_per_root_and_shard(self):
        sha = config_chain_hash({"seed": 1})
        heads = {
            chain_genesis(),
            chain_genesis(sha),
            chain_genesis(sha, shard=0),
            chain_genesis(sha, shard=1),
            chain_genesis(config_chain_hash({"seed": 2})),
        }
        assert len(heads) == 5

    def test_appends_link_each_record_to_its_predecessor(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl", genesis=chain_genesis("ab" * 32))
        journal.append({"type": "header"})
        journal.append({"type": "trial", "index": 0})
        records, chain, issue = walk_chain(journal.path, genesis=journal.genesis)
        assert issue is None
        assert records[0]["prev"] == journal.genesis
        assert records[1]["prev"] == chain[0]
        assert journal.head == chain[-1]

    def test_scan_raises_on_broken_link_even_at_the_tail(self, tmp_path):
        # a well-sealed record with the wrong prev cannot be a torn write
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.append({"type": "header"})
        line, _ = seal_record({"type": "trial", "index": 0}, sha256_hex("elsewhere"))
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(CampaignError) as exc_info:
            CampaignJournal(journal.path).read()
        assert exc_info.value.reason == "journal-chain-broken"

    def test_walk_chain_reports_torn_tail(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.append({"type": "header"})
        with open(journal.path, "ab") as fh:
            fh.write(b'{"torn')
        _, _, issue = walk_chain(journal.path)
        assert issue is not None
        assert issue.reason == "journal-torn-tail"
        assert issue.line == 2


class TestVerifyCampaign:
    def test_fresh_campaign_verifies(self, tmp_path, bare_cache):
        config, out = _run_campaign(tmp_path, bare_cache)
        report = verify_campaign(out)
        assert report["ok"]
        assert report["exit_code"] == 0
        assert report["status"] == "ok"
        assert report["records_verified"] == 4  # header + 3 trials
        assert report["trials"] == 3
        assert report["complete"]
        assert report["first_bad"] is None
        assert report["checkpoint"]["chain_head"] == report["chain_head"]

    def test_interrupted_campaign_still_verifies(self, tmp_path, bare_cache):
        _, out = _run_campaign(tmp_path, bare_cache, max_new_trials=2)
        report = verify_campaign(out)
        assert report["ok"]
        assert not report["complete"]
        assert report["trials"] == 2

    def test_single_flipped_byte_names_the_exact_record(self, tmp_path, bare_cache):
        _, out = _run_campaign(tmp_path, bare_cache)
        lines = (out / JOURNAL_NAME).read_bytes().splitlines(keepends=True)
        flipped = bytearray(lines[2])
        flipped[flipped.index(b'"outcome"') + 3] ^= 0x01  # inside committed history
        (out / JOURNAL_NAME).write_bytes(b"".join([lines[0], lines[1], bytes(flipped), *lines[3:]]))
        report = verify_campaign(out)
        assert report["exit_code"] == 3
        assert report["status"] == "chain-break"
        assert report["first_bad"]["file"] == JOURNAL_NAME
        assert report["first_bad"]["line"] == 3
        assert report["first_bad"]["record_index"] == 2
        assert report["first_bad"]["reason"] == "journal-bad-checksum"

    def test_deleted_record_breaks_the_chain_at_the_gap(self, tmp_path, bare_cache):
        _, out = _run_campaign(tmp_path, bare_cache)
        lines = (out / JOURNAL_NAME).read_bytes().splitlines(keepends=True)
        (out / JOURNAL_NAME).write_bytes(b"".join(lines[:2] + lines[3:]))  # drop trial 1
        report = verify_campaign(out)
        assert report["exit_code"] == 3
        assert report["first_bad"]["reason"] == "journal-chain-broken"
        assert report["first_bad"]["line"] == 3  # the record after the gap

    def test_trimmed_tail_is_caught_by_the_checkpoint_seal(self, tmp_path, bare_cache):
        # deleting the *last* record leaves a perfectly chained journal;
        # only the checkpoint-sealed head + record count expose it
        _, out = _run_campaign(tmp_path, bare_cache)
        lines = (out / JOURNAL_NAME).read_bytes().splitlines(keepends=True)
        (out / JOURNAL_NAME).write_bytes(b"".join(lines[:-1]))
        report = verify_campaign(out)
        assert report["exit_code"] == 3
        assert report["first_bad"]["reason"] == "journal-behind-checkpoint"

    def test_tampered_checkpoint_head_is_a_chain_break(self, tmp_path, bare_cache):
        _, out = _run_campaign(tmp_path, bare_cache)
        checkpoint = read_checkpoint(out / CHECKPOINT_NAME)
        checkpoint["chain_head"] = sha256_hex("forged")
        write_checkpoint(out / CHECKPOINT_NAME, checkpoint)
        report = verify_campaign(out)
        assert report["exit_code"] == 3
        assert report["first_bad"]["reason"] == "journal-chain-broken"
        assert report["first_bad"]["line"] == checkpoint["journal_records"]

    @pytest.mark.parametrize("runner", ["serial", "parallel"])
    @pytest.mark.parametrize("case", list(_TAMPER_REASONS))
    def test_resume_and_verify_agree_on_a_tampered_checkpoint(
        self, tmp_path, bare_cache, capsys, case, runner
    ):
        # one rule set: a re-sealed (checksum-valid) checkpoint carrying a
        # tampered or mistyped field is refused by --resume for exactly the
        # reason the auditor reports — never a traceback
        if runner == "serial":
            config, out = _run_campaign(tmp_path, bare_cache, n_trials=4, max_new_trials=2)
            resumer = CampaignRunner(config, out, trial_fn=_fake_trial)
            workers = "1"
        else:
            config, out = _interrupted_parallel_run(tmp_path, bare_cache)
            assert shard_journals(out)
            resumer = ParallelCampaignRunner(config, out, workers=2, trial_fn=_fake_trial)
            workers = "2"
        checkpoint = read_checkpoint(out / CHECKPOINT_NAME)
        _tamper_checkpoint(checkpoint, case)
        write_checkpoint(out / CHECKPOINT_NAME, checkpoint)
        reason = _TAMPER_REASONS[case]
        reason = reason if isinstance(reason, str) else reason[runner]

        report = verify_campaign(out)
        assert report["exit_code"] == 3
        assert report["first_bad"]["reason"] == reason
        with pytest.raises(CampaignError) as exc_info:
            resumer.run(resume=True)
        assert exc_info.value.reason == reason

        capsys.readouterr()
        argv = ["--cache", config.cache, "--out", str(out), "--trials", str(config.n_trials)]
        argv += ["--seed", str(config.seed), "--workers", workers, "--resume"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"campaign error: {reason}")
        assert "Traceback" not in err

    def test_corrupt_checkpoint_fails_the_audit(self, tmp_path, bare_cache):
        _, out = _run_campaign(tmp_path, bare_cache)
        text = (out / CHECKPOINT_NAME).read_text()
        (out / CHECKPOINT_NAME).write_text(text.replace('"completed": 3', '"completed": 2'))
        report = verify_campaign(out)
        assert report["exit_code"] == 3
        assert report["first_bad"]["reason"] == "checkpoint-invalid"

    def test_forged_spec_is_a_replay_mismatch(self, tmp_path, bare_cache):
        # an adversary who re-seals and re-links the whole chain (and
        # re-issues the checkpoint) beats every hash — but the spec no
        # longer re-derives from the journalled config
        _, out = _run_campaign(tmp_path, bare_cache)

        def mutate(records):
            records[2]["spec"]["fault_seed"] += 1

        _reforge(out, mutate)
        report = verify_campaign(out)
        assert report["exit_code"] == 4
        assert report["status"] == "replay-mismatch"
        assert report["first_bad"]["reason"] == "spec-mismatch"
        assert report["first_bad"]["line"] == 3
        assert "trial 1" in report["first_bad"]["detail"]

    def test_forged_outcome_value_is_a_replay_mismatch(self, tmp_path, bare_cache):
        _, out = _run_campaign(tmp_path, bare_cache)

        def mutate(records):
            records[1]["outcome"] = "fabricated"

        _reforge(out, mutate)
        report = verify_campaign(out)
        assert report["exit_code"] == 4
        assert report["first_bad"]["reason"] == "unknown-outcome"
        assert report["first_bad"]["line"] == 2

    def test_header_not_rooted_in_its_own_config_is_a_chain_break(self, tmp_path, bare_cache):
        _, out = _run_campaign(tmp_path, bare_cache)

        def mutate(records):
            records[0]["config"]["seed"] = 99  # genesis no longer matches

        _reforge(out, mutate)
        report = verify_campaign(out)
        assert report["exit_code"] == 3
        assert report["first_bad"]["line"] == 1
        assert report["first_bad"]["reason"] == "journal-chain-broken"
        assert "genesis" in report["first_bad"]["detail"]

    def test_missing_journal_is_a_chain_break(self, tmp_path):
        report = verify_campaign(tmp_path)
        assert report["exit_code"] == 3
        assert report["first_bad"]["reason"] == "journal-missing"

    def test_verify_feeds_metrics_and_tracing(self, tmp_path, bare_cache):
        _, out = _run_campaign(tmp_path, bare_cache)
        get_registry().reset()
        get_tracer().reset()
        verify_campaign(out)
        registry = get_registry()
        assert registry.counter_total("journal_records_verified_total") == 4
        assert registry.counter_total("journal_chain_breaks_total") == 0
        spans = [s["name"] for s in get_tracer().to_dicts()]
        assert "journal.verify" in spans

        raw = bytearray((out / JOURNAL_NAME).read_bytes())
        raw[10] ^= 0xFF
        (out / JOURNAL_NAME).write_bytes(bytes(raw))
        verify_campaign(out)
        assert registry.counter_total("journal_chain_breaks_total") == 1


class TestResumeRefusals:
    def test_resume_refuses_a_broken_chain(self, tmp_path, bare_cache):
        cache = bare_cache()
        config = CampaignConfig(cache=str(cache), n_trials=4, seed=5)
        CampaignRunner(config, tmp_path / "out", trial_fn=_fake_trial).run(max_new_trials=3)
        lines = (tmp_path / "out" / JOURNAL_NAME).read_bytes().splitlines(keepends=True)
        (tmp_path / "out" / JOURNAL_NAME).write_bytes(b"".join(lines[:2] + lines[3:]))
        with pytest.raises(CampaignError) as exc_info:
            CampaignRunner(config, tmp_path / "out", trial_fn=_fake_trial).run(resume=True)
        assert exc_info.value.reason == "journal-chain-broken"
        assert "line 3" in str(exc_info.value)  # names the bad record

    def test_resume_refuses_a_tampered_checkpoint_head(self, tmp_path, bare_cache):
        cache = bare_cache()
        config = CampaignConfig(cache=str(cache), n_trials=4, seed=5)
        CampaignRunner(config, tmp_path / "out", trial_fn=_fake_trial).run(max_new_trials=2)
        checkpoint = read_checkpoint(tmp_path / "out" / CHECKPOINT_NAME)
        checkpoint["chain_head"] = sha256_hex("forged")
        write_checkpoint(tmp_path / "out" / CHECKPOINT_NAME, checkpoint)
        with pytest.raises(CampaignError) as exc_info:
            CampaignRunner(config, tmp_path / "out", trial_fn=_fake_trial).run(resume=True)
        assert exc_info.value.reason == "journal-chain-broken"

    def test_resume_refuses_a_journal_rooted_elsewhere(self, tmp_path, bare_cache):
        cache = bare_cache()
        config = CampaignConfig(cache=str(cache), n_trials=2, seed=5)
        out = tmp_path / "out"
        # a chained journal claiming this config but rooted at a foreign genesis
        journal = CampaignJournal(out / JOURNAL_NAME, genesis=chain_genesis("ff" * 16))
        journal.append(
            {"type": "header", "version": JOURNAL_VERSION, "config": config.to_dict(), "models": ["m"]}
        )
        with pytest.raises(CampaignError) as exc_info:
            CampaignRunner(config, out, trial_fn=_fake_trial).run(resume=True)
        assert exc_info.value.reason == "journal-chain-broken"
        assert "not rooted" in str(exc_info.value)


class TestVersionMismatch:
    def _journal_with_version(self, tmp_path, config, version):
        out = tmp_path / "out"
        journal = CampaignJournal(out / JOURNAL_NAME, genesis=config_genesis(config))
        journal.append(
            {"type": "header", "version": version, "config": config.to_dict(), "models": ["m"]}
        )
        return out

    def test_v2_journal_under_v3_runner_is_actionable(self, tmp_path, bare_cache):
        config = CampaignConfig(cache=str(bare_cache()), n_trials=2)
        out = self._journal_with_version(tmp_path, config, 2)
        with pytest.raises(CampaignError) as exc_info:
            CampaignRunner(config, out, trial_fn=_fake_trial).run(resume=True)
        assert exc_info.value.reason == "journal-version-mismatch"
        message = str(exc_info.value)
        assert "journal format v2" in message
        assert f"expects v{JOURNAL_VERSION}" in message
        assert "predates" in message and "fresh --out" in message

    def test_newer_journal_under_v3_runner_is_actionable(self, tmp_path, bare_cache):
        config = CampaignConfig(cache=str(bare_cache()), n_trials=2)
        out = self._journal_with_version(tmp_path, config, JOURNAL_VERSION + 1)
        with pytest.raises(CampaignError) as exc_info:
            CampaignRunner(config, out, trial_fn=_fake_trial).run(resume=True)
        assert exc_info.value.reason == "journal-version-mismatch"
        message = str(exc_info.value)
        assert f"journal format v{JOURNAL_VERSION + 1}" in message
        assert "newer" in message and "upgrade" in message

    def test_verify_reports_version_mismatch(self, tmp_path, bare_cache):
        config = CampaignConfig(cache=str(bare_cache()), n_trials=2)
        out = self._journal_with_version(tmp_path, config, 2)
        report = verify_campaign(out)
        assert report["exit_code"] == 3
        assert report["first_bad"]["reason"] == "journal-version-mismatch"
        assert "predates" in report["first_bad"]["detail"]


V3_DIRS = Path(__file__).parent / "data" / "journal_v3"


class TestV3Journals:
    """v3 and v4 share the chain rules, so verify audits a v3 directory
    against v3's genesis; its trials were scored by the old gate, so
    ``--resume`` still refuses to extend it."""

    def _copy(self, tmp_path, name):
        return Path(shutil.copytree(V3_DIRS / name, tmp_path / name))

    @pytest.mark.parametrize("name", ["serial", "sharded"])
    def test_verify_accepts_a_v3_directory(self, tmp_path, name):
        out = self._copy(tmp_path, name)
        report = verify_campaign(out)
        assert report["ok"], report["first_bad"]
        header = json.loads((out / JOURNAL_NAME).read_text().splitlines()[0])
        assert header["version"] == 3 < JOURNAL_VERSION
        assert bool(report["shards"]) == (name == "sharded")
        assert report["trials"] > 0

    @pytest.mark.parametrize("name", ["serial", "sharded"])
    def test_v3_chain_damage_is_still_caught(self, tmp_path, name):
        out = self._copy(tmp_path, name)
        victim = max(out.glob("journal*.jsonl"), key=lambda p: p.stat().st_size)
        lines = victim.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace('"outcome": "ok"', '"outcome": "error"', 1)
        victim.write_text("".join(lines))
        report = verify_campaign(out)
        assert report["exit_code"] == 3
        assert report["first_bad"]["file"] == victim.name and report["first_bad"]["line"] == 2

    def test_v3_header_needs_the_v3_genesis(self, tmp_path, bare_cache):
        config = CampaignConfig(cache=str(bare_cache()), n_trials=2)
        out = tmp_path / "out"
        # a v3 header rooted at the v4 genesis: neither format's chain
        journal = CampaignJournal(out / JOURNAL_NAME, genesis=config_genesis(config))
        journal.append({"type": "header", "version": 3, "config": config.to_dict(), "models": ["m"]})
        report = verify_campaign(out)
        assert report["exit_code"] == 3
        assert report["first_bad"]["reason"] == "journal-chain-broken"
        genesis = chain_genesis(config_chain_hash(config.to_dict()), version=3)
        assert genesis != config_genesis(config)

    @pytest.mark.parametrize("name", ["serial", "sharded"])
    def test_resume_of_a_v3_directory_is_refused(self, tmp_path, monkeypatch, name):
        out = self._copy(tmp_path, name)
        header = json.loads((out / JOURNAL_NAME).read_text().splitlines()[0])
        monkeypatch.chdir(tmp_path)  # the journalled cache path is relative
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(CampaignError) as exc_info:
            CampaignRunner(config_from_dict(header["config"]), out, trial_fn=_fake_trial).run(resume=True)
        assert exc_info.value.reason == "journal-version-mismatch"
        assert "journal format v3" in str(exc_info.value)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestVerifyShards:
    def test_interrupted_parallel_campaign_verifies_with_shards(self, tmp_path, bare_cache):
        _, out = _interrupted_parallel_run(tmp_path, bare_cache)
        report = verify_campaign(out)
        assert report["ok"], report["first_bad"]
        assert report["shards"]
        checkpoint = read_checkpoint(out / CHECKPOINT_NAME)
        for key, mark in checkpoint["workers"].items():
            assert mark["chain_head"] == report["shards"][key]["chain_head"]

    def test_damaged_shard_fails_verification(self, tmp_path, bare_cache):
        _, out = _interrupted_parallel_run(tmp_path, bare_cache)
        shard = next(p for p in out.iterdir() if ".w" in p.name)
        lines = shard.read_bytes().splitlines(keepends=True)
        assert lines, "expected at least one shard record"
        flipped = bytearray(lines[0])
        flipped[flipped.index(b'"spec"') + 2] ^= 0x01
        shard.write_bytes(b"".join([bytes(flipped), *lines[1:]]))
        report = verify_campaign(out)
        assert report["exit_code"] == 3
        assert report["first_bad"]["file"] == shard.name


class TestVerifyCLI:
    def test_verify_subcommand_ok_and_failure(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--synthetic", str(tmp_path / "cache"), "--out", str(out), "--trials", "2"]) == 0
        capsys.readouterr()

        assert main(["verify", str(out)]) == 0
        assert capsys.readouterr().out.startswith("ok:")

        assert main(["verify", str(out), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["trials"] == 2

        raw = bytearray((out / JOURNAL_NAME).read_bytes())
        raw[20] ^= 0xFF
        (out / JOURNAL_NAME).write_bytes(bytes(raw))
        assert main(["verify", str(out)]) == 3
        err = capsys.readouterr().err
        assert "FAIL" in err and JOURNAL_NAME in err

        assert main(["verify", str(out), "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["first_bad"]["line"] == 1


class TestCheckpointLoading:
    def test_load_checkpoint_distinguishes_absent_from_invalid(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.json") == (None, "absent")
        p = tmp_path / CHECKPOINT_NAME
        write_checkpoint(p, {"completed": 1})
        payload, problem = load_checkpoint(p)
        assert problem is None and payload == {"completed": 1}
        p.write_text(p.read_text().replace("1", "2"))
        assert load_checkpoint(p) == (None, "checkpoint-invalid")
