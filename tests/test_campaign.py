"""Campaign runner: journal durability, checkpoints, watchdog, and the
kill/resume determinism guarantee."""

from __future__ import annotations

import json
import time

import pytest

from polygraphmr.campaign import (
    CHECKPOINT_NAME,
    JOURNAL_NAME,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    CampaignConfig,
    CampaignJournal,
    CampaignRunner,
    TrialExecutor,
    TrialSpec,
    config_from_dict,
    config_genesis,
    derive_trial_spec,
    main,
    read_checkpoint,
    report_campaign,
    scenarios_config_field,
    verify_campaign,
    write_checkpoint,
)
from polygraphmr.errors import CampaignError

from .conftest import SYNTH_MEMBERS


def _fake_trial(spec):
    return {"model": spec.model, "kind": spec.kind}


class TestTrialDerivation:
    def test_same_seed_and_index_derive_the_same_spec(self):
        config = CampaignConfig(cache="x", seed=11)
        models = ["a", "b", "c"]
        for index in range(6):
            assert derive_trial_spec(config, models, index) == derive_trial_spec(config, models, index)

    def test_specs_vary_across_indices_and_cycle_models(self):
        config = CampaignConfig(cache="x", seed=11)
        models = ["a", "b"]
        specs = [derive_trial_spec(config, models, i) for i in range(8)]
        assert [s.model for s in specs] == ["a", "b"] * 4
        assert len({s.fault_seed for s in specs}) == 8
        assert {s.kind for s in specs} <= {"bitflip", "gaussian"}

    def test_no_models_raises(self):
        with pytest.raises(CampaignError) as exc_info:
            derive_trial_spec(CampaignConfig(cache="x"), [], 0)
        assert exc_info.value.reason == "no-models"


class TestJournal:
    def test_append_read_round_trip(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.append({"type": "header", "n": 1})
        journal.append({"type": "trial", "index": 0})
        records = journal.read()
        assert [r["type"] for r in records] == ["header", "trial"]
        assert "sha256" not in records[0]  # checksum is verified, then stripped

    def test_torn_final_line_is_dropped_and_repaired(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.append({"type": "header"})
        journal.append({"type": "trial", "index": 0})
        intact_size = journal.path.stat().st_size
        with open(journal.path, "ab") as fh:
            fh.write(b'{"type":"trial","index":1,"torn')  # crash mid-append

        assert len(journal.read()) == 2  # reading tolerates the torn tail
        records = journal.repair_tail()
        assert len(records) == 2
        assert journal.path.stat().st_size == intact_size
        journal.append({"type": "trial", "index": 1})  # appends land on a fresh line
        assert [r.get("index") for r in journal.read()] == [None, 0, 1]

    def test_flipped_byte_in_final_line_is_treated_as_torn(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.append({"type": "header"})
        journal.append({"type": "trial", "index": 0})
        raw = bytearray(journal.path.read_bytes())
        raw[-10] ^= 0xFF
        journal.path.write_bytes(bytes(raw))
        assert len(journal.read()) == 1  # the damaged record is discounted

    def test_damage_to_committed_history_raises(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.append({"type": "header"})
        journal.append({"type": "trial", "index": 0})
        journal.append({"type": "trial", "index": 1})
        lines = journal.path.read_bytes().splitlines(keepends=True)
        assert b'"index": 0' in lines[1]  # sealed JSON uses default separators
        tampered = lines[0] + lines[1].replace(b'"index": 0', b'"index": 9') + lines[2]
        journal.path.write_bytes(tampered)
        with pytest.raises(CampaignError) as exc_info:
            journal.read()
        assert exc_info.value.reason == "journal-bad-checksum"

    def test_missing_file_reads_empty(self, tmp_path):
        assert CampaignJournal(tmp_path / "absent.jsonl").read() == []


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "checkpoint.json"
        write_checkpoint(p, {"completed": 3, "next_index": 3})
        assert read_checkpoint(p) == {"completed": 3, "next_index": 3}
        assert not p.with_name(p.name + ".tmp").exists()  # replace was atomic

    def test_corrupt_checkpoint_reads_none(self, tmp_path):
        p = tmp_path / "checkpoint.json"
        write_checkpoint(p, {"completed": 3})
        p.write_text(p.read_text().replace("3", "4"))  # checksum now wrong
        assert read_checkpoint(p) is None
        assert read_checkpoint(tmp_path / "absent.json") is None
        (tmp_path / "garbage.json").write_text("not json{")
        assert read_checkpoint(tmp_path / "garbage.json") is None


class TestRunner:
    def test_fresh_run_journals_header_and_every_trial(self, tmp_path, bare_cache):
        cache = bare_cache()
        config = CampaignConfig(cache=str(cache), n_trials=4, seed=3)
        runner = CampaignRunner(config, tmp_path / "out", trial_fn=_fake_trial)
        summary = runner.run()

        assert summary["completed"] == 4
        assert summary["new_trials"] == 4
        assert not summary["stopped_early"]
        records = runner.journal.read()
        assert records[0]["type"] == "header"
        assert records[0]["config"] == config.to_dict()
        assert [r["index"] for r in records[1:]] == [0, 1, 2, 3]
        assert all(r["outcome"] == OUTCOME_OK for r in records[1:])
        checkpoint = read_checkpoint(tmp_path / "out" / CHECKPOINT_NAME)
        assert checkpoint["completed"] == 4
        assert checkpoint["next_index"] == 4

    def test_fresh_run_refuses_existing_journal(self, tmp_path, bare_cache):
        cache = bare_cache()
        config = CampaignConfig(cache=str(cache), n_trials=2)
        CampaignRunner(config, tmp_path / "out", trial_fn=_fake_trial).run()
        with pytest.raises(CampaignError) as exc_info:
            CampaignRunner(config, tmp_path / "out", trial_fn=_fake_trial).run()
        assert exc_info.value.reason == "journal-exists"

    def test_resume_refuses_config_mismatch(self, tmp_path, bare_cache):
        cache = bare_cache()
        CampaignRunner(
            CampaignConfig(cache=str(cache), n_trials=2, seed=1), tmp_path / "out", trial_fn=_fake_trial
        ).run()
        other = CampaignConfig(cache=str(cache), n_trials=2, seed=2)
        with pytest.raises(CampaignError) as exc_info:
            CampaignRunner(other, tmp_path / "out", trial_fn=_fake_trial).run(resume=True)
        assert exc_info.value.reason == "config-mismatch"

    def test_resume_refuses_journal_behind_checkpoint(self, tmp_path, bare_cache):
        cache = bare_cache()
        config = CampaignConfig(cache=str(cache), n_trials=3)
        runner = CampaignRunner(config, tmp_path / "out", trial_fn=_fake_trial)
        runner.run(max_new_trials=2)
        # lose a committed trial record but keep the checkpoint
        lines = runner.journal.path.read_bytes().splitlines(keepends=True)
        runner.journal.path.write_bytes(b"".join(lines[:-1]))
        with pytest.raises(CampaignError) as exc_info:
            CampaignRunner(config, tmp_path / "out", trial_fn=_fake_trial).run(resume=True)
        assert exc_info.value.reason == "journal-behind-checkpoint"

    def test_trial_error_is_an_outcome_not_a_crash(self, tmp_path, bare_cache):
        cache = bare_cache()

        def flaky(spec):
            if spec.index == 1:
                raise RuntimeError("injected")
            return _fake_trial(spec)

        config = CampaignConfig(cache=str(cache), n_trials=3)
        summary = CampaignRunner(config, tmp_path / "out", trial_fn=flaky).run()
        assert summary["completed"] == 3
        assert summary["outcomes"][OUTCOME_ERROR] == 1
        records = CampaignJournal(tmp_path / "out" / JOURNAL_NAME).trial_records()
        assert "injected" in records[1]["error"]
        assert "result" not in records[1]

    def test_watchdog_times_out_a_hung_trial(self, tmp_path, bare_cache):
        cache = bare_cache()

        def hangs(spec):
            if spec.index == 1:
                time.sleep(30)
            return _fake_trial(spec)

        config = CampaignConfig(cache=str(cache), n_trials=3, timeout_s=0.2)
        summary = CampaignRunner(config, tmp_path / "out", trial_fn=hangs).run()
        assert summary["completed"] == 3  # the sweep moved on past the hang
        records = CampaignJournal(tmp_path / "out" / JOURNAL_NAME).trial_records()
        assert records[1]["outcome"] == OUTCOME_TIMEOUT
        assert records[0]["outcome"] == records[2]["outcome"] == OUTCOME_OK

    @pytest.mark.parametrize("models", [(), ("a", "b", "c")], ids=["one-model", "three-models"])
    def test_request_stop_finishes_in_flight_trial(self, tmp_path, bare_cache, models):
        # all five trials fall in one journal window: the stop lands
        # mid-window, and the window's finished prefix (trials 0 and 1) is
        # journalled, nothing more
        cache = bare_cache(*models)
        config = CampaignConfig(cache=str(cache), n_trials=5)
        runner = CampaignRunner(config, tmp_path / "out", trial_fn=_fake_trial)

        seen = []

        def stopping(spec):
            seen.append(spec.index)
            if spec.index == 1:
                runner.request_stop()  # SIGTERM arrives mid-trial
            return _fake_trial(spec)

        runner.executor._trial_fn = stopping
        summary = runner.run()
        assert seen == [0, 1]  # trial 1 completed, trial 2 never started
        assert summary["completed"] == 2
        assert summary["stopped_early"]
        assert len(runner.journal.trial_records()) == 2


class TestKillResumeDeterminism:
    N = 4

    def _config(self, cache) -> CampaignConfig:
        return CampaignConfig(cache=str(cache), n_trials=self.N, seed=7, timeout_s=60.0)

    def test_resumed_campaign_matches_uninterrupted_run(self, synthetic_cache, tmp_path):
        """The acceptance criterion: kill after 2 trials, resume, and every
        per-trial record (spec, outcome, result, breaker state) must equal the
        uninterrupted run's."""

        config = self._config(synthetic_cache)

        straight = CampaignRunner(config, tmp_path / "straight")
        assert straight.run()["completed"] == self.N

        interrupted = CampaignRunner(config, tmp_path / "killed")
        partial = interrupted.run(max_new_trials=2)
        assert partial["completed"] == 2
        assert partial["stopped_early"]

        resumed = CampaignRunner(config, tmp_path / "killed")
        summary = resumed.run(resume=True)
        assert summary["completed"] == self.N
        assert summary["new_trials"] == self.N - 2

        # journal records carry no wall-clock data (v2), so the resumed
        # journal is *byte-identical* to the uninterrupted one
        assert (tmp_path / "straight" / JOURNAL_NAME).read_bytes() == (
            tmp_path / "killed" / JOURNAL_NAME
        ).read_bytes()
        a = CampaignJournal(tmp_path / "straight" / JOURNAL_NAME).trial_records()
        assert sorted(a) == list(range(self.N))

    def test_resume_with_torn_tail(self, synthetic_cache, tmp_path):
        config = self._config(synthetic_cache)
        runner = CampaignRunner(config, tmp_path / "out")
        runner.run(max_new_trials=2)
        with open(runner.journal.path, "ab") as fh:
            fh.write(b'{"type":"trial","index":2,"outcome":"ok"')  # torn mid-append

        resumed = CampaignRunner(config, tmp_path / "out")
        summary = resumed.run(resume=True)
        assert summary["completed"] == self.N
        trials = resumed.journal.trial_records()
        assert sorted(trials) == list(range(self.N))

    def test_resume_of_a_complete_campaign_is_a_no_op(self, synthetic_cache, tmp_path):
        config = self._config(synthetic_cache)
        CampaignRunner(config, tmp_path / "out").run()
        before = (tmp_path / "out" / JOURNAL_NAME).read_bytes()
        summary = CampaignRunner(config, tmp_path / "out").run(resume=True)
        assert summary["new_trials"] == 0
        assert summary["completed"] == self.N
        assert (tmp_path / "out" / JOURNAL_NAME).read_bytes() == before


class TestTransientReads:
    def test_one_failed_read_does_not_drop_a_member_for_the_campaign(self, synthetic_cache, tmp_path, failing_reads):
        """The first trial's assemble meets one exhausted read (the default
        policy's three attempts) of a member's test probs and reads it once
        more, so every trial keeps all five members — as a run resumed after
        the hiccup would."""

        name = "pp-Hist.test.probs.npz"
        left = failing_reads(name, 3)
        config = CampaignConfig(cache=str(synthetic_cache), n_trials=6, seed=7, timeout_s=60.0)
        assert CampaignRunner(config, tmp_path / "out").run()["completed"] == 6
        assert left[name] == 0

        records = list(CampaignJournal(tmp_path / "out" / JOURNAL_NAME).trial_records().values())
        assert [r["outcome"] for r in records] == [OUTCOME_OK] * 6
        assert {len(r["result"]["members"]) for r in records} == {len(SYNTH_MEMBERS)}
        assert not any(r["result"]["degraded"] for r in records)

    def test_a_member_that_stays_unreadable_degrades_every_trial(self, synthetic_cache, tmp_path, failing_reads):
        """Every read of one member's test probs fails: each trial's session
        runs without that member (degraded, ``ok``) instead of failing."""

        failing_reads("pp-Hist.test.probs.npz")
        config = CampaignConfig(cache=str(synthetic_cache), n_trials=6, seed=7, timeout_s=60.0)
        assert CampaignRunner(config, tmp_path / "out").run()["completed"] == 6

        records = list(CampaignJournal(tmp_path / "out" / JOURNAL_NAME).trial_records().values())
        assert [r["outcome"] for r in records] == [OUTCOME_OK] * 6
        assert all(r["result"]["degraded"] for r in records)
        assert {frozenset(r["result"]["members"]) for r in records} == {frozenset(SYNTH_MEMBERS) - {"pp-Hist"}}


class TestCLI:
    def test_synthetic_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "out"
        status = main(
            [
                "--synthetic",
                str(tmp_path / "cache"),
                "--out",
                str(out),
                "--trials",
                "2",
                "--seed",
                "3",
            ]
        )
        assert status == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["completed"] == 2
        trials = CampaignJournal(out / JOURNAL_NAME).trial_records()
        assert sorted(trials) == [0, 1]
        assert all(r["outcome"] == OUTCOME_OK for r in trials.values())

    def test_no_batch_is_a_hidden_no_op(self, tmp_path, capsys):
        args = ["--synthetic", str(tmp_path / "cache"), "--trials", "3", "--seed", "7"]
        assert main([*args, "--out", str(tmp_path / "plain")]) == 0
        assert main([*args, "--out", str(tmp_path / "no-batch"), "--no-batch"]) == 0
        for name in (JOURNAL_NAME, CHECKPOINT_NAME):
            assert (tmp_path / "no-batch" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "batch" not in capsys.readouterr().out

    def test_refusing_an_existing_journal_exits_2(self, tmp_path, capsys):
        args = ["--synthetic", str(tmp_path / "cache"), "--out", str(tmp_path / "out"), "--trials", "1"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 2  # no --resume: refuse, don't clobber
        assert "journal-exists" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("flag", "value"),
        [("--workers", "0"), ("--workers", "-1")],
    )
    def test_out_of_range_counts_exit_2_naming_the_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        args = ["--synthetic", str(tmp_path / "cache"), "--out", str(out), "--trials", "3", flag, value]
        with pytest.raises(SystemExit) as exc_info:
            main(args)
        assert exc_info.value.code == 2
        assert f"argument {flag}: must be >= 1, got {value}" in capsys.readouterr().err
        assert not (out / JOURNAL_NAME).exists()  # refused before any trial ran

    @pytest.mark.parametrize(
        ("flags", "field"),
        [
            (["--rates", ""], "config.rates"),
            (["--kinds", ""], "config.kinds"),
            (["--sigmas", ""], "config.sigmas"),
            (["--kinds", "bitflip,rowhammer"], "fault.kind"),
            (["--rates", "3.5"], "fault.rate"),
            (["--sigmas=-0.1"], "fault.sigma"),
            (["--min-members", "0"], "ensemble.min_members"),
            (["--cache-bytes", "0"], "cache.max_bytes"),
            (["--cache-bytes=-1"], "cache.max_bytes"),
            (["--trials=-1"], "config.n_trials"),
            (["--trials", "-2"], "config.n_trials"),
            (["--failure-threshold=-4", "--cooldown-ticks=-7"], "breaker.failure_threshold"),
            (["--failure-threshold", "0"], "breaker.failure_threshold"),
            (["--cooldown-ticks=-1"], "breaker.cooldown_ticks"),
            (["--synthetic-models", "0"], "synthetic.models"),
            (["--synthetic-models=-3"], "synthetic.models"),
        ],
    )
    def test_unrunnable_settings_exit_2_and_write_nothing(self, tmp_path, capsys, flags, field):
        """Refused before the synthetic cache or ``--out`` is written, so
        the plain rerun is not refused with ``journal-exists``."""

        args = ["--synthetic", str(tmp_path / "cache"), "--out", str(tmp_path / "out"), "--trials", "2"]
        assert main([*args, *flags]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")
        assert list(tmp_path.iterdir()) == []
        assert main(args) == 0

    def test_negative_trials_are_refused_on_resume_and_leave_the_directory_as_is(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["--synthetic", str(tmp_path / "cache"), "--out", str(out), "--trials", "2"]
        assert main(args) == 0
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main([*args, "--trials=-1", "--resume"]) == 2
        assert capsys.readouterr().err.startswith("config error: config.n_trials: ")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_journalled_out_of_range_breaker_is_audited_but_not_resumed(self, synthetic_cache, tmp_path, capsys):
        """The auditor reads a journal as written; only a new run or a
        resume checks the breaker settings, and the resume writes nothing."""

        out = tmp_path / "out"
        config = CampaignConfig(cache=str(synthetic_cache), n_trials=2, failure_threshold=-4, cooldown_ticks=-7)
        CampaignRunner(config, out).run()
        assert config_from_dict(CampaignJournal(out / JOURNAL_NAME).read()[0]["config"]) == config
        assert main(["verify", str(out)]) == 0
        assert main(["report", str(out)]) == 0
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        flags = ["--failure-threshold=-4", "--cooldown-ticks=-7", "--resume"]
        assert main(["--cache", str(synthetic_cache), "--out", str(out), "--trials", "2", *flags]) == 2
        assert capsys.readouterr().err.startswith("config error: breaker.failure_threshold: ")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_zero_trials_is_an_empty_complete_campaign(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--synthetic", str(tmp_path / "cache"), "--out", str(out), "--trials", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["completed"] == 0
        assert main(["verify", str(out)]) == 0

    def test_cache_budget_is_unchecked_without_a_cache(self, tmp_path, capsys):
        args = ["--synthetic", str(tmp_path / "cache"), "--out", str(tmp_path / "out"), "--trials", "2"]
        assert main([*args, "--no-cache", "--cache-bytes", "0"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [["--batch-size", "4"], ["--allow-salvaged"]])
    def test_removed_flags_are_refused_as_unknown(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        args = ["--synthetic", str(tmp_path / "cache"), "--out", str(out), "--trials", "3", *flags]
        with pytest.raises(SystemExit) as exc_info:
            main(args)
        assert exc_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not out.exists()

    def test_audit_json_lands_in_header(self, tmp_path, capsys):
        audit_path = tmp_path / "audit.json"
        audit_path.write_text(json.dumps({"totals": {"valid": 1, "corrupt": 2}}))
        out = tmp_path / "out"
        status = main(
            [
                "--synthetic",
                str(tmp_path / "cache"),
                "--out",
                str(out),
                "--trials",
                "1",
                "--audit-json",
                str(audit_path),
            ]
        )
        assert status == 0
        capsys.readouterr()
        header = CampaignJournal(out / JOURNAL_NAME).read()[0]
        assert header["audit"] == {"valid": 1, "corrupt": 2}


SWEEP = ("channel-bitflip-10pct", "quantize-4bit", "stuck-at-zero-1pct")


def _scenario_config(cache, **overrides) -> CampaignConfig:
    from polygraphmr.scenarios import resolve_scenarios

    kwargs = dict(
        cache=str(cache),
        n_trials=9,
        seed=7,
        scenarios=scenarios_config_field(resolve_scenarios(SWEEP)),
    )
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


class TestScenarioCampaign:
    def test_derivation_draws_scenarios_and_pins_hashes(self, synthetic_cache):
        config = _scenario_config(synthetic_cache)
        specs = [derive_trial_spec(config, ["m"], i) for i in range(24)]
        names = {s.scenario for s in specs}
        assert names == set(SWEEP)  # 24 draws over 3 scenarios hit them all
        by_name = {s.name: s for s in config.scenario_objects()}
        for spec in specs:
            assert spec.scenario_sha256 == by_name[spec.scenario].config_hash()
            assert spec.kind == by_name[spec.scenario].kind
            assert derive_trial_spec(config, ["m"], spec.index) == spec

    def test_legacy_spec_journals_without_scenario_keys(self, synthetic_cache):
        legacy = CampaignConfig(cache=str(synthetic_cache), n_trials=2, seed=7)
        spec = derive_trial_spec(legacy, ["m"], 0)
        assert "scenario" not in spec.to_dict()
        assert "scenarios" not in legacy.to_dict()  # header bytes unchanged too

    def test_scenarios_change_the_chain_genesis(self, synthetic_cache):
        legacy = CampaignConfig(cache=str(synthetic_cache), n_trials=2, seed=7)
        swept = _scenario_config(synthetic_cache, n_trials=2)
        assert config_genesis(legacy) != config_genesis(swept)

    def test_config_round_trips_through_journalled_dict(self, synthetic_cache):
        config = _scenario_config(synthetic_cache)
        assert config_from_dict(config.to_dict()) == config

    def test_allow_salvaged_is_journalled_as_the_constant_false(self, synthetic_cache):
        for config in (CampaignConfig(cache=str(synthetic_cache)), _scenario_config(synthetic_cache)):
            d = config.to_dict()
            assert d["allow_salvaged"] is False
            assert list(d).index("allow_salvaged") == list(d).index("timeout_s") + 1

    @pytest.mark.parametrize("value", [True, False])
    def test_config_from_dict_ignores_a_journalled_allow_salvaged(self, synthetic_cache, value):
        config = CampaignConfig(cache=str(synthetic_cache), n_trials=3, seed=5)
        d = {**config.to_dict(), "allow_salvaged": value}
        assert config_from_dict(d) == config
        assert config_from_dict(d).to_dict()["allow_salvaged"] is False

    def test_sweep_runs_resumes_verifies_and_reports(self, synthetic_cache, tmp_path):
        """The acceptance criterion, in-process: a 3-scenario sweep killed
        mid-run resumes byte-identically, verifies exit 0, and its report's
        per-scenario trial counts reconcile exactly with the journal."""

        config = _scenario_config(synthetic_cache)

        straight = CampaignRunner(config, tmp_path / "straight")
        assert straight.run()["completed"] == config.n_trials

        interrupted = CampaignRunner(config, tmp_path / "killed")
        assert interrupted.run(max_new_trials=4)["stopped_early"]
        resumed = CampaignRunner(config, tmp_path / "killed")
        assert resumed.run(resume=True)["completed"] == config.n_trials
        assert (tmp_path / "straight" / JOURNAL_NAME).read_bytes() == (
            tmp_path / "killed" / JOURNAL_NAME
        ).read_bytes()

        verdict = verify_campaign(tmp_path / "killed")
        assert verdict["exit_code"] == 0, verdict

        report = report_campaign(tmp_path / "killed")
        trials = CampaignJournal(tmp_path / "killed" / JOURNAL_NAME).trial_records()
        assert set(report["scenarios"]) <= set(SWEEP)
        assert sum(row["trials"] for row in report["scenarios"].values()) == len(trials)
        for name, row in report["scenarios"].items():
            assert row["trials"] == sum(
                1 for r in trials.values() if r["spec"]["scenario"] == name
            )
            assert row["scenario_sha256"]
            assert 0.0 <= row["survival_rate"] <= 1.0

    def test_executor_refuses_a_scenario_not_in_the_config(self, synthetic_cache):
        config = _scenario_config(synthetic_cache)
        executor = TrialExecutor(config, ["tinynet"])
        spec = derive_trial_spec(config, ["tinynet"], 0)
        rogue = TrialSpec(
            index=0,
            model="tinynet",
            kind=spec.kind,
            rate=spec.rate,
            sigma=spec.sigma,
            fault_seed=spec.fault_seed,
            scenario="not-configured",
            scenario_sha256="0" * 64,
        )
        with pytest.raises(CampaignError) as exc_info:
            executor._run_trial(rogue)
        assert exc_info.value.reason == "scenario-mismatch"
        tampered = TrialSpec(
            index=0,
            model="tinynet",
            kind=spec.kind,
            rate=spec.rate,
            sigma=spec.sigma,
            fault_seed=spec.fault_seed,
            scenario=spec.scenario,
            scenario_sha256="0" * 64,
        )
        with pytest.raises(CampaignError) as exc_info:
            executor._run_trial(tampered)
        assert exc_info.value.reason == "scenario-mismatch"

    def test_verify_catches_a_tampered_scenario_hash(self, synthetic_cache, tmp_path):
        from polygraphmr.journal import seal_record

        config = _scenario_config(synthetic_cache, n_trials=3)
        runner = CampaignRunner(config, tmp_path / "out")
        runner.run()
        assert verify_campaign(tmp_path / "out")["exit_code"] == 0
        journal = runner.journal.path
        lines = journal.read_bytes().splitlines(keepends=True)
        # re-seal trial 0 with a swapped scenario hash: the record's own seal
        # is valid but the splice breaks the chain at the next record
        target = json.loads(lines[1])
        prev = target["prev"]
        target["spec"]["scenario_sha256"] = "f" * 64
        line, _ = seal_record(target, prev)
        journal.write_bytes(lines[0] + (line + "\n").encode() + b"".join(lines[2:]))
        assert verify_campaign(tmp_path / "out")["exit_code"] != 0

    def test_report_on_legacy_campaign_groups_by_kind(self, synthetic_cache, tmp_path):
        config = CampaignConfig(cache=str(synthetic_cache), n_trials=4, seed=7)
        CampaignRunner(config, tmp_path / "out").run()
        report = report_campaign(tmp_path / "out")
        assert all(name.startswith("kind:") for name in report["scenarios"])
        assert sum(r["trials"] for r in report["scenarios"].values()) == 4

    def test_cli_scenario_sweep_and_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        status = main(
            [
                "--synthetic",
                str(tmp_path / "cache"),
                "--out",
                str(out),
                "--trials",
                "6",
                "--seed",
                "5",
                "--scenarios",
                ",".join(SWEEP),
            ]
        )
        assert status == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["completed"] == 6
        header = CampaignJournal(out / JOURNAL_NAME).read()[0]
        assert [s["name"] for s in header["config"]["scenarios"]] == list(SWEEP)

        assert main(["report", str(out), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "polygraphmr/campaign-report/v1"
        assert sum(r["trials"] for r in report["scenarios"].values()) == 6
        assert main(["report", str(out)]) == 0
        assert "survival" in capsys.readouterr().out

    def test_cli_unknown_scenario_exits_2(self, tmp_path, capsys):
        status = main(
            [
                "--synthetic",
                str(tmp_path / "cache"),
                "--out",
                str(tmp_path / "out"),
                "--scenarios",
                "definitely-not-a-scenario",
            ]
        )
        assert status == 2
        assert "unknown-scenario" in capsys.readouterr().err

    def test_report_without_journal_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "empty")]) == 2
        assert "journal-no-header" in capsys.readouterr().err
