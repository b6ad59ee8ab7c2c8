"""Parallel campaign executor: serial≡parallel byte-identity, stop/resume
draining, and the SIGKILL kill-matrix (worker and parent)."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from polygraphmr.batching import WINDOW_TRIALS
from polygraphmr.cache import PLANE_PREFIX
from polygraphmr.campaign import (
    CHECKPOINT_NAME,
    JOURNAL_NAME,
    CampaignConfig,
    CampaignJournal,
    CampaignRunner,
    shard_journals,
    shard_name,
    verify_campaign,
)
from polygraphmr.errors import CampaignError
from polygraphmr.faults import corrupt_file_truncate
from polygraphmr.metrics import METRICS_NAME, load_registry, metrics_shards
from polygraphmr.parallel import ParallelCampaignRunner, trial_owner, worker_assignments

N_TRIALS = 16


def _shm_entries() -> set[str]:
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith(PLANE_PREFIX)}
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


def _config(cache, **overrides) -> CampaignConfig:
    base = dict(cache=str(cache), n_trials=N_TRIALS, seed=7, timeout_s=60.0)
    base.update(overrides)
    return CampaignConfig(**base)


def _fake_trial(spec):
    return {"model": spec.model, "kind": spec.kind}


class TestAssignment:
    def test_every_trial_owned_exactly_once(self):
        for workers in (1, 2, 3, 4, 7):
            assignments = worker_assignments(N_TRIALS, 4, workers)
            flat = sorted(i for idxs in assignments.values() for i in idxs)
            assert flat == list(range(N_TRIALS))

    def test_all_trials_of_a_model_share_one_worker(self):
        n_models = 4
        for workers in (2, 3, 4):
            for index in range(N_TRIALS):
                same_model = index % n_models
                assert trial_owner(index, n_models, workers) == trial_owner(
                    same_model, n_models, workers
                )

    def test_assignments_are_in_increasing_order_and_skip_done(self):
        assignments = worker_assignments(N_TRIALS, 4, 2, done={0, 5, 9})
        for idxs in assignments.values():
            assert idxs == sorted(idxs)
            assert not {0, 5, 9} & set(idxs)

    def test_bad_worker_count_is_refused(self, tmp_path):
        with pytest.raises(CampaignError) as exc_info:
            ParallelCampaignRunner(_config(tmp_path), tmp_path / "out", workers=0)
        assert exc_info.value.reason == "bad-workers"


class TestSerialParallelEquivalence:
    def test_merged_journal_checkpoint_and_summary_match_serial(self, multi_model_cache, tmp_path):
        """The tentpole guarantee: workers=1 and workers=4 produce the same
        bytes on disk as a plain serial run — journal and final checkpoint —
        and the same summary counts."""

        config = _config(multi_model_cache)
        serial = CampaignRunner(config, tmp_path / "serial").run()
        one = ParallelCampaignRunner(config, tmp_path / "w1", workers=1).run()
        four = ParallelCampaignRunner(config, tmp_path / "w4", workers=4).run()

        reference = (tmp_path / "serial" / JOURNAL_NAME).read_bytes()
        assert (tmp_path / "w1" / JOURNAL_NAME).read_bytes() == reference
        assert (tmp_path / "w4" / JOURNAL_NAME).read_bytes() == reference
        reference_ckpt = (tmp_path / "serial" / CHECKPOINT_NAME).read_bytes()
        assert (tmp_path / "w1" / CHECKPOINT_NAME).read_bytes() == reference_ckpt
        assert (tmp_path / "w4" / CHECKPOINT_NAME).read_bytes() == reference_ckpt

        for key in ("n_trials", "completed", "outcomes", "breakers"):
            assert one[key] == serial[key], key
            assert four[key] == serial[key], key
        assert four["failed_workers"] == []
        # shards were folded into the canonical journal and removed
        assert not shard_journals(tmp_path / "w4")
        # the acceptance criterion: the 4-worker merged journal verifies —
        # the re-linked chain, checkpoint-sealed head, and replay all hold
        for out in ("serial", "w1", "w4"):
            audit = verify_campaign(tmp_path / out)
            assert audit["ok"], (out, audit["first_bad"])
            assert audit["complete"] and audit["trials"] == N_TRIALS

    def test_scenario_sweep_is_byte_identical_across_workers(self, multi_model_cache, tmp_path):
        """A 3-scenario sweep inherits the guarantee unchanged: the scenario
        draw lives in derive_trial_spec, so workers=4 produces the same
        journal and checkpoint bytes as a serial run, and the merged
        directory still verifies exit 0."""

        from polygraphmr.campaign import scenarios_config_field
        from polygraphmr.scenarios import resolve_scenarios

        config = _config(
            multi_model_cache,
            n_trials=12,
            scenarios=scenarios_config_field(
                resolve_scenarios(["channel-bitflip-10pct", "quantize-4bit", "stuck-at-zero-1pct"])
            ),
        )
        serial = CampaignRunner(config, tmp_path / "serial").run()
        four = ParallelCampaignRunner(config, tmp_path / "w4", workers=4).run()

        assert (tmp_path / "w4" / JOURNAL_NAME).read_bytes() == (
            tmp_path / "serial" / JOURNAL_NAME
        ).read_bytes()
        assert (tmp_path / "w4" / CHECKPOINT_NAME).read_bytes() == (
            tmp_path / "serial" / CHECKPOINT_NAME
        ).read_bytes()
        assert four["completed"] == serial["completed"] == 12
        audit = verify_campaign(tmp_path / "w4")
        assert audit["exit_code"] == 0, audit["first_bad"]
        specs = [
            r["spec"]
            for r in CampaignJournal(tmp_path / "w4" / JOURNAL_NAME).trial_records().values()
        ]
        assert all(s.get("scenario") and s.get("scenario_sha256") for s in specs)

    def test_equivalence_survives_tripping_breakers(self, multi_model_cache, tmp_path):
        """Corrupt one member of one model so its circuit breaker trips
        mid-campaign: breaker evolution is per-model, so the parallel journal
        must still match the serial one byte for byte."""

        victim_dir = multi_model_cache / "net-01"
        for split in ("val", "test"):
            target = victim_dir / f"pp-Gamma_2.{split}.probs.npz"
            corrupt_file_truncate(target, target, keep_fraction=0.2, seed=5)
        config = _config(multi_model_cache, failure_threshold=2, cooldown_ticks=1)

        serial = CampaignRunner(config, tmp_path / "serial").run()
        four = ParallelCampaignRunner(config, tmp_path / "w4", workers=4).run()

        assert serial["breakers"], "stressor failed to trip any breaker"
        assert four["breakers"] == serial["breakers"]
        assert (tmp_path / "w4" / JOURNAL_NAME).read_bytes() == (
            tmp_path / "serial" / JOURNAL_NAME
        ).read_bytes()

    def test_metrics_stay_out_of_band_of_the_byte_identity(self, tmp_path, bare_cache):
        """Metrics collection (always on) must never leak into journal or
        checkpoint bytes: serial and 4-worker runs stay byte-identical while
        each also writes a merged ``metrics.json`` and cleans up its metric
        shards."""

        cache = bare_cache("a", "b", "c", "d")
        config = _config(cache)
        CampaignRunner(config, tmp_path / "serial", trial_fn=_fake_trial).run()
        ParallelCampaignRunner(
            config, tmp_path / "w4", workers=4, trial_fn=_fake_trial
        ).run()

        assert (tmp_path / "w4" / JOURNAL_NAME).read_bytes() == (
            tmp_path / "serial" / JOURNAL_NAME
        ).read_bytes()
        assert (tmp_path / "w4" / CHECKPOINT_NAME).read_bytes() == (
            tmp_path / "serial" / CHECKPOINT_NAME
        ).read_bytes()

        for out in (tmp_path / "serial", tmp_path / "w4"):
            merged = load_registry(out / METRICS_NAME)
            assert merged is not None
            assert merged.counter_total("campaign_trials_total") == N_TRIALS
            hist = merged.histogram_for("campaign_trial_seconds")
            assert hist is not None and hist.count == N_TRIALS
            assert not metrics_shards(out)  # shards folded then deleted
        parallel_metrics = load_registry(tmp_path / "w4" / METRICS_NAME)
        assert parallel_metrics.gauge_value("campaign_workers") == 4.0

    def test_more_workers_than_models_is_clamped(self, tmp_path, bare_cache):
        cache = bare_cache("a", "b")
        config = _config(cache, n_trials=6)
        summary = ParallelCampaignRunner(
            config, tmp_path / "out", workers=5, trial_fn=_fake_trial
        ).run()
        assert summary["completed"] == 6
        assert summary["workers"] == 2  # one worker per model is the maximum useful

    def test_fresh_parallel_run_refuses_existing_journal(self, tmp_path, bare_cache):
        cache = bare_cache()
        config = _config(cache, n_trials=2)
        ParallelCampaignRunner(config, tmp_path / "out", workers=2, trial_fn=_fake_trial).run()
        with pytest.raises(CampaignError) as exc_info:
            ParallelCampaignRunner(config, tmp_path / "out", workers=2, trial_fn=_fake_trial).run()
        assert exc_info.value.reason == "journal-exists"


class TestStopAndResume:
    def test_request_stop_drains_and_resume_completes(self, multi_model_cache, tmp_path):
        # eight 0.1 s trials per worker: the sleep alone outlasts the 0.3 s
        # stop timer, however fast the trial body itself runs
        config = _config(multi_model_cache, n_trials=2 * N_TRIALS, trial_sleep_s=0.1)
        CampaignRunner(config, tmp_path / "serial").run()

        shm_before = _shm_entries()
        runner = ParallelCampaignRunner(config, tmp_path / "par", workers=4)
        threading.Timer(0.3, runner.request_stop).start()
        partial = runner.run()
        assert partial["stopped_early"]
        assert partial["failed_workers"] == []  # SIGTERM drain is a clean exit
        assert _shm_entries() == shm_before  # no plane segment outlives the run
        assert 0 < partial["completed"] < config.n_trials
        assert shard_journals(tmp_path / "par")  # shards kept for resume

        # resume under a *different* worker count — parallelism is an
        # execution detail, not part of the campaign's identity
        resumed = ParallelCampaignRunner(config, tmp_path / "par", workers=2).run(resume=True)
        assert resumed["completed"] == config.n_trials
        assert not resumed["stopped_early"]
        assert (tmp_path / "par" / JOURNAL_NAME).read_bytes() == (
            tmp_path / "serial" / JOURNAL_NAME
        ).read_bytes()
        assert (tmp_path / "par" / CHECKPOINT_NAME).read_bytes() == (
            tmp_path / "serial" / CHECKPOINT_NAME
        ).read_bytes()
        assert verify_campaign(tmp_path / "par")["ok"]

    def test_serial_runner_resumes_and_merges_a_parallel_run(self, multi_model_cache, tmp_path):
        config = _config(multi_model_cache, n_trials=2 * N_TRIALS, trial_sleep_s=0.1)
        CampaignRunner(config, tmp_path / "serial").run()

        runner = ParallelCampaignRunner(config, tmp_path / "par", workers=4)
        threading.Timer(0.3, runner.request_stop).start()
        assert runner.run()["stopped_early"]

        summary = CampaignRunner(config, tmp_path / "par").run(resume=True)
        assert summary["completed"] == config.n_trials
        assert not shard_journals(tmp_path / "par")
        assert (tmp_path / "par" / JOURNAL_NAME).read_bytes() == (
            tmp_path / "serial" / JOURNAL_NAME
        ).read_bytes()

    def test_torn_shard_tail_is_repaired_on_resume(self, multi_model_cache, tmp_path):
        # four 0.1 s trials per worker: the sleep alone outlasts the 0.2 s
        # stop timer, so the run is interrupted with its shards on disk
        # however fast the trial body runs
        config = _config(multi_model_cache, trial_sleep_s=0.1)
        runner = ParallelCampaignRunner(config, tmp_path / "par", workers=4)
        threading.Timer(0.2, runner.request_stop).start()
        assert runner.run()["stopped_early"]
        shard = tmp_path / "par" / shard_name(0)
        with open(shard, "ab") as fh:
            fh.write(b'{"type":"trial","index":99,"torn')  # SIGKILL mid-append

        resumed = ParallelCampaignRunner(config, tmp_path / "par", workers=4).run(resume=True)
        assert resumed["completed"] == N_TRIALS
        trials = CampaignJournal(tmp_path / "par" / JOURNAL_NAME).trial_records()
        assert sorted(trials) == list(range(N_TRIALS))  # exactly once each


def _child_pids(parent_pid: int) -> list[int]:
    """Direct children of ``parent_pid`` via /proc (ppid is the 4th stat
    field, counted after the parenthesised comm)."""

    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = (Path("/proc") / entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        if fields and int(fields[1]) == parent_pid:
            children.append(int(entry))
    return children


def _wait_gone(pids: list[int], timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    for pid in pids:
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:
            raise AssertionError(f"pid {pid} still alive after {timeout}s")


class TestKillMatrix:
    """SIGKILL a random worker, and separately the parent, mid-campaign;
    ``--resume`` must complete with every index journalled exactly once,
    to the bytes of an uninterrupted serial run."""

    # two journal windows per worker, so the kill lands after the first
    # window's flush and before the second's
    N_TRIALS = 2 * WINDOW_TRIALS * 4

    def _cli(self, cache: Path, out: Path, *extra: str) -> list[str]:
        return [
            sys.executable,
            "-m",
            "polygraphmr.campaign",
            "--cache",
            str(cache),
            "--out",
            str(out),
            "--trials",
            str(self.N_TRIALS),
            "--seed",
            "7",
            "--workers",
            "4",
            "--trial-sleep",
            "0.02",
            *extra,
        ]

    def _env(self) -> dict:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def _wait_for_progress(self, out: Path, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if any(j.path.stat().st_size > 0 for j in shard_journals(out).values()):
                return
            time.sleep(0.05)
        raise AssertionError("no worker journalled a trial in time")

    @pytest.mark.parametrize("victim", ["worker", "parent"])
    def test_sigkill_then_resume_matches_serial(self, victim, multi_model_cache, tmp_path):
        serial_out = tmp_path / "serial"
        reference = subprocess.run(
            self._cli(multi_model_cache, serial_out, "--workers", "1"),
            env=self._env(),
            capture_output=True,
            timeout=300,
        )
        assert reference.returncode == 0, reference.stderr.decode()

        out = tmp_path / "out"
        shm_before = _shm_entries()
        proc = subprocess.Popen(
            self._cli(multi_model_cache, out),
            env=self._env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,  # survives pytest's process group
        )
        try:
            self._wait_for_progress(out)
            workers = _child_pids(proc.pid)
            assert workers, "campaign spawned no worker processes"
            if victim == "worker":
                os.kill(workers[len(workers) // 2], signal.SIGKILL)
                proc.wait(timeout=120)
                # a dead worker leaves its trials unfinished: incomplete run
                assert proc.returncode == 3
            else:
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=120)
                # orphaned workers drain their assignments and exit on their own
                _wait_gone(workers)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.stdout.close()
            proc.stderr.close()

        # the plane segment is unlinked before any fork, so even SIGKILL
        # mid-campaign cannot strand a /dev/shm entry
        assert _shm_entries() == shm_before

        resume = subprocess.run(
            self._cli(multi_model_cache, out, "--resume"),
            env=self._env(),
            capture_output=True,
            timeout=300,
        )
        assert resume.returncode == 0, resume.stderr.decode()
        summary = json.loads(resume.stdout)
        assert summary["completed"] == self.N_TRIALS

        trials = CampaignJournal(out / JOURNAL_NAME).trial_records()
        assert sorted(trials) == list(range(self.N_TRIALS))
        assert not shard_journals(out)
        raw = (out / JOURNAL_NAME).read_text().splitlines()
        indices = [json.loads(line)["index"] for line in raw if '"trial"' in line]
        assert indices == sorted(set(indices)), "an index was journalled twice"
        assert (out / JOURNAL_NAME).read_bytes() == (serial_out / JOURNAL_NAME).read_bytes()
        assert (out / CHECKPOINT_NAME).read_bytes() == (
            serial_out / CHECKPOINT_NAME
        ).read_bytes()
        assert verify_campaign(out)["exit_code"] == 0
        assert _shm_entries() == shm_before
