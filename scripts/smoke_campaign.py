#!/usr/bin/env python3
"""End-to-end smoke test for the campaign runner: parallel speedup,
serial≡parallel byte-identity, and SIGTERM-drain/resume of a 4-worker run.

Five phases, all against the same 4-model synthetic cache::

    PYTHONPATH=src python scripts/smoke_campaign.py

1. **Equivalence + speedup** — a 16-trial campaign with ``--workers 4`` must
   produce a ``journal.jsonl`` byte-identical to the serial run's and (with
   each trial padded by ``--trial-sleep``, so the comparison measures the
   executor, not the model) complete at least 2x faster wall-clock.
2. **Kill/drain** — SIGTERM the 4-worker run mid-campaign; every worker
   finishes its in-flight trial and journals it (exit 3, no lost records).
3. **Resume** — ``--resume`` completes the interrupted run; the merged
   journal is byte-identical to the serial reference, every index exactly
   once.
4. **Scenario sweep** — a 3-scenario declarative sweep
   (``--scenarios channel-bitflip-10pct,quantize-4bit,stuck-at-zero-1pct``)
   is SIGKILLed mid-run, resumed to completion, byte-compared against both
   a straight serial run and a ``--workers 4`` run, audited with ``verify``
   (exit 0), and its ``report`` must reconcile per-scenario trial counts
   exactly with the journal.
5. **Batched identity + speedup** — a sleep-free 64-trial campaign runs
   at batch size 1 (``--no-batch``: every trial on its own) and at
   ``--batch-size 16``, serially and with 4 workers; every journal and
   checkpoint must be byte-identical to the batch-size-1 run and verify
   exit 0, the serial batched run must fit the decision gate exactly once
   per model (its ``metrics.json``), and it must spend at least 1.5x less
   in-run trial time: the sum of each run's ``campaign_trial_seconds``
   histogram.  With no sleep padding and no interpreter start-up in it,
   that ratio measures the batched kernels' compute against per-trial
   execution; the wall-clock ratio is printed next to it.

Every phase boundary is additionally audited with ``python -m
polygraphmr.campaign verify`` — after the serial run, after the shard
merge, after the SIGTERM kill (shards still present), and after the
resume — plus one negative check that a single flipped byte makes verify
fail with exit 3 naming the damaged record.

Exits 0 on success; any deviation is a hard failure.  Run by CI on every
push.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from polygraphmr.campaign import CampaignJournal, scan_campaign  # noqa: E402
from polygraphmr.metrics import METRICS_NAME, load_registry  # noqa: E402

N_TRIALS = 16
N_MODELS = 4
TRIAL_SLEEP_S = 0.2
MIN_SPEEDUP = 2.0
BATCHED_TRIALS = 64
BATCH_SIZE = 16
MIN_BATCHED_SPEEDUP = 1.5
SPEEDUP_RETRIES = 3  # shared CI runners can blip; retry the timing, not the bytes
POLL_S = 0.05
DEADLINE_S = 300.0
ENV = {"PYTHONPATH": str(REPO_ROOT / "src")}


SCENARIOS = ("channel-bitflip-10pct", "quantize-4bit", "stuck-at-zero-1pct")


def campaign_cmd(
    cache: Path,
    out: Path,
    *,
    workers: int,
    resume: bool = False,
    scenarios: bool = False,
    batch_size: int | None = None,
    trials: int = N_TRIALS,
    trial_sleep: float = TRIAL_SLEEP_S,
) -> list[str]:
    cmd = [
        sys.executable,
        "-m",
        "polygraphmr.campaign",
        "--synthetic",
        str(cache),
        "--synthetic-models",
        str(N_MODELS),
        "--out",
        str(out),
        "--trials",
        str(trials),
        "--seed",
        "7",
        "--timeout",
        "60",
        "--trial-sleep",
        str(trial_sleep),
        "--workers",
        str(workers),
    ]
    if scenarios:
        cmd += ["--scenarios", ",".join(SCENARIOS)]
    if resume:
        cmd.append("--resume")
    # phases 1-4 time and kill the per-trial executor: their speedup floor
    # and mid-run kill windows assume one sleep per trial, which batch
    # sizes above 1 amortize away -- so they run at batch size 1, where
    # every trial runs on its own; phase 5 passes a batch size
    cmd += ["--no-batch"] if batch_size is None else ["--batch-size", str(batch_size)]
    return cmd


def timed_run(cache: Path, out: Path, *, workers: int, **options) -> tuple[float, dict]:
    start = time.monotonic()
    proc = subprocess.run(
        campaign_cmd(cache, out, workers=workers, **options),
        env=ENV,
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: workers={workers} run exited {proc.returncode}: {proc.stderr}")
    return elapsed, json.loads(proc.stdout)


def verify_dir(out: Path, label: str) -> dict:
    """Run ``campaign verify --json`` against ``out``; exit-0 is mandatory."""

    proc = subprocess.run(
        [sys.executable, "-m", "polygraphmr.campaign", "verify", str(out), "--json"],
        env=ENV,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: verify ({label}) exited {proc.returncode}: {proc.stdout}{proc.stderr}")
    report = json.loads(proc.stdout)
    print(
        f"OK: verify ({label}): {report['records_verified']} record(s), "
        f"{report['trials']} trial(s) replay-match"
    )
    return report


def verify_detects_flipped_byte(out: Path) -> None:
    """Negative control: corrupt one byte in a copy of the campaign and
    verify must fail with exit 3, naming the damaged record."""

    import shutil

    damaged = out.parent / (out.name + "-damaged")
    shutil.copytree(out, damaged)
    raw = bytearray((damaged / "journal.jsonl").read_bytes())
    raw[len(raw) // 2] ^= 0x01
    (damaged / "journal.jsonl").write_bytes(bytes(raw))
    proc = subprocess.run(
        [sys.executable, "-m", "polygraphmr.campaign", "verify", str(damaged), "--json"],
        env=ENV,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 3:
        raise SystemExit(f"FAIL: verify of damaged journal exited {proc.returncode}, expected 3")
    report = json.loads(proc.stdout)
    if not report.get("first_bad") or report["first_bad"].get("line") is None:
        raise SystemExit(f"FAIL: damaged-journal report names no offending record: {report}")
    print(
        f"OK: flipped byte detected (exit 3) at {report['first_bad']['file']} "
        f"line {report['first_bad']['line']}"
    )


def _bytes(out: Path) -> tuple[bytes, bytes]:
    return (out / "journal.jsonl").read_bytes(), (out / "checkpoint.json").read_bytes()


def n_trials_journalled(out: Path) -> int:
    try:
        return len(scan_campaign(out).trials)
    except Exception:  # torn mid-write while we poll — count what verifies
        return 0


def phase_equivalence_and_speedup(tmp: Path) -> None:
    cache = tmp / "cache"
    serial_out, parallel_out = tmp / "serial", tmp / "parallel"

    serial_s, serial_summary = timed_run(cache, serial_out, workers=1)
    parallel_s, parallel_summary = timed_run(cache, parallel_out, workers=4)

    serial_bytes = (serial_out / "journal.jsonl").read_bytes()
    parallel_bytes = (parallel_out / "journal.jsonl").read_bytes()
    if serial_bytes != parallel_bytes:
        raise SystemExit("FAIL: parallel merged journal differs from the serial journal")
    if (serial_out / "checkpoint.json").read_bytes() != (parallel_out / "checkpoint.json").read_bytes():
        raise SystemExit("FAIL: final checkpoints differ between serial and parallel")
    if serial_summary["outcomes"] != parallel_summary["outcomes"]:
        raise SystemExit(
            f"FAIL: outcome counts differ: {serial_summary['outcomes']} != {parallel_summary['outcomes']}"
        )
    print(f"OK: 4-worker journal byte-identical to serial ({len(serial_bytes)} bytes)")
    verify_dir(serial_out, "serial run")
    verify_dir(parallel_out, "4-worker merge")
    verify_detects_flipped_byte(serial_out)

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(f"serial {serial_s:.2f}s / parallel {parallel_s:.2f}s -> speedup {speedup:.2f}x")
    attempt = 1
    while speedup < MIN_SPEEDUP and attempt < SPEEDUP_RETRIES:
        attempt += 1
        print(f"speedup below {MIN_SPEEDUP}x; re-timing (attempt {attempt}/{SPEEDUP_RETRIES})")
        retry = tmp / f"retry-{attempt}"
        serial_s, _ = timed_run(cache, retry / "serial", workers=1)
        parallel_s, _ = timed_run(cache, retry / "parallel", workers=4)
        speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
        print(f"serial {serial_s:.2f}s / parallel {parallel_s:.2f}s -> speedup {speedup:.2f}x")
    if speedup < MIN_SPEEDUP:
        raise SystemExit(f"FAIL: parallel speedup {speedup:.2f}x < {MIN_SPEEDUP}x")
    print(f"OK: >= {MIN_SPEEDUP}x wall-clock speedup with 4 workers")


def phase_kill_and_resume(tmp: Path) -> None:
    cache = tmp / "cache"
    out = tmp / "killed"
    reference = (tmp / "serial" / "journal.jsonl").read_bytes()

    proc = subprocess.Popen(campaign_cmd(cache, out, workers=4), env=ENV)
    deadline = time.monotonic() + DEADLINE_S
    while n_trials_journalled(out) < 3:
        if proc.poll() is not None:
            raise SystemExit(f"FAIL: campaign exited ({proc.returncode}) before it could be killed")
        if time.monotonic() > deadline:
            proc.kill()
            raise SystemExit("FAIL: timed out waiting for the first parallel trials")
        time.sleep(POLL_S)
    proc.send_signal(signal.SIGTERM)
    proc.wait(timeout=120)
    interrupted = n_trials_journalled(out)
    if proc.returncode != 3:
        raise SystemExit(f"FAIL: SIGTERMed parallel run exited {proc.returncode}, expected 3")
    if interrupted >= N_TRIALS:
        print("note: SIGTERM landed after completion was unavoidable; journal already full")
    print(f"killed 4-worker run after {interrupted} journalled trial(s) (exit 3); resuming")
    verify_dir(out, "post-kill (shards intact)")

    resumed = subprocess.run(
        campaign_cmd(cache, out, workers=4, resume=True), env=ENV, capture_output=True, text=True
    )
    if resumed.returncode != 0:
        raise SystemExit(f"FAIL: resume exited {resumed.returncode}: {resumed.stderr}")
    summary = json.loads(resumed.stdout)
    trials = CampaignJournal(out / "journal.jsonl").trial_records()
    if summary["completed"] != N_TRIALS or sorted(trials) != list(range(N_TRIALS)):
        raise SystemExit(f"FAIL: resume left {sorted(trials)} / summary {summary}")
    if (out / "journal.jsonl").read_bytes() != reference:
        raise SystemExit("FAIL: resumed parallel journal differs from the serial reference")
    print(f"OK: resume completed all {N_TRIALS} trials; merged journal byte-identical to serial")
    verify_dir(out, "post-resume merge")


def phase_scenario_sweep(tmp: Path) -> None:
    """Declarative sweep: SIGKILL mid-run, resume, byte-identity, report."""

    import os

    cache = tmp / "cache"
    serial_out, parallel_out, killed_out = tmp / "sc-serial", tmp / "sc-parallel", tmp / "sc-killed"

    _, serial_summary = timed_run(cache, serial_out, workers=1, scenarios=True)
    _, parallel_summary = timed_run(cache, parallel_out, workers=4, scenarios=True)
    reference = (serial_out / "journal.jsonl").read_bytes()
    if (parallel_out / "journal.jsonl").read_bytes() != reference:
        raise SystemExit("FAIL: scenario sweep: 4-worker journal differs from serial")
    if serial_summary["outcomes"] != parallel_summary["outcomes"]:
        raise SystemExit("FAIL: scenario sweep: outcome counts differ serial vs 4-worker")
    print(f"OK: {len(SCENARIOS)}-scenario sweep byte-identical serial vs 4 workers")

    proc = subprocess.Popen(
        campaign_cmd(cache, killed_out, workers=4, scenarios=True),
        env=ENV,
        start_new_session=True,  # killpg must not reach the smoke runner itself
    )
    deadline = time.monotonic() + DEADLINE_S
    while n_trials_journalled(killed_out) < 3:
        if proc.poll() is not None:
            raise SystemExit(f"FAIL: scenario sweep exited ({proc.returncode}) before SIGKILL")
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            raise SystemExit("FAIL: timed out waiting for scenario-sweep trials")
        time.sleep(POLL_S)
    os.killpg(proc.pid, signal.SIGKILL)  # parent AND workers: a true crash
    proc.wait(timeout=120)
    print(f"SIGKILLed scenario sweep after {n_trials_journalled(killed_out)} journalled trial(s); resuming")

    resumed = subprocess.run(
        campaign_cmd(cache, killed_out, workers=4, resume=True, scenarios=True),
        env=ENV,
        capture_output=True,
        text=True,
    )
    if resumed.returncode != 0:
        raise SystemExit(f"FAIL: scenario-sweep resume exited {resumed.returncode}: {resumed.stderr}")
    if (killed_out / "journal.jsonl").read_bytes() != reference:
        raise SystemExit("FAIL: resumed scenario sweep differs from the serial reference")
    print("OK: SIGKILLed scenario sweep resumed; journal byte-identical to serial")
    verify_dir(killed_out, "scenario sweep post-resume")

    report_proc = subprocess.run(
        [sys.executable, "-m", "polygraphmr.campaign", "report", str(killed_out), "--json"],
        env=ENV,
        capture_output=True,
        text=True,
    )
    if report_proc.returncode != 0:
        raise SystemExit(f"FAIL: campaign report exited {report_proc.returncode}: {report_proc.stderr}")
    report = json.loads(report_proc.stdout)
    journalled = len(CampaignJournal(killed_out / "journal.jsonl").trial_records())
    per_scenario = {name: row["trials"] for name, row in report["scenarios"].items()}
    if sum(per_scenario.values()) != journalled or not set(per_scenario) <= set(SCENARIOS):
        raise SystemExit(
            f"FAIL: report does not reconcile with the journal: {per_scenario} vs {journalled} trial(s)"
        )
    print(f"OK: report reconciles with the journal: {per_scenario} == {journalled} trial(s)")


def trial_seconds(out: Path) -> float:
    """A finished run's summed in-run trial time: the ``campaign_trial_seconds``
    histogram sum in its ``metrics.json``, one observation per trial."""

    registry = load_registry(out / METRICS_NAME)
    hist = registry.histogram_for("campaign_trial_seconds") if registry is not None else None
    if hist is None or hist.count != BATCHED_TRIALS:
        count = None if hist is None else hist.count
        raise SystemExit(f"FAIL: {out.name} metrics.json observed {count} trial(s), want {BATCHED_TRIALS}")
    return hist.sum


def phase_batched_identity_and_speedup(tmp: Path) -> None:
    """The batch engine must be invisible on disk and must pay for itself.

    Sleep-free, so every second timed is compute: the batch-size-1 run
    (``--no-batch``) is the byte reference and the timing baseline, the
    serial batched run must match its bytes, fit the decision gate once per
    model and beat its summed in-run trial time by ``MIN_BATCHED_SPEEDUP``,
    and a 4-worker batched run must match its bytes too.  The in-run sums
    leave out interpreter start-up, which dominates both runs' wall-clock at
    this shape."""

    cache = tmp / "cache"
    sleep_free = {"trials": BATCHED_TRIALS, "trial_sleep": 0.0}

    def reference_and_batched(label: str) -> float:
        loop_out, batched_out = tmp / f"{label}-loop", tmp / f"{label}-serial"
        loop_wall, _ = timed_run(cache, loop_out, workers=1, **sleep_free)
        batched_wall, summary = timed_run(cache, batched_out, workers=1, batch_size=BATCH_SIZE, **sleep_free)
        if summary["completed"] != BATCHED_TRIALS:
            raise SystemExit(f"FAIL: {label} batched run completed {summary['completed']}/{BATCHED_TRIALS}")
        if _bytes(batched_out) != _bytes(loop_out):
            raise SystemExit(f"FAIL: {label} batched journal/checkpoint differ from the --no-batch run")
        registry = load_registry(batched_out / METRICS_NAME)
        hist = registry.histogram_for("decision_fit_seconds") if registry is not None else None
        fits = hist.count if hist is not None else None
        if fits != N_MODELS:
            raise SystemExit(f"FAIL: {label} batched run fitted the gate {fits} time(s), want one per model")
        loop_s, batched_s = trial_seconds(loop_out), trial_seconds(batched_out)
        speedup = loop_s / batched_s if batched_s > 0 else float("inf")
        print(
            f"in-run trial time: batch size 1 {loop_s:.2f}s / batched {batched_s:.2f}s -> "
            f"speedup {speedup:.2f}x (wall-clock {loop_wall:.2f}s / {batched_wall:.2f}s -> "
            f"{loop_wall / batched_wall:.2f}x)"
        )
        return speedup

    speedup = reference_and_batched("batched")
    verify_dir(tmp / "batched-serial", "batched-serial")
    parallel_out = tmp / "batched-4w"
    timed_run(cache, parallel_out, workers=4, batch_size=BATCH_SIZE, **sleep_free)
    if _bytes(parallel_out) != _bytes(tmp / "batched-loop"):
        raise SystemExit("FAIL: batched-4w journal/checkpoint differ from the --no-batch run")
    verify_dir(parallel_out, "batched-4w")
    print(f"OK: --batch-size {BATCH_SIZE} journals byte-identical to the --no-batch run (serial and 4-worker)")

    attempt = 1
    while speedup < MIN_BATCHED_SPEEDUP and attempt < SPEEDUP_RETRIES:
        attempt += 1
        print(f"batched speedup below {MIN_BATCHED_SPEEDUP}x; re-timing (attempt {attempt}/{SPEEDUP_RETRIES})")
        speedup = reference_and_batched(f"batched-retry-{attempt}")
    if speedup < MIN_BATCHED_SPEEDUP:
        raise SystemExit(f"FAIL: batched in-run speedup {speedup:.2f}x < {MIN_BATCHED_SPEEDUP}x over batch size 1")
    print(f"OK: >= {MIN_BATCHED_SPEEDUP}x sleep-free in-run speedup from batching")


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="polygraphmr-smoke-"))
    phase_equivalence_and_speedup(tmp)
    phase_kill_and_resume(tmp)
    phase_scenario_sweep(tmp)
    phase_batched_identity_and_speedup(tmp)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
