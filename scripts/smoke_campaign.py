#!/usr/bin/env python3
"""End-to-end smoke test for the campaign runner: parallel speedup,
serial≡parallel byte-identity, and SIGTERM-drain/resume of a 4-worker run.

Five phases, all against the same 4-model synthetic cache::

    PYTHONPATH=src python scripts/smoke_campaign.py

1. **Equivalence + speedup** — a 16-trial campaign with ``--workers 4`` must
   produce a ``journal.jsonl`` byte-identical to the serial run's and (with
   each trial padded by ``--trial-sleep``, so the comparison measures the
   executor, not the model) complete at least 2x faster wall-clock.
2. **Kill/drain** — SIGTERM a 4-worker run mid-campaign; every worker
   finishes its in-flight trial and journals it (exit 3, no lost records).
   Trials are journalled in windows of 16 per model, so the phases that
   interrupt a run give every worker two windows (128 trials) and signal it
   once the first window is on disk.
3. **Resume** — first, in copies, ``verify`` (exit 3) and ``--resume``
   (exit 2) must refuse a shard whose chain is rooted outside the campaign
   (``journal-chain-broken``) and a shard's records under another spelling
   of its name (``journal-shard-alias``), and leave each copy unchanged;
   then ``--resume`` completes the
   interrupted run; the merged journal is byte-identical to an
   uninterrupted serial run, every index exactly once.
4. **Scenario sweep** — a 5-scenario declarative sweep
   (``--scenarios channel-bitflip-10pct,quantize-4bit,stuck-at-zero-1pct,``
   ``tensor-bitflip-0.1pct,element-bitflip-8``: dense faults, and sparse
   ones whose trials recompute only the samples they touch) is SIGKILLed
   mid-run, resumed to completion, byte-compared against both a straight
   serial run and a ``--workers 4`` run, audited with ``verify`` (exit 0),
   and its ``report`` must reconcile per-scenario trial counts exactly
   with the journal.
5. **Shared work, same bytes** — a sleep-free 64-trial campaign runs
   serially, with 4 workers, with ``--no-cache`` and with the ignored
   ``--no-batch`` flag; every journal and checkpoint must be byte-identical
   and verify exit 0.  From the serial and 4-worker runs' ``metrics.json``:
   one ``campaign_trial_seconds`` observation per trial, one decision-gate
   fit per model, and one stack per split per model
   (``ensemble_stacks_total``): the trials of a model share their stacks,
   gate and clean baseline.  The ``--no-cache`` run, whose store loads
   fresh arrays every trial, must still fit one gate per model, and no
   run may count a ``store_load_total{kind="probe"}`` load: members are
   planned from a directory listing, never a roster scan.  These counts do
   not depend on the host's speed.

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

from polygraphmr.batching import WINDOW_TRIALS  # noqa: E402
from polygraphmr.campaign import CampaignJournal, scan_campaign  # noqa: E402
from polygraphmr.journal import chain_genesis  # noqa: E402
from polygraphmr.metrics import METRICS_NAME, load_registry  # noqa: E402

N_TRIALS = 16
N_MODELS = 4
TRIAL_SLEEP_S = 0.2
MIN_SPEEDUP = 2.0
# runs that get interrupted: two journal windows per worker
KILL_TRIALS = 2 * WINDOW_TRIALS * N_MODELS
KILL_SLEEP_S = 0.03
SHARED_TRIALS = 64
SPEEDUP_RETRIES = 3  # shared CI runners can blip; retry the timing, not the bytes
POLL_S = 0.05
DEADLINE_S = 300.0
ENV = {"PYTHONPATH": str(REPO_ROOT / "src")}


# dense faults, then sparse ones (a trial gathers only the samples they touch)
SCENARIOS = (
    "channel-bitflip-10pct",
    "quantize-4bit",
    "stuck-at-zero-1pct",
    "tensor-bitflip-0.1pct",
    "element-bitflip-8",
)


def campaign_cmd(
    cache: Path,
    out: Path,
    *,
    workers: int,
    resume: bool = False,
    scenarios: bool = False,
    trials: int = N_TRIALS,
    trial_sleep: float = TRIAL_SLEEP_S,
    extra: tuple[str, ...] = (),
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
    return cmd + list(extra)


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


def _refused(cache: Path, copy: Path, options: dict, reason: str, label: str) -> None:
    """``campaign verify`` must exit 3 and ``--resume`` exit 2, both naming
    ``reason``, and neither may change a file of ``copy``."""

    before = {p.name: p.read_bytes() for p in copy.iterdir()}
    verify = subprocess.run(
        [sys.executable, "-m", "polygraphmr.campaign", "verify", str(copy), "--json"],
        env=ENV,
        capture_output=True,
        text=True,
    )
    named = json.loads(verify.stdout)["first_bad"]["reason"] if verify.returncode == 3 else None
    if named != reason:
        raise SystemExit(f"FAIL: verify with {label} exited {verify.returncode}: {verify.stdout}{verify.stderr}")
    proc = subprocess.run(
        campaign_cmd(cache, copy, workers=4, resume=True, **options), env=ENV, capture_output=True, text=True
    )
    if proc.returncode != 2 or not proc.stderr.startswith(f"campaign error: {reason}"):
        raise SystemExit(f"FAIL: resume with {label} exited {proc.returncode}: {proc.stderr}")
    if {p.name: p.read_bytes() for p in copy.iterdir()} != before:
        raise SystemExit(f"FAIL: verify or a refused resume changed the campaign directory ({label})")


def resume_refuses_foreign_and_aliased_shards(cache: Path, out: Path, options: dict) -> None:
    """Negative controls, each in its own copy of an interrupted campaign
    (``source`` is the first shard holding records):

    * ``journal.w09.jsonl`` holds ``source``'s records re-sealed from the
      anonymous genesis — a chain rooted outside this campaign
      (``journal-chain-broken``);
    * ``source`` is left empty and its records move to another spelling of
      its name, ``journal.w0NN.jsonl`` (``journal-shard-alias``).

    ``campaign verify`` must exit 3 and ``--resume`` exit 2 naming the
    reason, and every file of the copy must stay unchanged."""

    import shutil

    source = next(p for p in sorted(out.glob("journal.w*.jsonl")) if p.stat().st_size)
    foreign = out.parent / (out.name + "-foreign")
    shutil.copytree(out, foreign)
    records = CampaignJournal(source).read()
    CampaignJournal(foreign / "journal.w09.jsonl", genesis=chain_genesis()).append_many(records)
    _refused(cache, foreign, options, "journal-chain-broken", "a foreign-rooted shard")
    print(f"OK: verify and resume refused a shard re-sealed from {source.name} outside the campaign's root")

    aliased = out.parent / (out.name + "-alias")
    shutil.copytree(out, aliased)
    alias = source.name.replace("journal.w", "journal.w0", 1)
    (aliased / alias).write_bytes(source.read_bytes())
    (aliased / source.name).write_bytes(b"")
    _refused(cache, aliased, options, "journal-shard-alias", "an aliased shard")
    print(f"OK: verify and resume refused {source.name}'s records under the alias {alias}")


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
    long_run = {"trials": KILL_TRIALS, "trial_sleep": KILL_SLEEP_S}
    timed_run(cache, tmp / "long-serial", workers=1, **long_run)
    reference = (tmp / "long-serial" / "journal.jsonl").read_bytes()

    proc = subprocess.Popen(campaign_cmd(cache, out, workers=4, **long_run), env=ENV)
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
    if interrupted >= KILL_TRIALS:
        print("note: SIGTERM landed after completion was unavoidable; journal already full")
    print(f"killed 4-worker run after {interrupted} journalled trial(s) (exit 3); resuming")
    verify_dir(out, "post-kill (shards intact)")
    resume_refuses_foreign_and_aliased_shards(cache, out, long_run)

    resumed = subprocess.run(
        campaign_cmd(cache, out, workers=4, resume=True, **long_run), env=ENV, capture_output=True, text=True
    )
    if resumed.returncode != 0:
        raise SystemExit(f"FAIL: resume exited {resumed.returncode}: {resumed.stderr}")
    summary = json.loads(resumed.stdout)
    trials = CampaignJournal(out / "journal.jsonl").trial_records()
    if summary["completed"] != KILL_TRIALS or sorted(trials) != list(range(KILL_TRIALS)):
        raise SystemExit(f"FAIL: resume left {sorted(trials)} / summary {summary}")
    if (out / "journal.jsonl").read_bytes() != reference:
        raise SystemExit("FAIL: resumed parallel journal differs from the serial reference")
    print(f"OK: resume completed all {KILL_TRIALS} trials; merged journal byte-identical to serial")
    verify_dir(out, "post-resume merge")


def phase_scenario_sweep(tmp: Path) -> None:
    """Declarative sweep: SIGKILL mid-run, resume, byte-identity, report."""

    import os

    cache = tmp / "cache"
    serial_out, parallel_out, killed_out = tmp / "sc-serial", tmp / "sc-parallel", tmp / "sc-killed"
    long_run = {"trials": KILL_TRIALS, "trial_sleep": KILL_SLEEP_S, "scenarios": True}

    _, serial_summary = timed_run(cache, serial_out, workers=1, **long_run)
    _, parallel_summary = timed_run(cache, parallel_out, workers=4, **long_run)
    reference = (serial_out / "journal.jsonl").read_bytes()
    if (parallel_out / "journal.jsonl").read_bytes() != reference:
        raise SystemExit("FAIL: scenario sweep: 4-worker journal differs from serial")
    if serial_summary["outcomes"] != parallel_summary["outcomes"]:
        raise SystemExit("FAIL: scenario sweep: outcome counts differ serial vs 4-worker")
    print(f"OK: {len(SCENARIOS)}-scenario sweep byte-identical serial vs 4 workers")

    proc = subprocess.Popen(
        campaign_cmd(cache, killed_out, workers=4, **long_run),
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
        campaign_cmd(cache, killed_out, workers=4, resume=True, **long_run),
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


def run_metrics(out: Path):
    registry = load_registry(out / METRICS_NAME)
    if registry is None:
        raise SystemExit(f"FAIL: {out.name} wrote no readable {METRICS_NAME}")
    return registry


def phase_shared_work(tmp: Path) -> None:
    """Every trial runs on its own, and the trials of a model share their
    stacks, gate and clean baseline through the runtime.

    Sleep-free, 64 trials: the serial run is the byte reference for a
    4-worker run, a ``--no-cache`` run (no shared arrays, so every trial
    restacks) and a run passing the ignored ``--no-batch``.  The serial and
    4-worker runs must count one trial-time observation per trial, one gate
    fit per model and one stack per split per model; the ``--no-cache`` run
    one gate fit per model (its equal values keep the gate); and no run a
    roster-scan probe load.  Every check is a count or a byte comparison,
    so none depends on the host's speed."""

    cache = tmp / "cache"
    sleep_free = {"trials": SHARED_TRIALS, "trial_sleep": 0.0}
    reference_out = tmp / "shared-serial"
    timed_run(cache, reference_out, workers=1, **sleep_free)
    verify_dir(reference_out, "shared-serial")
    runs = {
        "shared-4w": {"workers": 4},
        "shared-no-cache": {"workers": 1, "extra": ("--no-cache",)},
        "shared-no-batch": {"workers": 1, "extra": ("--no-batch",)},
    }
    for label, options in runs.items():
        timed_run(cache, tmp / label, **options, **sleep_free)
        if _bytes(tmp / label) != _bytes(reference_out):
            raise SystemExit(f"FAIL: {label} journal/checkpoint differ from the serial run")
    verify_dir(tmp / "shared-4w", "shared-4w")
    print(f"OK: serial, 4-worker, --no-cache and --no-batch journals byte-identical ({SHARED_TRIALS} trials)")

    for out in (reference_out, tmp / "shared-4w"):
        registry = run_metrics(out)
        trials = registry.histogram_for("campaign_trial_seconds")
        fits = registry.histogram_for("decision_fit_seconds")
        counts = {
            "trial-time observations": (trials.count if trials else None, SHARED_TRIALS),
            "gate fits": (fits.count if fits else None, N_MODELS),
            "val stacks": (registry.counter_value("ensemble_stacks_total", split="val"), N_MODELS),
            "test stacks": (registry.counter_value("ensemble_stacks_total", split="test"), N_MODELS),
        }
        for what, (got, want) in counts.items():
            if got != want:
                raise SystemExit(f"FAIL: {out.name} counted {got} {what}, want {want}")
        print(f"OK: {out.name}: {SHARED_TRIALS} trial-time observations, one gate fit and one stack per split per model")

    fits = run_metrics(tmp / "shared-no-cache").histogram_for("decision_fit_seconds")
    if (fits.count if fits else None) != N_MODELS:
        raise SystemExit(f"FAIL: shared-no-cache counted {fits.count if fits else None} gate fits, want {N_MODELS}")
    print("OK: shared-no-cache: one gate fit per model")
    for out in (reference_out, *(tmp / label for label in runs)):
        counters = run_metrics(out).to_dict()["counters"]
        probes = [r for r in counters if r["name"] == "store_load_total" and r["labels"].get("kind") == "probe"]
        if probes:
            raise SystemExit(f"FAIL: {out.name} counted roster-scan probe loads: {probes}")
    print("OK: no run scanned the roster (no store_load_total{kind=\"probe\"} series)")


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="polygraphmr-smoke-"))
    phase_equivalence_and_speedup(tmp)
    phase_kill_and_resume(tmp)
    phase_scenario_sweep(tmp)
    phase_shared_work(tmp)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
