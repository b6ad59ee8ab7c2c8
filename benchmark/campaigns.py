"""The ``campaign-cifar`` workload: back-to-back ``polygraphmr.campaign`` commands.

One operation is one trial.  Each command is a fresh ``benchmark/host.py
campaign`` process running ``campaign.main`` with the same arguments, so
every journal must carry the SHA-256 of the first (untimed warm-up) one.
That journal must pass ``python -m polygraphmr.campaign verify``, and its
first :data:`SERIAL_TRIALS` trial records must equal those of an untimed
serial (``--no-batch``) command.  Trials of a command count as good only
after those checks.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from programs import ROOT, WAIT_S, BenchFailure, counter_total, host_argv, launch, program_env
from stats import median, percentile, ref_kernel_ms

TRIALS = 32  # per command: two 16-trial chunks
# trials replayed through the serial path (about 0.7 s each): trial 0 is the
# batch engine's serial probe, trials 1-7 come from the batched kernel and
# cover both fault kinds of the sweep
SERIAL_TRIALS = 8
# The campaign CLI's --seed picks each trial's fault; it stays fixed so every
# run sweeps the same trials (and so reaches the same peak memory, which
# follows the largest group of identical faults in a chunk).  The benchmark
# seed varies the model data.
CAMPAIGN_SEED = 7


def build_cifar(cache: Path, seed: int) -> None:
    from polygraphmr.faults import build_synthetic_model
    from polygraphmr.naming import standard_roster

    # ten members including ORG, 10k val + 10k test samples, 10 classes
    build_synthetic_model(
        cache, "cifar", members=tuple(standard_roster()[:10]), n_val=10_000, n_test=10_000, seed=seed
    )


@dataclass
class Command:
    trials: int
    ok: int  # verified ok trials
    latency_s: float  # launch to exit
    setup_s: float  # launch to the CLI imported and ready
    report: dict  # written by host.py
    metrics: dict  # the program's metrics.json

    @property
    def rate(self) -> float:
        return self.ok / self.report["wall_s"]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def trial_records(journal: Path) -> list[dict]:
    """The journal's trial records without their hash-chain fields, which
    depend on the whole configuration (trial count included)."""

    records = []
    for line in journal.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("type") == "trial":
            records.append({k: v for k, v in record.items() if k not in ("prev", "sha256")})
    return records


class CampaignRun:
    def __init__(self, work: Path):
        self.work = work
        self.cache = work / "cache"
        self.count = 0
        self.reference: tuple[str, str] | None = None
        self.reference_dir: Path | None = None
        self.attempted = 0
        self.failed = 0
        self.first_failure = ""
        # the reference journal itself is wrong: every trial of the run fails
        self.reference_wrong = False

    def fail(self, reason: str) -> None:
        self.first_failure = self.first_failure or reason

    def launch(self, trials: int, *extra: str, trace: bool = False) -> tuple[Path, Command]:
        """One campaign command, launch to exit; its trials are not yet
        verified (``ok`` counts what the summary reports)."""

        out = self.work / f"out-{self.count:04d}"
        report_path = self.work / f"report-{self.count:04d}.json"
        self.count += 1
        argv = [
            "--cache", str(self.cache.relative_to(ROOT)),
            "--out", str(out),
            "--trials", str(trials),
            "--seed", str(CAMPAIGN_SEED),
            "--workers", "1",
            *extra,
        ]  # fmt: skip
        launched = time.monotonic()
        proc = launch(host_argv("campaign", report_path, argv, trace=trace), stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=WAIT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        latency = time.monotonic() - launched
        if not report_path.is_file():
            raise BenchFailure(f"campaign host exited {proc.returncode} without a report")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        summary = json.loads(stdout) if stdout.strip() else {}
        ok = summary["outcomes"]["ok"] if report["rc"] == 0 and summary.get("completed") == trials else 0
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8")) if ok else {}
        self.attempted += trials
        self.failed += trials - ok
        if ok < trials:
            self.fail(f"{out.name}: rc={report['rc']} summary={summary!r}")
        return out, Command(trials, ok, latency, report["ready_at"] - launched, report, metrics)

    def invoke(self, *, trace: bool = False) -> Command:
        """One :data:`TRIALS`-trial command whose journal and checkpoint must
        match the reference (the first command's)."""

        out, cmd = self.launch(TRIALS, trace=trace)
        digest = (sha256_file(out / "journal.jsonl"), sha256_file(out / "checkpoint.json")) if cmd.ok else None
        if self.reference is None:
            if cmd.ok != cmd.trials:
                raise BenchFailure(f"warm-up command failed: {self.first_failure}")
            self.reference, self.reference_dir = digest, out
        elif digest != self.reference:
            self.fail(f"{out.name}: journal/checkpoint sha256 {digest} != first run's {self.reference}")
            self.failed += cmd.ok
            cmd.ok = 0
        return cmd

    def run_until(self, deadline: float, *, trace: bool = False) -> list[Command]:
        """Commands back to back until ``deadline``; at least one."""

        done = [self.invoke(trace=trace)]
        while time.perf_counter() < deadline:
            done.append(self.invoke(trace=trace))
        return done

    def check_serial(self) -> Command:
        """The reference journal's first trials must equal, record for
        record, those of the serial path: the batched kernel is designed to
        be byte-identical to it."""

        out, cmd = self.launch(SERIAL_TRIALS, "--no-batch")
        expected = trial_records(out / "journal.jsonl") if cmd.ok else []
        got = trial_records(self.reference_dir / "journal.jsonl")[:SERIAL_TRIALS]
        if cmd.ok != SERIAL_TRIALS or got != expected:
            self.fail(f"batched trials 0..{SERIAL_TRIALS - 1} differ from the serial path ({out.name})")
            self.reference_wrong = True
        return cmd

    def verify_reference(self) -> None:
        """``python -m polygraphmr.campaign verify`` on the reference journal;
        every other journal of the run is byte-identical to it, so all fail
        together."""

        proc = subprocess.run(
            [sys.executable, "-m", "polygraphmr.campaign", "verify", str(self.reference_dir)],
            cwd=ROOT,
            env=program_env(),
            capture_output=True,
            text=True,
            timeout=WAIT_S,
        )
        if proc.returncode != 0:
            self.fail(f"campaign verify exit {proc.returncode}: {proc.stdout.strip()} {proc.stderr.strip()}")
            self.reference_wrong = True


def run(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    state = CampaignRun(work)
    build_cifar(state.cache, seed)
    probes = [ref_kernel_ms()]

    # warm-up: page cache, the reference journal; then the serial replay
    untimed = [state.invoke(), state.check_serial()]
    cpu0 = time.process_time()
    start = time.perf_counter()
    untraced = state.run_until(start + (seconds / 2 if trace else seconds))
    traced = state.run_until(start + seconds, trace=True) if trace else []
    window_s = time.perf_counter() - start
    client_cpu = time.process_time() - cpu0
    probes.append(ref_kernel_ms())
    state.verify_reference()
    if state.reference_wrong:  # nothing of the run is verified
        for cmd in untraced + traced:
            cmd.ok = 0

    attempted = sum(c.trials for c in untraced)
    ok = sum(c.ok for c in untraced)
    latencies_ms = [c.latency_s * 1000.0 for c in untraced]
    setups = [c.setup_s for c in untimed + untraced]
    result = {
        "e2e": {
            "goodput_per_s": median([c.rate for c in untraced]),
            "latency_p50_ms": median(latencies_ms),
            "latency_p90_ms": percentile(latencies_ms, 90.0),
            "ok_share": ok / attempted,
            "cpu_ms_per_op": median([c.report["cpu_s"] * 1000.0 / max(c.ok, 1) for c in untraced]),
            # one command's peak varies by a quarter between identical
            # commands; the window's highest is what a user must provision
            "peak_rss_mb": max(c.report["vmhwm_kb"] for c in untraced) / 1024.0,
            "setup_s": median(setups),
        },
        "details": {
            "operation": f"trial; latency samples are whole {TRIALS}-trial commands, launch to exit",
            "commands": len(untraced),
            "trials": attempted,
            "latency_samples": len(latencies_ms),
            "command_latency_ms": latencies_ms,
            "setup_samples_s": setups,
            "journal_sha256": state.reference[0],
            "host.ref_kernel_ms": probes,
        },
        "layers": {},
        "attempted": state.attempted,
        "failed": state.attempted if state.reference_wrong else state.failed,
        "failure": state.first_failure,
    }
    if trace and not state.reference_wrong:
        result["layers"] = trace_layers(untraced, traced, client_cpu / window_s, probes)
    return result


def trace_layers(untraced: list[Command], traced: list[Command], client_share: float, probes) -> dict:
    trials = sum(c.trials for c in traced)
    cpu = sum(c.report["cpu_s"] for c in traced)
    spans: dict[str, list[float]] = {}
    for c in traced:
        for name, (seconds, calls) in c.report["self"].items():
            total = spans.setdefault(name, [0.0, 0])
            total[0] += seconds
            total[1] += calls
    layers = {}
    for name, (seconds, calls) in spans.items():
        layers[f"{name}.us_per_op"] = seconds * 1e6 / trials
        layers[f"{name}.calls_per_op"] = calls / trials
    total = {k: sum(counter_total(c.metrics, k) for c in traced) for k in (
        "campaign_trials_total",
        "campaign_batched_trials_total",
        "campaign_batch_fallback_total",
        "artifact_cache_hits_total",
        "artifact_cache_misses_total",
    )}  # fmt: skip
    lookups = total["artifact_cache_hits_total"] + total["artifact_cache_misses_total"]
    layers.update(
        {
            "batching.batched_share": total["campaign_batched_trials_total"] / total["campaign_trials_total"],
            "batching.fallbacks": total["campaign_batch_fallback_total"] / trials,
            "cache.hit_ratio": total["artifact_cache_hits_total"] / lookups if lookups else 0.0,
            "trace.coverage_share": sum(s for s, _ in spans.values()) / cpu,
            "trace.overhead_ratio": median([c.rate for c in untraced]) / median([c.rate for c in traced]) - 1.0,
            "client.cpu_share": client_share,
            "host.ref_kernel_ms": median(probes),
        }
    )
    return layers
