"""Launching the program's processes, pinning them, and reading their CPU
and memory."""

from __future__ import annotations

import functools
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One BLAS thread everywhere: the program runs as one single-threaded process
# and the client keeps the second core, so neither competes for the other's.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WAIT_S = 60.0


@functools.cache
def cpu_split() -> tuple[set[int], set[int]] | None:
    """``(program CPUs, benchmark CPUs)``: the program's process gets the
    first CPU this run may use, the client and everything else the rest, so
    the scheduler never puts a waking client on the program's core.
    ``None`` with fewer than two CPUs.  Computed once, before the benchmark
    pins itself."""

    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


def host_argv(cli: str, report: Path, argv: list[str], *, trace: bool = False) -> list[str]:
    """Command line of one ``benchmark/host.py`` invocation of ``cli``."""

    return [
        sys.executable, str(BENCH_DIR / "host.py"), cli,
        *(["--trace"] if trace else []),
        "--report", str(report),
        "--", *argv,
    ]  # fmt: skip


def launch(command: list[str], **popen) -> subprocess.Popen:
    """Start one program process, pinned to the program's CPU."""

    split = cpu_split()
    pin = None if split is None else (lambda: os.sched_setaffinity(0, split[0]))
    return subprocess.Popen(command, cwd=ROOT, env=program_env(), preexec_fn=pin, **popen)


class BenchFailure(Exception):
    """The program failed in a way that leaves nothing to measure."""


def counter_total(metrics: dict, name: str) -> float:
    """Sum of a counter over all its labels in a program ``metrics.json``."""

    return sum(c["value"] for c in metrics.get("counters", ()) if c["name"] == name)


def program_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of a live process from ``/proc/<pid>/stat``."""

    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_vmhwm_kb(pid: int | str) -> int:
    """Peak RSS of a process (``pid`` may be ``"self"``)."""

    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def stop(proc: subprocess.Popen) -> None:
    """SIGTERM, then SIGKILL if the process outlives the grace period; always
    reaps it."""

    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=WAIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
