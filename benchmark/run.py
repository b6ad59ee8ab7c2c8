"""Benchmark entry point: ``python3 benchmark/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the repository root.

Builds the workload's synthetic inputs from ``--seed``, drives the program
(``src/polygraphmr``) through its CLIs for ``--seconds``, checks every
output, and prints as its last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named in
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it holds run details (sample counts, the
host-speed probe, the journal SHA-256).  Exits non-zero on any failed check.
See ``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import sys
import traceback

import programs

WORKLOADS = ("campaign-cifar", "serve-cifar")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="benchmark/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def declared_metrics(trace: bool) -> dict[str, str]:
    """``{name: unit}`` of the metrics this mode must print."""

    spec = json.loads((programs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an error, so every started process is stopped
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not (programs.SRC / "polygraphmr" / "__init__.py").is_file():
        print(f"error: no program sources under {programs.SRC}", file=sys.stderr)
        return 2
    os.environ.update(programs.THREAD_ENV)  # before numpy is imported
    split = programs.cpu_split()
    if split is not None:
        os.sched_setaffinity(0, split[1])  # the program's CPU stays its own
    sys.path.insert(0, str(programs.SRC))
    import campaigns
    import serve_load

    declared = declared_metrics(bool(args.trace))
    work = programs.ROOT / ".bench_work" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        module = serve_load if args.workload == "serve-cifar" else campaigns
        result = module.run(args.seed, args.seconds, bool(args.trace), work)
    except programs.BenchFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - any crash is a failed run, never a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run uses it

    values = result["layers"] if args.trace else result["e2e"]
    unknown = sorted(set(values) - set(declared))
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
        return 1
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in declared.items()}
    correct = result["failed"] == 0
    if not correct:
        print(f"error: {result['failed']} of {result['attempted']} operations failed: {result['failure']}", file=sys.stderr)
    print(json.dumps({"details": result["details"]}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
