"""The program's process in a benchmark run.

``python benchmark/host.py campaign|serve [--trace] --report FILE -- <argv>``
runs one CLI invocation in this process: ``polygraphmr.campaign.main(argv)``
(``python -m polygraphmr.campaign``) or ``polygraphmr.serve.main(argv)``
(``polygraphmr-serve``).  With ``--trace`` the layer functions are wrapped
first (``spans.install``).  When ``main`` returns, FILE receives one JSON
object: the ``time.monotonic()`` at which the CLI was imported and ready
(``ready_at``; the launcher's clock is the same on Linux), ``main``'s exit
code, wall seconds and CPU seconds (user + sys, children too), the
process's peak RSS (VmHWM), and with ``--trace`` the per-layer self times
(``self``: ``{span name: [seconds, calls]}``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from programs import proc_vmhwm_kb


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmark/host.py")
    parser.add_argument("cli", choices=("campaign", "serve"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--report", required=True)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_argv = argv[split + 1 :]

    if args.cli == "campaign":
        from polygraphmr import campaign as cli
    else:
        from polygraphmr import serve as cli
    ready_at = time.monotonic()
    recorder = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    rc = cli.main(cli_argv)
    report = {
        "ready_at": ready_at,
        "rc": rc,
        "wall_s": time.perf_counter() - start,
        "cpu_s": cpu_seconds() - cpu0,
        "vmhwm_kb": proc_vmhwm_kb("self"),
    }
    if recorder is not None:
        report["self"] = {name: [seconds, calls] for name, (seconds, calls) in recorder.drain().items()}
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
