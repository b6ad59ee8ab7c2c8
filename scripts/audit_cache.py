#!/usr/bin/env python3
"""Audit a PolygraphMR artifact cache: per-model valid/corrupt/missing counts.

Usage::

    PYTHONPATH=src python scripts/audit_cache.py [--cache .repro_cache] \
        [--json] [--strict] [--fail-on-corrupt]

``--json`` emits the machine-readable manifest (consumed by the campaign
CLI's ``--audit-json`` and by CI).  Exit status is 0 unless ``--strict``
(fail on any corrupt *or missing* artifact) or ``--fail-on-corrupt`` (fail
on corrupt only; missing is tolerated) is given.  The scan itself never
crashes on a bad file — that is the whole point of the store.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polygraphmr.store import ArtifactStore  # noqa: E402


def format_table(cache) -> str:
    rows = [("model", "valid", "corrupt", "missing", "usable stems")]
    for name, manifest in sorted(cache.models.items()):
        usable = ",".join(manifest.usable_stems()) or "-"
        if len(usable) > 48:
            usable = usable[:45] + "..."
        rows.append((name, str(manifest.n_valid), str(manifest.n_corrupt), str(manifest.n_missing), usable))
    rows.append(("TOTAL", str(cache.n_valid), str(cache.n_corrupt), str(cache.n_missing), ""))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0 or i == len(rows) - 2:
            lines.append("  ".join("-" * widths[j] for j in range(len(widths))))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache", default=".repro_cache", help="cache root to audit")
    parser.add_argument("--json", action="store_true", help="emit the full manifest as JSON")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero if any artifact is corrupt or missing",
    )
    parser.add_argument(
        "--fail-on-corrupt",
        action="store_true",
        help="exit non-zero if any artifact is corrupt (missing is tolerated)",
    )
    args = parser.parse_args(argv)

    store = ArtifactStore(args.cache)
    cache = store.scan_all()
    if not cache.models:
        print(f"no model directories found under {args.cache!r}", file=sys.stderr)
        return 2

    if args.json:
        json.dump(cache.to_dict(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(format_table(cache))
        quarantined = sorted(store.quarantine.items())
        if quarantined:
            print(f"\nquarantined ({len(quarantined)}):")
            for path, reason in quarantined:
                print(f"  [{reason}] {path}")

    if args.strict and (cache.n_corrupt or cache.n_missing):
        return 1
    if args.fail_on_corrupt and cache.n_corrupt:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
