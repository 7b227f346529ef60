"""Correctness gate applied to every CLI run the benchmark makes.

A run yields a list of gate items `(name, ok)`.  An item fails when the
run exited nonzero, when an expected check is missing or failed, when an
unexpected check appears, or when a closed-form integer is not
reproduced exactly.  No stored float reference is used, so the gate works
on any seed.  `failed_frac` is the share of failed items.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import CHERN, CLUSTER_LEVELS, Workload

REPORT_FILES = ("report.csv", "report.json", "report.svg")


def report_dir(out_root: Path) -> Path | None:
    """The single `<config hash>` directory the CLI wrote under out_root."""
    found = sorted(p.parent for p in Path(out_root).glob("*/report.json"))
    return found[0] if len(found) == 1 else None


def report_digest(out_root: Path) -> dict | None:
    """sha256 of each report file, or None when no report was written."""
    rdir = report_dir(out_root)
    if rdir is None:
        return None
    return {name: hashlib.sha256((rdir / name).read_bytes()).hexdigest()
            for name in REPORT_FILES if (rdir / name).exists()}


def check_run(workload: Workload, exit_code: int, out_root: Path) -> list[tuple[str, bool]]:
    items = [("exit_code", exit_code == 0)]
    rdir = report_dir(out_root)
    report = json.loads((rdir / "report.json").read_text()) if rdir else {}
    items.append(("report_files",
                   rdir is not None and all((rdir / n).exists() for n in REPORT_FILES)))

    checks = {row["name"]: row for row in report.get("checks", [])}
    for name in workload.checks:
        items.append((f"check:{name}", checks.get(name, {}).get("passed") is True))
    for name in sorted(set(checks) - set(workload.checks)):
        items.append((f"unexpected:{name}", False))

    details = report.get("details", {})
    counts = {(r["power"], r["npoints"], r["level"]): r["measured_count"]
              for r in details.get("clusters", [])}
    for k, npts in workload.cluster_pairs:
        for m in CLUSTER_LEVELS:
            items.append((f"cluster_count:k{k}_N{npts}_m{m}",
                          counts.get((k, npts, m)) == k * CHERN))
    weyl = {r["power"]: r["measured"] for r in details.get("weyl", [])}
    for k, expected in sorted(workload.weyl_counts.items()):
        items.append((f"weyl_count:k{k}", weyl.get(k) == expected))
    return items


def same_reports(first: dict | None, second: dict | None) -> tuple[str, bool]:
    """Gate item: two runs of the same code and seed wrote identical bytes."""
    return ("identical_reports", first is not None and first == second)
