"""Perf-regression gate over persisted bench records.

``python -m repro.obs.regress BASELINE.json CURRENT.json
--tolerance-pct N`` compares the latest run of two ``repro-bench``
files (written by ``benchmarks/common.write_bench_record``) and exits
nonzero on drift, so CI can hold every PR against a committed baseline.

Two classes of metric, gated differently:

* **work** — deterministic counters (labels popped, oracle calls, grid
  queries, netlength, vias …).  Same seeds + same code ⇒ same numbers
  on any machine, so these gate tightly: an increase beyond
  ``--tolerance-pct`` fails the run; a decrease beyond it is reported
  as an improvement (refresh the baseline to bank it).
* **wall_clock** — seconds, noisy on shared CI machines.  Reported
  always, gated only when ``--time-tolerance-pct`` is given.

Exit codes: 0 ok, 1 regression detected, 2 usage/format error
(including comparing runs from different bench modes — a quick-mode
run against a full-mode baseline compares different chips and is
rejected unless ``--allow-mode-mismatch``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

BENCH_SCHEMA_NAME = "repro-bench"


class BenchFormatError(ValueError):
    """The file is not a usable repro-bench record."""


def load_latest_run(path: str) -> Tuple[str, Dict[str, object]]:
    """Load ``path`` and return ``(bench_name, latest_run)``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise BenchFormatError(f"cannot read {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise BenchFormatError(f"{path} is not valid JSON: {error}") from error
    if not isinstance(document, dict) or document.get("schema") != BENCH_SCHEMA_NAME:
        raise BenchFormatError(
            f"{path}: not a {BENCH_SCHEMA_NAME} file "
            f"(schema={document.get('schema')!r})"
            if isinstance(document, dict)
            else f"{path}: not a JSON object"
        )
    runs = document.get("runs")
    if not isinstance(runs, list) or not runs:
        raise BenchFormatError(f"{path}: no recorded runs")
    run = runs[-1]
    if not isinstance(run, dict):
        raise BenchFormatError(f"{path}: latest run is not an object")
    return str(document.get("bench", "?")), run


class Finding:
    """One compared metric."""

    __slots__ = ("section", "name", "baseline", "current", "delta_pct", "status")

    def __init__(self, section, name, baseline, current, delta_pct, status):
        self.section = section
        self.name = name
        self.baseline = baseline
        self.current = current
        self.delta_pct = delta_pct
        self.status = status


def _compare_section(
    section: str,
    baseline: Dict[str, float],
    current: Dict[str, float],
    tolerance_pct: Optional[float],
) -> List[Finding]:
    """Compare one metric table; ``tolerance_pct=None`` = report only."""
    findings: List[Finding] = []
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        cur = current.get(name)
        if base is None:
            findings.append(Finding(section, name, None, cur, None, "new"))
            continue
        if cur is None:
            status = "FAIL" if tolerance_pct is not None else "missing"
            findings.append(Finding(section, name, base, None, None, status))
            continue
        base, cur = float(base), float(cur)
        if base == 0.0:
            delta = 0.0 if cur == 0.0 else float("inf")
        else:
            delta = (cur - base) / abs(base) * 100.0
        status = "ok"
        if tolerance_pct is not None and delta > tolerance_pct:
            status = "FAIL"
        elif tolerance_pct is not None and delta < -tolerance_pct:
            status = "improved"
        findings.append(Finding(section, name, base, cur, delta, status))
    return findings


def compare_runs(
    baseline: Dict[str, object],
    current: Dict[str, object],
    tolerance_pct: float,
    time_tolerance_pct: Optional[float] = None,
) -> List[Finding]:
    findings = _compare_section(
        "work",
        baseline.get("work") or {},
        current.get("work") or {},
        tolerance_pct,
    )
    findings += _compare_section(
        "wall_clock",
        baseline.get("wall_clock") or {},
        current.get("wall_clock") or {},
        time_tolerance_pct,
    )
    # Memory is machine-dependent: always report, never gate.
    findings += _compare_section(
        "resources",
        baseline.get("resources") or {},
        current.get("resources") or {},
        None,
    )
    return findings


def _run_label(run: Dict[str, object]) -> str:
    """A run's short commit, suffixed ``-dirty`` when it was measured on
    a working tree with uncommitted changes to tracked files."""
    label = (run.get("git_sha") or "unknown")[:12]
    return f"{label}-dirty" if run.get("git_dirty") else label


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def print_findings(findings: List[Finding], stream=None) -> None:
    stream = stream or sys.stdout
    rows = [("section", "metric", "baseline", "current", "delta", "status")]
    for finding in findings:
        delta = (
            "-"
            if finding.delta_pct is None
            else f"{finding.delta_pct:+.1f}%"
        )
        rows.append(
            (
                finding.section,
                finding.name,
                _fmt(finding.baseline),
                _fmt(finding.current),
                delta,
                finding.status,
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)),
            file=stream,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description="Compare two bench records and fail on work-counter drift",
    )
    parser.add_argument("baseline", help="committed BENCH_*.json baseline")
    parser.add_argument("current", help="BENCH_*.json of the run under test")
    parser.add_argument(
        "--tolerance-pct", type=float, default=10.0, metavar="N",
        help="allowed increase of deterministic work counters (default 10)",
    )
    parser.add_argument(
        "--time-tolerance-pct", type=float, default=None, metavar="N",
        help="also gate wall-clock seconds (off by default: CI noise)",
    )
    parser.add_argument(
        "--allow-mode-mismatch", action="store_true",
        help="compare runs recorded under different REPRO_BENCH_* modes",
    )
    args = parser.parse_args(argv)

    try:
        base_bench, base_run = load_latest_run(args.baseline)
        cur_bench, cur_run = load_latest_run(args.current)
    except BenchFormatError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if base_bench != cur_bench:
        print(
            f"error: bench mismatch ({base_bench!r} vs {cur_bench!r})",
            file=sys.stderr,
        )
        return 2
    base_mode = (base_run.get("env") or {}).get("mode")
    cur_mode = (cur_run.get("env") or {}).get("mode")
    if base_mode != cur_mode and not args.allow_mode_mismatch:
        print(
            f"error: bench mode mismatch ({base_mode!r} vs {cur_mode!r}); "
            "the runs cover different chips "
            "(--allow-mode-mismatch to compare anyway)",
            file=sys.stderr,
        )
        return 2

    findings = compare_runs(
        base_run, cur_run, args.tolerance_pct, args.time_tolerance_pct
    )
    print(
        f"bench {base_bench}: baseline {_run_label(base_run)} vs current "
        f"{_run_label(cur_run)} (work tolerance {args.tolerance_pct:g}%)"
    )
    print_findings(findings)
    failures = [f for f in findings if f.status == "FAIL"]
    improvements = [f for f in findings if f.status == "improved"]
    if improvements:
        print(
            f"{len(improvements)} metric(s) improved beyond tolerance — "
            "consider refreshing the baseline to lock the gain in"
        )
    if failures:
        print(
            f"REGRESSION: {len(failures)} metric(s) drifted beyond tolerance",
            file=sys.stderr,
        )
        return 1
    print("no regression detected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
