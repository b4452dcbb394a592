"""Shared infrastructure for the paper-reproduction benchmarks.

Each table/figure of the paper has one ``bench_*`` module that
regenerates its rows or series.  Benchmarks print their comparison rows
(run pytest with ``-s`` to see them) and attach the same data as
``benchmark.extra_info`` so the JSON export carries it.

The paper's chips have 120k-960k nets; pure Python reproduces the flows
on chips scaled down ~10^4x (DESIGN.md documents the substitution).  The
``BENCH_CHIP_SPECS`` mirror Table I's *relative* chip sizes.  By default
the expensive full-flow benches run the first ``DEFAULT_CHIP_COUNT``
chips; set ``REPRO_BENCH_FULL=1`` to run all eight, or
``REPRO_BENCH_QUICK=1`` to run only the smallest chip (the CI
regression-gate mode — minutes, not tens of minutes).

Persistence: the table benches serialize each run into a versioned
``BENCH_<bench>.json`` file at the repo root (``write_bench_record``),
so the perf trajectory accumulates across PRs and
``python -m repro.obs.regress`` can gate later runs against a committed
baseline.  Set ``REPRO_BENCH_DIR`` to redirect the files (CI writes the
current run next to, not over, the committed baseline) or
``REPRO_BENCH_PERSIST=0`` to disable persistence entirely.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

from repro.chip.generator import ChipSpec
from repro.obs import OBS
from repro.obs.resource import peak_rss_bytes

#: Scaled-down counterparts of Table I's eight chips (chips 5 and 8 are
#: the 32 nm designs and the largest, as in the paper).
BENCH_CHIP_SPECS: List[ChipSpec] = [
    ChipSpec("chip1", rows=2, row_width_cells=5, net_count=8, seed=101),
    ChipSpec("chip2", rows=2, row_width_cells=5, net_count=9, seed=102),
    ChipSpec("chip3", rows=2, row_width_cells=6, net_count=9, seed=103),
    ChipSpec("chip4", rows=3, row_width_cells=5, net_count=10, seed=104),
    ChipSpec("chip5", rows=3, row_width_cells=7, net_count=14, seed=105, tech="32nm"),
    ChipSpec("chip6", rows=3, row_width_cells=8, net_count=16, seed=106),
    ChipSpec("chip7", rows=4, row_width_cells=7, net_count=17, seed=107),
    ChipSpec("chip8", rows=4, row_width_cells=9, net_count=24, seed=108, tech="32nm"),
]

DEFAULT_CHIP_COUNT = 4

#: Schema of the persisted ``BENCH_*.json`` files.
BENCH_SCHEMA_NAME = "repro-bench"
BENCH_SCHEMA_VERSION = 1

#: Runs kept per bench file (oldest dropped first).
BENCH_MAX_RUNS = 50

REPO_ROOT = Path(__file__).resolve().parents[1]


def bench_mode() -> str:
    """The chip-coverage mode of this run: ``quick``/``default``/``full``.

    ``quick`` wins over ``full`` when both are set: the point of quick
    mode is a bounded CI runtime.
    """
    if os.environ.get("REPRO_BENCH_QUICK"):
        return "quick"
    if os.environ.get("REPRO_BENCH_FULL"):
        return "full"
    return "default"


def bench_specs() -> List[ChipSpec]:
    mode = bench_mode()
    if mode == "quick":
        return BENCH_CHIP_SPECS[:1]
    if mode == "full":
        return BENCH_CHIP_SPECS
    return BENCH_CHIP_SPECS[:DEFAULT_CHIP_COUNT]


@contextmanager
def bench_observability(enabled: bool = True):
    """Fresh ``OBS`` registry for one bench run, disabled again after.

    Hoists the reset/configure dance the table benches need so per-chip
    counters never bleed across rows (or into later benches), and the
    persistence writer sees exactly one run's worth of data.  Yields the
    observer while enabled, ``None`` when ``enabled`` is false (so call
    sites can gate on the yielded value).
    """
    if not enabled:
        yield None
        return
    OBS.reset()
    OBS.configure(enabled=True)
    try:
        yield OBS
    finally:
        OBS.reset()
        OBS.enabled = False


def environment_fingerprint() -> Dict[str, object]:
    """Where a bench run was measured (for reading the trajectory)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "mode": bench_mode(),
    }


def _git(*args: str) -> Optional[str]:
    """Stdout of ``git <args>`` run in the repo, or None outside a
    usable git checkout."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=str(REPO_ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def git_sha() -> Optional[str]:
    """The repo HEAD commit, or None outside a usable git checkout."""
    sha = (_git("rev-parse", "HEAD") or "").strip()
    return sha or None


def git_dirty() -> Optional[bool]:
    """Whether tracked files differ from HEAD (untracked files do not
    count), or None outside a usable git checkout.  A dirty run's
    figures may not reproduce at its ``git_sha``."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return None if status is None else bool(status.strip())


def bench_record_path(bench: str, directory: Optional[str] = None) -> Path:
    base = directory or os.environ.get("REPRO_BENCH_DIR") or str(REPO_ROOT)
    return Path(base) / f"BENCH_{bench}.json"


def write_bench_record(
    bench: str,
    wall_clock: Dict[str, float],
    work: Dict[str, float],
    columns: Optional[Dict[str, object]] = None,
    directory: Optional[str] = None,
    max_runs: int = BENCH_MAX_RUNS,
    resources: Optional[Dict[str, float]] = None,
) -> Optional[Path]:
    """Append one run to ``BENCH_<bench>.json``; returns the path.

    ``wall_clock`` holds noisy timings in seconds; ``work`` holds the
    deterministic quantities (labels popped, oracle calls, netlength …)
    the regression gate compares; ``columns`` carries free-form context
    rows (per-chip tables) that are recorded but never gated on;
    ``resources`` extends the machine-dependent resource telemetry
    (``peak_rss_bytes`` is always recorded — the regression gate reports
    this section but never fails on it).  Returns ``None`` when
    persistence is disabled via ``REPRO_BENCH_PERSIST=0``.
    """
    if os.environ.get("REPRO_BENCH_PERSIST", "1") == "0":
        return None
    path = bench_record_path(bench, directory)
    document: Dict[str, object] = {
        "schema": BENCH_SCHEMA_NAME,
        "version": BENCH_SCHEMA_VERSION,
        "bench": bench,
        "runs": [],
    }
    if path.exists():
        try:
            existing = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            existing = None
        if (
            isinstance(existing, dict)
            and existing.get("schema") == BENCH_SCHEMA_NAME
            and existing.get("bench") == bench
            and isinstance(existing.get("runs"), list)
        ):
            document["runs"] = existing["runs"]
    run: Dict[str, object] = {
        "env": environment_fingerprint(),
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "wall_clock": {k: round(float(v), 4) for k, v in sorted(wall_clock.items())},
        "work": dict(sorted(work.items())),
    }
    run_resources: Dict[str, float] = {"peak_rss_bytes": peak_rss_bytes()}
    if resources:
        run_resources.update(resources)
    run["resources"] = dict(sorted(run_resources.items()))
    if columns:
        run["columns"] = columns
    document["runs"].append(run)
    document["runs"] = document["runs"][-max_runs:]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    return path


def obs_work_counters(prefix: str = "") -> Dict[str, float]:
    """Snapshot the deterministic OBS counters for the ``work`` section.

    Counters are integers by construction; wall-clock histograms
    (``*_s``) are excluded so the section stays machine-independent.
    """
    out: Dict[str, float] = {}
    for name, value in OBS.counters.items():
        out[f"{prefix}{name}"] = int(value) if float(value).is_integer() else value
    return out


def print_table(title: str, header: List[str], rows: List[List]) -> None:
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    print("  " + "  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
