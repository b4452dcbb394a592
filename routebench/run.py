"""Routing benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 routebench/run.py --workload flow_medium --seed 1 --seconds 15 --trace 0

Each run repeats set-up + one measured pass until the passes' measured
time reaches ``--seconds`` (set-up does not count), checks each pass's
output with the benchmark's own checker (routebench/check.py) and
prints, as its last stdout line, ``{"correct", "attempted", "failed",
"metrics"}``.  See routebench/README.md for the workloads and metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones (routebench/tracer.py), plus the tracing overhead.

Determinism: the quality figures (netlength, vias, DRC errors, global
congestion, failed nets) must be identical across every pass of a run
and across runs of the same code and seed; the latter are compared
through ``.routebench_state/`` in the working directory.  A mismatch is
a benchmark failure (``correct: false``), not noise.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = Path(".routebench_state")

#: Passes a run makes at the least.  The first pass of a process runs
#: ~15% slower (cold interpreter heap); it only warms up and checks
#: determinism, and its timings are left out of every metric.  A traced
#: run needs one more: traced and untraced warm passes alternate.
MIN_PASSES = 2
MIN_TRACED_PASSES = 3

#: A set-up faster than this is repeated after the passes (until the
#: set-ups add up to ``SETUP_TOPUP_S`` or number ``SETUP_TOPUP_MAX``),
#: so its median rests on many samples.  Every set-up and pass starts
#: after a full garbage collection, so one pass's garbage is not
#: collected on the next one's clock.
CHEAP_SETUP_S = 0.05
SETUP_TOPUP_S = 0.5
SETUP_TOPUP_MAX = 100

#: Layers that only run in set-up: reported from set-up spans.  Every
#: other layer is reported from the measured passes' spans.
SETUP_LAYERS = {"chip.generate_chip", "engine.session_init"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--chip-seed", type=int, default=None,
        help="route another chip of the workload's size class "
             "(held-out check; default: the workload's own chip seed)",
    )
    return parser.parse_args(argv)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, args, recorder):
    """Run passes until the time is up; returns (set-up times, passes,
    traced flag per pass, OBS counters per traced pass)."""
    from repro.obs import OBS

    setups, passes, traced_flags, counters = [], [], [], []

    def timed_setup():
        gc.collect()
        began = time.perf_counter()
        state = workload.setup(args.chip_seed, args.seed)
        setups.append(time.perf_counter() - began)
        return state

    min_passes = MIN_TRACED_PASSES if recorder is not None else MIN_PASSES
    measured = 0.0
    while len(passes) < min_passes or measured < args.seconds:
        traced = recorder is not None and len(passes) % 2 == 1
        if traced:
            recorder.install()
            recorder.phase = "setup"
        state = timed_setup()
        gc.collect()
        if traced:
            recorder.phase = "measured"
            OBS.reset()
            OBS.configure(enabled=True)
        try:
            pass_, raw = workload.run(state)
        finally:
            if traced:
                counters.append(dict(OBS.counters))
                OBS.reset()
                OBS.enabled = False
                recorder.uninstall()
        measured += sum(pass_.latencies)
        workload.assess(state, pass_, raw)
        passes.append(pass_)
        traced_flags.append(traced)
        del state, raw
    if statistics.median(setups) < CHEAP_SETUP_S:
        while sum(setups) < SETUP_TOPUP_S and len(setups) < SETUP_TOPUP_MAX:
            timed_setup()
    return setups, passes, traced_flags, counters


def deterministic_view(pass_):
    view = dict(pass_.quality)
    view["router_failed"] = pass_.router_failed
    view["check_failed"] = pass_.check_failed
    view["attempted"] = pass_.attempted
    return view


def check_determinism(args, workload, passes) -> bool:
    """Same code + seed must give the same quality figures, in this run
    and across runs (compared through the state directory)."""
    views = [deterministic_view(p) for p in passes]
    ok = True
    for index, view in enumerate(views[1:], start=1):
        if view != views[0]:
            print(f"nondeterministic: pass {index} {view} != pass 0 {views[0]}",
                  file=sys.stderr)
            ok = False
    chip_seed = args.chip_seed if args.chip_seed is not None else workload.spec.seed
    key = f"{workload.name}-chip{chip_seed}-seed{args.seed}-{source_digest()}.json"
    path = STATE_DIR / key
    if path.exists():
        previous = json.loads(path.read_text())
        if previous != json.loads(json.dumps(views[0])):
            print(f"nondeterministic across runs: {views[0]} != {previous} ({path})",
                  file=sys.stderr)
            ok = False
    else:
        STATE_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(views[0], sort_keys=True))
    return ok


def end_to_end(setups, passes, peak_rss):
    last = passes[-1]
    failed = len(last.router_failed) + len(last.check_failed)
    return {
        "setup_s": metric(statistics.median(setups[1:]), "s"),
        "route_s": metric(statistics.median(sum(p.latencies) for p in passes[1:]), "s"),
        "peak_rss_mb": metric(peak_rss, "MB"),
        "netlength_dbu": metric(last.quality["netlength_dbu"], "dbu"),
        "vias": metric(last.quality["vias"], "count"),
        "routed_share": metric(1.0 - failed / last.attempted, "share"),
    }


def per_layer(recorder, passes, traced_flags, counters):
    from tracer import ENTRY_POINTS

    traced = [p for p, t in zip(passes, traced_flags) if t]
    untraced = [p for p, t in zip(passes[1:], traced_flags[1:]) if not t]
    n = len(traced)
    out = {}
    phases = {phase: recorder.aggregate(phase) for phase in ("setup", "measured")}
    attributed = 0.0
    for name, _module, _cls, _attr in ENTRY_POINTS:
        phase = "setup" if name in SETUP_LAYERS else "measured"
        calls, self_s = phases[phase][name]
        if phase == "measured":
            attributed += self_s
        out[f"{name}.calls"] = metric(calls / n, "count")
        out[f"{name}.self_s"] = metric(self_s / n, "s")
    pass_s = statistics.median(sum(p.latencies) for p in traced)
    untraced_s = statistics.median(sum(p.latencies) for p in untraced)
    traced_total = sum(sum(p.latencies) for p in traced) / n
    out["pass_s"] = metric(pass_s, "s")
    out["unattributed_s"] = metric(traced_total - attributed / n, "s")
    out["attributed_share"] = metric(attributed / n / traced_total, "share")
    out["tracing.overhead_s"] = metric(pass_s - untraced_s, "s")

    def counter(name):
        return sum(c.get(name, 0) for c in counters) / n

    def share(part, whole):
        return part / whole if whole else 0.0

    hits, built = counter("pinaccess.catalogue_memo_hits"), counter("pinaccess.catalogues_built")
    out["pinaccess.catalogues_built"] = metric(built, "count")
    out["pinaccess.memo_hit_share"] = metric(share(hits, hits + built), "share")
    out["pathsearch.labels_pushed"] = metric(counter("pathsearch.labels_pushed"), "count")
    calls, reuses = counter("sharing.oracle_calls"), counter("sharing.oracle_reuses")
    out["sharing.oracle_calls"] = metric(calls, "count")
    out["sharing.oracle_reuse_share"] = metric(share(reuses, calls), "share")
    for name, label in (("droute.connect.connect_net", "connect"), ("cleanup.fix", "cleanup.fix")):
        attempts, successes = recorder.outcome(name, "measured")
        out[f"{label}.attempts"] = metric(attempts / n, "count")
        out[f"{label}.success_share"] = metric(share(successes, attempts), "share")
    quality = traced[-1].quality
    out["drc.errors"] = metric(quality.get("drc_errors", 0), "count")
    out["groute.max_congestion"] = metric(quality.get("gr_max_congestion", 0.0), "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: routing sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, peak_rss_mb
    from tracer import SpanRecorder

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    recorder = SpanRecorder() if args.trace else None
    setups, passes, traced_flags, counters = measure(workload, args, recorder)
    deterministic = check_determinism(args, workload, passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.router_failed) + len(p.check_failed) for p in passes)
    correct = deterministic and not any(p.check_failed for p in passes)
    for index, p in enumerate(passes):
        print(f"pass {index}: traced={int(traced_flags[index])} setup_s={setups[index]:.3f} "
              f"latencies={[round(t, 3) for t in p.latencies]} quality={p.quality} "
              f"router_failed={p.router_failed} check_failed={p.check_failed}")
    if args.trace:
        metrics = per_layer(recorder, passes, traced_flags, counters)
    else:
        metrics = end_to_end(setups, passes, peak_rss_mb())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
