"""Sec. 2.3 / 2.4 statistics: oracle speed and rounding postprocessing.

Paper:
* Algorithm 1 (the Steiner oracle) averages ~0.3 ms per net;
* after randomized rounding, fewer than 10 % of the nets needed a
  postprocessing route change, almost all by *rechoosing* within the
  fractional support, and at most five genuinely new routes were
  generated on any chip;
* rip-up and reroute takes < 5 % of the global routing runtime.
"""

from benchmarks.common import bench_specs, print_table
from repro.chip.generator import generate_chip
from repro.groute.router import GlobalRouter


def _run_all():
    rows = []
    totals = {
        "nets": 0, "oracle_calls": 0, "oracle_time": 0.0,
        "rechosen": 0, "fresh": 0, "violations": 0,
        "sharing": 0.0, "rounding": 0.0,
    }
    for spec in bench_specs():
        chip = generate_chip(spec)
        router = GlobalRouter(chip, phases=10, seed=1)
        result = router.run()
        fractional = result.fractional
        stats = result.rounding_stats
        per_call_ms = 1000.0 * fractional.oracle_time / max(
            fractional.oracle_calls, 1
        )
        rows.append([
            spec.name, len(result.routes), fractional.oracle_calls,
            f"{per_call_ms:.2f}", stats.rechosen_nets, stats.fresh_reroutes,
            stats.final_violations,
            f"{result.rounding_runtime / max(result.total_runtime, 1e-9):.1%}",
        ])
        totals["nets"] += len(result.routes)
        totals["oracle_calls"] += fractional.oracle_calls
        totals["oracle_time"] += fractional.oracle_time
        totals["rechosen"] += stats.rechosen_nets
        totals["fresh"] += stats.fresh_reroutes
        totals["violations"] += stats.final_violations
        totals["sharing"] += result.sharing_runtime
        totals["rounding"] += result.rounding_runtime
    return rows, totals


def test_sharing_and_rounding_stats(benchmark):
    rows, totals = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    print_table(
        "Sec. 2.3/2.4 stats: oracle and rounding postprocessing "
        "(paper: ~0.3 ms/oracle, <10 % nets changed, <=5 fresh routes, "
        "R&R < 5 % runtime)",
        ["chip", "nets", "oracle calls", "ms/call", "rechosen",
         "fresh routes", "violations", "R&R share"],
        rows,
    )
    benchmark.extra_info["totals"] = {
        k: (round(v, 4) if isinstance(v, float) else v)
        for k, v in totals.items()
    }
    # Reproduction shape checks.
    changed = totals["rechosen"] + totals["fresh"]
    assert changed <= 0.25 * max(totals["nets"], 1), (
        "rounding should leave the vast majority of nets untouched"
    )
    assert totals["fresh"] <= 5 * len(rows), "few genuinely new routes"
    assert totals["violations"] <= 1, (
        "capacity violations after R&R must be almost zero (paper: one "
        "edge on one chip)"
    )
    rr_share = totals["rounding"] / max(
        totals["sharing"] + totals["rounding"], 1e-9
    )
    assert rr_share < 0.25, "R&R takes a small share of GR runtime"
