"""Table III: BR-global vs ISR-global routing.

Paper (sums over 8 chips): BR-global vs ISR-global
* runtime   : 26:24 min vs 48:53 min   (~1.9x faster),
  of which Algorithm 2 took 15:45 and rip-up & reroute only 0:54
  (< 5 % of the global routing runtime);
* netlength : 83.998 m vs 86.928 m over a 79.734 m Steiner bound;
* vias      : 16.53 M vs 17.96 M.

The bench regenerates these columns per chip plus the Alg. 2 / R&R
runtime split.
"""

from benchmarks.common import (
    bench_observability,
    obs_work_counters,
    print_table,
    write_bench_record,
)
from repro.baseline.isr_global import IsrGlobalRouter
from repro.chip.generator import ChipSpec, generate_chip
from repro.groute.router import GlobalRouter
from repro.steiner.rsmt import steiner_length

#: Global routing alone is fast, so these chips are larger than the
#: full-flow bench chips; capacity_scale reproduces the dense-chip
#: congestion regime the paper's comparison lives in (DESIGN.md).
TABLE3_SPECS = [
    ChipSpec("t3a", rows=4, row_width_cells=10, net_count=28, seed=301),
    ChipSpec("t3b", rows=4, row_width_cells=11, net_count=30, seed=302),
    ChipSpec("t3c", rows=5, row_width_cells=10, net_count=32, seed=303),
    ChipSpec("t3d", rows=5, row_width_cells=12, net_count=40, seed=304),
]
CAPACITY_SCALE = 0.35


def _run_all():
    rows = []
    sums = {"br_time": 0.0, "alg2": 0.0, "rr": 0.0, "isr_time": 0.0,
            "steiner": 0, "br_net": 0, "isr_net": 0, "br_vias": 0,
            "isr_vias": 0}
    work = {}
    for spec in TABLE3_SPECS:
        chip = generate_chip(spec)
        br_router = GlobalRouter(
            chip, phases=10, seed=1, capacity_scale=CAPACITY_SCALE
        )
        with bench_observability():
            br = br_router.run()
            for name, value in obs_work_counters("br.").items():
                work[name] = work.get(name, 0) + value
        # Same chip, same (congestion-scaled) capacities for ISR.
        isr = IsrGlobalRouter(chip, graph=br_router.graph).run()
        lower = sum(
            steiner_length(net.terminal_points())
            for net in chip.nets
            if net.name in br.routes
        )
        rows.append([
            spec.name,
            f"{br.total_runtime:.2f} ({br.sharing_runtime:.2f}/{br.rounding_runtime:.2f})",
            f"{isr.total_runtime:.2f}",
            lower,
            br.wire_length(),
            isr.wire_length(),
            br.via_count(),
            isr.via_count(),
        ])
        sums["br_time"] += br.total_runtime
        sums["alg2"] += br.sharing_runtime
        sums["rr"] += br.rounding_runtime
        sums["isr_time"] += isr.total_runtime
        sums["steiner"] += lower
        sums["br_net"] += br.wire_length()
        sums["isr_net"] += isr.wire_length()
        sums["br_vias"] += br.via_count()
        sums["isr_vias"] += isr.via_count()
    return rows, sums, work


def test_table3_global_routing(benchmark):
    rows, sums, work = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    rows.append([
        "SUM",
        f"{sums['br_time']:.2f} ({sums['alg2']:.2f}/{sums['rr']:.2f})",
        f"{sums['isr_time']:.2f}",
        sums["steiner"], sums["br_net"], sums["isr_net"],
        sums["br_vias"], sums["isr_vias"],
    ])
    print_table(
        "Table III (scaled): BR-global vs ISR-global",
        ["chip", "BR time (Alg2/R&R)", "ISR time", "steiner",
         "BR net", "ISR net", "BR vias", "ISR vias"],
        rows,
    )
    benchmark.extra_info["sums"] = sums
    work.update({
        "br.netlength": sums["br_net"], "br.vias": sums["br_vias"],
        "isr.netlength": sums["isr_net"], "isr.vias": sums["isr_vias"],
        "steiner_bound": sums["steiner"],
    })
    write_bench_record(
        "table3",
        wall_clock={"br.time_s": sums["br_time"], "br.alg2_s": sums["alg2"],
                    "br.ripup_s": sums["rr"], "isr.time_s": sums["isr_time"]},
        work=work,
    )
    # Reproduction shape checks.
    assert sums["br_net"] <= sums["isr_net"] * 1.05, (
        "BR-global netlength must stay at or below ISR-global's level"
    )
    assert sums["steiner"] <= sums["br_net"] * 1.001, (
        "Steiner length is a lower bound"
    )
    # R&R takes a small share of BR-global runtime (paper: < 5 %).
    assert sums["rr"] <= 0.25 * max(sums["br_time"], 1e-9)
    # Via counts: the paper's BR-global also wins vias; at our scale the
    # greedy ISR layer assignment under-uses vias because the tiny
    # instances leave M1 partially free next to the pins, while BR's
    # resource sharing deliberately spreads across layers.  EXPERIMENTS.md
    # discusses this divergence; the via win does reproduce in the
    # detailed-routing comparison (Table I).
    assert sums["br_vias"] > 0 and sums["isr_vias"] > 0
