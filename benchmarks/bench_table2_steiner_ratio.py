"""Table II: global routing netlength over Steiner length by terminals.

Paper: ratio above Steiner length per terminal-count class
  2 terminals: 1.037x   3: 1.078x   4: 1.101x
  5-10: 1.145x   11-20: 1.181x   >20: 1.182x

The ratios grow with terminal count (Algorithm 1's approximation factor
is 2 - 2/|W|, but much better in practice) and stay far below 2.  The
bench reproduces the classes over the bench chips' global routes.
"""

from benchmarks.common import (
    bench_observability,
    obs_work_counters,
    print_table,
    write_bench_record,
)
from repro.chip.generator import ChipSpec, generate_chip
from repro.groute.router import GlobalRouter
from repro.steiner.rsmt import steiner_length

#: Dedicated chips with a terminal histogram covering all six classes
#: (global routing only, so these can be larger than the flow benches).
TABLE2_SPECS = [
    ChipSpec("t2a", rows=4, row_width_cells=10, net_count=30, seed=201,
             big_fanout_nets=1, big_fanout_max=26),
    ChipSpec("t2b", rows=4, row_width_cells=11, net_count=32, seed=202,
             big_fanout_nets=2, big_fanout_max=24),
    ChipSpec("t2c", rows=5, row_width_cells=10, net_count=34, seed=203,
             big_fanout_nets=1, big_fanout_max=28),
]

CLASSES = [
    ("2", lambda k: k == 2),
    ("3", lambda k: k == 3),
    ("4", lambda k: k == 4),
    ("5-10", lambda k: 5 <= k <= 10),
    ("11-20", lambda k: 11 <= k <= 20),
    (">20", lambda k: k > 20),
]

PAPER_RATIOS = {
    "2": 1.037, "3": 1.078, "4": 1.101,
    "5-10": 1.145, "11-20": 1.181, ">20": 1.182,
}


def _collect():
    per_class = {name: [0, 0] for name, _ in CLASSES}  # [routed, steiner]
    work = {}
    for spec in TABLE2_SPECS:
        chip = generate_chip(spec)
        # capacity_scale simulates the paper's dense-chip congestion
        # regime (DESIGN.md); without it the sparse synthetic instances
        # route every class at ratio ~1.00.
        router = GlobalRouter(chip, phases=10, seed=1, capacity_scale=0.3)
        with bench_observability():
            result = router.run()
            for name, value in obs_work_counters(f"{spec.name}.").items():
                work[name] = work.get(name, 0) + value
        graph = router.graph
        for net in chip.nets:
            if net.name not in result.routes:
                continue
            routed = result.net_wire_length(net.name)
            # Steiner baseline on the same tile-center quantization the
            # global router works with, so the ratio is >= 1 by
            # construction (as in the paper, where both are measured on
            # the same routing space).
            centers = sorted({
                graph.node_center(node)
                for terminal in graph.net_terminals(net)
                for node in terminal
            })
            lower = steiner_length(centers)
            if lower <= 0 or routed <= 0:
                continue
            for name, predicate in CLASSES:
                if predicate(net.terminal_count):
                    per_class[name][0] += routed
                    per_class[name][1] += lower
                    break
    return per_class, work


def test_table2_steiner_ratios(benchmark):
    per_class, work = benchmark.pedantic(_collect, rounds=1, iterations=1)
    rows = []
    measured = {}
    for name, _pred in CLASSES:
        routed, lower = per_class[name]
        if lower == 0:
            rows.append([name, "-", "-", PAPER_RATIOS[name]])
            continue
        ratio = routed / lower
        measured[name] = ratio
        rows.append([name, routed, f"{ratio:.3f}x", f"{PAPER_RATIOS[name]}x"])
    print_table(
        "Table II (scaled): GR netlength over Steiner length",
        ["terminals", "netlength", "measured", "paper"],
        rows,
    )
    benchmark.extra_info["ratios"] = measured
    for name, _pred in CLASSES:
        routed, lower = per_class[name]
        work[f"class_{name.replace('-', '_').replace('>', 'gt')}.routed"] = routed
        work[f"class_{name.replace('-', '_').replace('>', 'gt')}.steiner"] = lower
    write_bench_record("table2", wall_clock={}, work=work)
    # Reproduction shape: every class stays far below Algorithm 1's
    # 2 - 2/|W| worst case (the paper's central claim for Table II), and
    # the quantized baseline makes every ratio >= 1.
    assert all(1.0 <= ratio < 1.8 for ratio in measured.values())
