"""Ablation: future costs pi_H vs pi_P vs none (Sec. 4.1).

Paper: goal orientation cuts labelling steps; the blockage-aware pi_P
labels fewer vertices than pi_H around large obstacles but costs more to
compute, so it is only used for connections whose global route detours.

The bench runs identical searches under all three potentials and
compares labelling work; all three must return identical optimal costs.
"""

from benchmarks.common import print_table
from repro.chip.generator import ChipSpec, generate_chip
from repro.droute.area import RoutingArea
from repro.droute.future_cost import FutureCostH, FutureCostP, SearchCosts
from repro.droute.intervals import GraphView
from repro.droute.pathsearch import interval_path_search
from repro.droute.space import RoutingSpace
from repro.tech.wiring import StickFigure


def _build():
    chip = generate_chip(
        ChipSpec("ablfc", rows=3, row_width_cells=7, net_count=6, seed=31)
    )
    space = RoutingSpace(chip)
    graph = space.graph
    # A large wall on layer 5 the searches must detour around.
    z = 5
    t_mid = len(graph.tracks[z]) // 2
    for t in range(max(0, t_mid - 3), min(len(graph.tracks[z]), t_mid + 4)):
        y = graph.tracks[z][t]
        x_lo, _, _ = graph.position((z, t, len(graph.crosses[z]) // 3))
        x_hi, _, _ = graph.position((z, t, 2 * len(graph.crosses[z]) // 3))
        space.add_wire(f"wall{t}", "default", StickFigure(z, x_lo, y, x_hi, y))
    s = (z, 1, 1)
    t = (z, len(graph.tracks[z]) - 2, len(graph.crosses[z]) - 2)
    return space, s, t


def test_future_cost_ablation(benchmark):
    space, s, t = _build()
    costs = SearchCosts()
    area = RoutingArea.everywhere()
    large = [
        (layer, rect)
        for layer, rect, _own in space.chip.obstruction_shapes()
    ]

    def run_all():
        out = {}
        for name, pi in (
            ("none", lambda v: 0),
            ("pi_H", FutureCostH(space.graph, [t], costs)),
            ("pi_P", FutureCostP(space.graph, [t], costs, area, large)),
        ):
            view = GraphView(space, "default", area, forced_vertices={s, t})
            result = interval_path_search(view, {s: 0}, {t}, costs, pi)
            out[name] = result
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [name, r.cost, r.stats.pops, r.stats.labels_pushed,
         r.stats.vertices_processed]
        for name, r in results.items()
    ]
    print_table(
        "Ablation: future cost choice (identical costs required)",
        ["potential", "cost", "pops", "labels", "vertices"],
        rows,
    )
    costs_seen = {r.cost for r in results.values()}
    assert len(costs_seen) == 1, "potentials must not change optimality"
    assert results["pi_H"].stats.pops <= results["none"].stats.pops
    assert results["pi_P"].stats.pops <= results["pi_H"].stats.pops
    benchmark.extra_info["pops"] = {
        name: r.stats.pops for name, r in results.items()
    }
