"""Fig. 6: the interval-based path search's labelling.

Paper: the completed search of the figure labels whole intervals; label
counts stay near the number of intervals touched, far below the vertex
count a node-labelling Dijkstra visits, while the found path length is
identical.

The bench recreates a comparable scenario - a source and target on
different tracks with unusable vertex runs in between - and compares
interval vs node labelling on the exact same graph view.
"""

from benchmarks.common import print_table
from repro.chip.generator import ChipSpec, generate_chip
from repro.droute.area import RoutingArea
from repro.droute.future_cost import FutureCostH, SearchCosts
from repro.droute.intervals import GraphView
from repro.droute.pathsearch import interval_path_search, node_path_search
from repro.droute.space import RoutingSpace
from repro.tech.wiring import StickFigure


def _build():
    chip = generate_chip(
        ChipSpec("fig6", rows=2, row_width_cells=6, net_count=4, seed=6)
    )
    space = RoutingSpace(chip)
    graph = space.graph
    z = 5
    # Foreign wires creating the figure's broken-interval structure.
    for t_index, (c_lo, c_hi) in ((1, (3, 6)), (3, (8, 12)), (2, (14, 16))):
        if t_index >= len(graph.tracks[z]):
            continue
        y = graph.tracks[z][t_index]
        x_lo, _, _ = graph.position((z, t_index, c_lo))
        x_hi, _, _ = graph.position((z, t_index, min(c_hi, len(graph.crosses[z]) - 1)))
        space.add_wire(f"obst{t_index}", "default", StickFigure(z, x_lo, y, x_hi, y))
    s = (z, 0, 1)
    t = (z, len(graph.tracks[z]) - 1, len(graph.crosses[z]) - 2)
    return space, s, t


def test_fig6_interval_labelling(benchmark):
    space, s, t = _build()
    costs = SearchCosts()
    area = RoutingArea.everywhere()
    pi = FutureCostH(space.graph, [t], costs)

    def run_interval():
        view = GraphView(space, "default", area, forced_vertices={s, t})
        return interval_path_search(view, {s: 0}, {t}, costs, pi)

    result_i = benchmark(run_interval)
    view_n = GraphView(space, "default", area, forced_vertices={s, t})
    result_n = node_path_search(view_n, {s: 0}, {t}, costs, pi)
    assert result_i is not None and result_n is not None
    rows = [
        ["interval (Alg. 4)", result_i.cost, result_i.stats.labels_pushed,
         result_i.stats.pops, result_i.stats.vertices_processed],
        ["node labelling", result_n.cost, result_n.stats.labels_pushed,
         result_n.stats.pops, result_n.stats.vertices_processed],
    ]
    print_table(
        "Fig. 6: completed path search, interval vs node labelling",
        ["algorithm", "path cost", "labels", "heap pops", "vertices"],
        rows,
    )
    benchmark.extra_info["interval"] = result_i.stats.as_dict()
    benchmark.extra_info["node"] = result_n.stats.as_dict()
    assert result_i.cost == result_n.cost, "identical optimal costs"
    assert result_i.stats.pops < result_n.stats.pops
