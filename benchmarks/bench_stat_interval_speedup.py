"""Sec. 4.1 statistics: interval vs node labelling.

Paper: "labeling intervals instead of single nodes speeds up the path
search by at least a factor of 6" (on 22 nm chips, measured in labelling
work).

The bench runs a batch of long-distance searches with both algorithms on
the same warm routing space and compares heap pops, labels, and
wall-clock; costs must match exactly on every query.
"""

import random
import time

from benchmarks.common import print_table
from repro.chip.generator import ChipSpec, generate_chip
from repro.droute.area import RoutingArea
from repro.droute.future_cost import FutureCostH, SearchCosts
from repro.droute.intervals import GraphView
from repro.droute.pathsearch import interval_path_search, node_path_search
from repro.droute.space import RoutingSpace


def _queries(space, count=14):
    """Long-distance queries: the regime the paper's statistic covers
    (interval labelling shines when node Dijkstra would label long track
    stretches)."""
    rng = random.Random(23)
    graph = space.graph
    die = space.chip.die
    min_distance = (die.width + die.height) // 3
    queries = []
    while len(queries) < count:
        z1 = rng.choice(graph.stack.indices)
        z2 = rng.choice(graph.stack.indices)
        s = (z1, rng.randrange(len(graph.tracks[z1])),
             rng.randrange(len(graph.crosses[z1])))
        t = (z2, rng.randrange(len(graph.tracks[z2])),
             rng.randrange(len(graph.crosses[z2])))
        if s == t:
            continue
        sx, sy, _ = graph.position(s)
        tx, ty, _ = graph.position(t)
        if abs(sx - tx) + abs(sy - ty) < min_distance:
            continue
        queries.append((s, t))
    return queries


def test_interval_vs_node_labelling(benchmark):
    chip = generate_chip(
        ChipSpec("statint", rows=3, row_width_cells=7, net_count=8, seed=3)
    )
    space = RoutingSpace(chip)
    queries = _queries(space)
    costs = SearchCosts()
    area = RoutingArea.everywhere()

    def run(search):
        stats = {"pops": 0, "labels": 0, "costs": [], "time": 0.0}
        for s, t in queries:
            pi = FutureCostH(space.graph, [t], costs)
            view = GraphView(space, "default", area, forced_vertices={s, t})
            start = time.time()
            result = search(view, {s: 0}, {t}, costs, pi)
            stats["time"] += time.time() - start
            stats["costs"].append(result.cost if result else None)
            if result is not None:
                stats["pops"] += result.stats.pops
                stats["labels"] += result.stats.labels_pushed
        return stats

    def run_both():
        interval = run(interval_path_search)
        node = run(node_path_search)
        return interval, node

    interval, node = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert interval["costs"] == node["costs"], "optimal costs must agree"
    pop_ratio = node["pops"] / max(interval["pops"], 1)
    label_ratio = node["labels"] / max(interval["labels"], 1)
    rows = [
        ["interval (Alg. 4)", interval["pops"], interval["labels"],
         f"{interval['time']:.2f}"],
        ["node labelling", node["pops"], node["labels"], f"{node['time']:.2f}"],
        ["ratio", f"{pop_ratio:.1f}x", f"{label_ratio:.1f}x",
         f"{node['time'] / max(interval['time'], 1e-9):.2f}x"],
    ]
    print_table(
        f"Sec. 4.1 stats: {len(queries)} long-distance searches "
        "(paper: >= 6x labelling reduction)",
        ["algorithm", "heap pops", "labels", "wall s"],
        rows,
    )
    benchmark.extra_info["pop_ratio"] = pop_ratio
    benchmark.extra_info["label_ratio"] = label_ratio
    assert pop_ratio >= 6.0, (
        "the paper's >= 6x labelling reduction should reproduce in pops"
    )
