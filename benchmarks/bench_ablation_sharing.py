"""Ablations on the resource sharing algorithm (Sec. 2.3).

1. Phase count t vs achieved congestion lambda and rounding violations
   (the paper settled on t = 125, eps = 1; our scaled instances converge
   far earlier).
2. Extra-space optimization on/off vs power and yield resource usage
   (Sec. 2.1's motivation for the convex gamma model).
"""

from benchmarks.common import print_table
from repro.chip.generator import ChipSpec, generate_chip
from repro.grid.tracks import build_track_plan
from repro.groute.capacity import estimate_capacities
from repro.groute.graph import GlobalRoutingGraph
from repro.groute.resources import ResourceModel
from repro.groute.rounding import RoundingPostprocessor
from repro.groute.sharing import ResourceSharingSolver

SPEC = ChipSpec("ablsh", rows=3, row_width_cells=7, net_count=14, seed=41)


def _setup():
    chip = generate_chip(SPEC)
    graph = GlobalRoutingGraph(chip)
    estimate_capacities(graph, build_track_plan(chip))
    # Emulate a dense design so congestion matters.
    for edge in list(graph.capacities):
        graph.capacities[edge] *= 0.4
    routable = [n for n in chip.nets if not graph.is_local_net(n)]
    return chip, graph, routable


def test_phase_count_ablation(benchmark):
    chip, graph, routable = _setup()
    model = ResourceModel(graph, chip.nets)

    def run():
        rows = []
        series = {}
        for phases in (1, 2, 4, 8, 16, 32):
            solver = ResourceSharingSolver(graph, model, phases=phases)
            fractional = solver.solve(routable)
            post = RoundingPostprocessor(graph, model, seed=3)
            routes = post.round(fractional)
            violations = len(post.violations(routes))
            rows.append([phases, f"{fractional.max_congestion:.3f}", violations])
            series[phases] = (fractional.max_congestion, violations)
        return rows, series

    rows, series = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation: phases t vs congestion and rounding violations",
        ["t", "lambda", "violations after rounding"],
        rows,
    )
    benchmark.extra_info["series"] = {str(k): v for k, v in series.items()}
    lambdas = [series[t][0] for t in (1, 4, 32)]
    # More phases converge lambda (weakly) downward on this instance.
    assert lambdas[2] <= lambdas[0] * 1.1


def test_extra_space_ablation(benchmark):
    chip, graph, routable = _setup()

    def run():
        out = {}
        for label, optimize in (("s=0 fixed", False), ("s optimized", True)):
            model = ResourceModel(graph, chip.nets, optimize_spacing=optimize)
            solver = ResourceSharingSolver(graph, model, phases=10)
            fractional = solver.solve(routable)
            usage = {"power": 0.0, "yield": 0.0, "wirelength": 0.0}
            for net_name, weights in fractional.weights.items():
                for key, weight in weights.items():
                    _eu, gu = solver._usages(net_name, key)
                    for name in usage:
                        usage[name] += weight * gu.get(name, 0.0) * model.bounds[name]
            out[label] = usage
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [label, f"{u['wirelength']:.0f}", f"{u['power']:.0f}", f"{u['yield']:.0f}"]
        for label, u in results.items()
    ]
    print_table(
        "Ablation: extra-space assignment (Sec. 2.1, Fig. 1 model)",
        ["configuration", "wirelength", "power", "yield"],
        rows,
    )
    benchmark.extra_info["usage"] = {
        k: {n: round(x, 1) for n, x in v.items()} for k, v in results.items()
    }
    fixed = results["s=0 fixed"]
    optimized = results["s optimized"]
    # Extra space trades nothing in wirelength but buys power and yield.
    assert optimized["power"] <= fixed["power"] * 1.001
    assert optimized["yield"] <= fixed["yield"] * 1.001
    assert (
        optimized["power"] < fixed["power"] or optimized["yield"] < fixed["yield"]
    ), "spacing optimization should reduce power and/or yield usage"
