"""Tests for resources, the Steiner oracle, resource sharing, rounding."""

import math
import random
from typing import Callable, Dict, Tuple

import pytest

from repro.chip.generator import ChipSpec, generate_chip
from repro.grid.tracks import build_track_plan
from repro.groute.capacity import estimate_capacities
from repro.groute.graph import Edge, GlobalRoutingGraph
from repro.groute import resources
from repro.groute.resources import (
    ResourceModel,
    power_usage,
    space_usage,
    yield_loss,
)
from repro.groute.rounding import RoundingPostprocessor
from repro.groute.router import GlobalRouter
from repro.groute.sharing import ResourceSharingSolver
from repro.groute.steiner_oracle import path_composition_steiner_tree
from repro.obs import OBS
from repro.util.unionfind import UnionFind


@pytest.fixture(scope="module")
def setup():
    chip = generate_chip(
        ChipSpec("gstest", rows=3, row_width_cells=6, net_count=10, seed=7)
    )
    plan = build_track_plan(chip)
    graph = GlobalRoutingGraph(chip)
    estimate_capacities(graph, plan)
    model = ResourceModel(graph, chip.nets)
    return chip, graph, model


class TestGammaFunctions:
    def test_space_linear(self):
        assert space_usage(1.0, 0.0) == 1.0
        assert space_usage(1.0, 2.0) == 3.0

    def test_power_decreasing_convex(self):
        values = [power_usage(100.0, s) for s in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
        # Convexity: second differences non-negative.
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(d2 >= d1 - 1e-9 for d1, d2 in zip(diffs, diffs[1:]))

    def test_yield_decreasing_convex(self):
        values = [yield_loss(100.0, s) for s in (0.0, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_fig1_shapes(self):
        """Fig. 1: space grows linearly, power and yield fall convexly."""
        spaces = [space_usage(1.0, s) for s in range(5)]
        assert [b - a for a, b in zip(spaces, spaces[1:])] == [1.0] * 4
        powers = [power_usage(1.0, float(s)) for s in range(5)]
        yields = [yield_loss(1.0, float(s)) for s in range(5)]
        assert powers[0] > powers[-1]
        assert yields[0] > yields[-1]


class TestResourceModel:
    def test_priced_cost_positive(self, setup):
        chip, graph, model = setup
        edge = next(e for e in graph.edges() if not graph.is_via_edge(e))
        cost, s = model.priced_edge_cost("n0", edge, 1.0, {"wirelength": 1e-6})
        assert cost > 0
        assert s >= 0

    def test_extra_space_grows_with_power_price(self, setup):
        chip, graph, model = setup
        edge = next(
            e for e in graph.edges()
            if not graph.is_via_edge(e) and graph.capacity(e) > 1
        )
        _c0, s_low = model.priced_edge_cost(
            "n0", edge, 1.0, {"power": 1e-9, "yield": 0.0}
        )
        _c1, s_high = model.priced_edge_cost(
            "n0", edge, 1.0, {"power": 10.0, "yield": 0.0}
        )
        assert s_high >= s_low

    def test_wide_nets_consume_more(self, setup):
        chip, graph, model = setup
        wide = next((n for n in chip.nets if n.wire_type == "wide"), None)
        if wide is None:
            pytest.skip("no wide net in this instance")
        assert model.net_width(wide.name) == 2.0

    def test_usage_includes_edge_and_globals(self, setup):
        chip, graph, model = setup
        edge = next(e for e in graph.edges() if not graph.is_via_edge(e))
        usage = model.edge_usage("n0", edge, 0.5)
        assert usage["space"] == 1.5
        assert usage["wirelength"] > 0
        assert usage["power"] > 0


# ----------------------------------------------------------------------
# Reference Eq. 1 pricing: a verbatim copy of ResourceModel.priced_edge_cost
# and _minimize_convex as they were before the pricing was inlined.  The
# production code must return exactly (==) the same (cost, s*) pairs.
# ----------------------------------------------------------------------
def reference_priced_edge_cost(
    self,
    net_name: str,
    edge: Edge,
    edge_price: float,
    global_prices: Dict[str, float],
) -> Tuple[float, float]:
    """(cost, s*) of using ``edge``: Eq. 1 minimized over s >= 0.

    ``edge_price`` is y_{r(e)} / u(e); ``global_prices`` maps each
    global resource to y_r / u^r.
    """
    width = self.net_width(net_name)
    length = float(self.graph.edge_length(edge))
    capacity = max(self.graph.capacity(edge), 1e-9)
    price_space = edge_price / capacity
    usage0 = self.edge_usage(net_name, edge, 0.0)
    base = price_space * width
    base += global_prices.get("wirelength", 0.0) * usage0["wirelength"]
    detour_key = f"detour:{net_name}"
    if detour_key in usage0:
        base += global_prices.get(detour_key, 0.0) * usage0[detour_key]
    if length <= 0 or not self.optimize_spacing:
        cost = base
        for resource in ("power", "yield"):
            if resource in usage0:
                cost += global_prices.get(resource, 0.0) * usage0[resource]
        return cost, 0.0
    # Power + yield decay terms: p(s) = length * (a + b / (1 + s)),
    # y(s) = length * (c + d / (1 + s)^2); minimize
    #   price_space * s + P*b*length/(1+s) + Y*d*length/(1+s)^2.
    # A closed form exists for each term alone; with both we use a
    # short golden-section search on the (convex) sum.
    price_power = global_prices.get("power", 0.0)
    price_yield = global_prices.get("yield", 0.0)

    def objective(s: float) -> float:
        value = price_space * s
        value += price_power * power_usage(length, s)
        value += price_yield * yield_loss(length, s)
        return value

    s_star = _reference_minimize_convex(objective, 0.0, self.max_extra_space)
    return base + objective(s_star), s_star


def _reference_minimize_convex(
    objective: Callable[[float], float], lo: float, hi: float, tol: float = 1e-3
) -> float:
    """Golden-section minimum of a convex 1-D function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    best = (a + b) / 2.0
    for candidate in (lo, best):
        if objective(candidate) <= objective(best):
            best = candidate
    return best


@pytest.fixture(scope="module")
def pricing_setup():
    """A chip with wide nets, one detour-bounded net, and its graph."""
    chip = generate_chip(
        ChipSpec(
            "gsprice", rows=3, row_width_cells=6, net_count=12, seed=3,
            wide_net_fraction=0.5,
        )
    )
    graph = GlobalRoutingGraph(chip)
    estimate_capacities(graph, build_track_plan(chip))
    wide = [n for n in chip.nets if n.wire_type == "wide"]
    assert wide
    bounded = next(n for n in chip.nets if n.wire_type != "wide")
    bounded.detour_bound = 2 * bounded.half_perimeter()
    nets = [wide[0].name, bounded.name, chip.nets[-1].name]
    return chip, graph, nets


class TestPricedEdgeCostExactness:
    """The inlined Eq. 1 pricing equals the reference bit for bit."""

    def _models(self, chip, graph):
        return [
            ResourceModel(graph, chip.nets),
            ResourceModel(graph, chip.nets, optimize_spacing=False),
            ResourceModel(graph, chip.nets, max_extra_space=0.75),
        ]

    def _edges(self, graph):
        edges = sorted(graph.capacities)
        assert any(graph.is_via_edge(e) for e in edges)
        assert any(not graph.is_via_edge(e) for e in edges)
        return edges

    def test_edge_length_matches_tile_rects(self, pricing_setup):
        _chip, graph, _nets = pricing_setup
        for a, b in graph.edges():
            if a[2] != b[2]:
                expected = 0
            else:
                ax, ay = graph.tile_rect(a[0], a[1]).center
                bx, by = graph.tile_rect(b[0], b[1]).center
                expected = abs(ax - bx) + abs(ay - by)
            assert graph.edge_length((a, b)) == expected

    def test_random_prices(self, pricing_setup):
        chip, graph, nets = pricing_setup
        rng = random.Random(18)
        edges = self._edges(graph)
        for model in self._models(chip, graph):
            detour_names = [f"detour:{n}" for n in model.detour_resources]
            assert detour_names
            for _trial in range(400):
                edge = rng.choice(edges)
                net = rng.choice(nets)
                edge_price = math.exp(rng.uniform(-8.0, 8.0))
                global_prices = {
                    name: rng.choice((0.0, math.exp(rng.uniform(-12.0, 2.0))))
                    for name in ("wirelength", "power", "yield", *detour_names)
                }
                assert model.priced_edge_cost(
                    net, edge, edge_price, global_prices
                ) == reference_priced_edge_cost(
                    model, net, edge, edge_price, global_prices
                )

    def test_tie_returns_midpoint(self, pricing_setup):
        """Zero space, power and yield prices make the Eq. 1 objective 0
        at every s, so f(lo) == f(mid): the midpoint wins the tie, and the
        wirelength and detour prices still enter the cost."""
        chip, graph, nets = pricing_setup
        model = ResourceModel(graph, chip.nets)
        edge = next(e for e in self._edges(graph) if not graph.is_via_edge(e))
        detour = f"detour:{nets[1]}"
        for net, global_prices in (
            (nets[0], {}),
            (nets[0], {"wirelength": 0.5, "power": 0.0, "yield": 0.0}),
            (nets[1], {"wirelength": 0.5, detour: 0.25}),
        ):
            cost, s_star = model.priced_edge_cost(net, edge, 0.0, global_prices)
            assert (cost, s_star) == reference_priced_edge_cost(
                model, net, edge, 0.0, global_prices
            )
            assert s_star > 0.0  # the midpoint, not lo = 0


class TestSteinerOracle:
    def _cost_fn(self, graph):
        def edge_cost(_net, edge):
            return float(max(graph.edge_length(edge), 40)), 0.0
        return edge_cost

    def test_two_terminal_path(self, setup):
        chip, graph, _model = setup
        terminals = [{(0, 0, 3)}, {(graph.nx - 1, 0, 3)}]
        result = path_composition_steiner_tree(
            graph, "t", terminals, self._cost_fn(graph)
        )
        assert result is not None
        assert result.edges

    def test_tree_connects_all_terminals(self, setup):
        chip, graph, _model = setup
        net = max(chip.nets, key=lambda n: n.terminal_count)
        terminals = graph.net_terminals(net)
        result = path_composition_steiner_tree(
            graph, net.name, terminals, self._cost_fn(graph)
        )
        assert result is not None
        uf = UnionFind()
        for a, b in result.edges:
            uf.union(a, b)
        roots = set()
        for terminal in terminals:
            root = None
            for node in terminal:
                if node in uf or result.edges:
                    root = uf.find(node)
                    break
            roots.add(root)
        assert len(roots) <= 1 or all(r is not None for r in roots)
        # Stronger: every terminal intersects the tree's node set or is
        # its own single-tile terminal.
        tree_nodes = set()
        for a, b in result.edges:
            tree_nodes.add(a)
            tree_nodes.add(b)
        for terminal in terminals:
            assert terminal & tree_nodes or len(terminals) == 1


class TestResourceSharing:
    def test_lambda_near_one_on_feasible_instance(self, setup):
        chip, graph, model = setup
        solver = ResourceSharingSolver(graph, model, phases=15)
        routable = [n for n in chip.nets if not graph.is_local_net(n)]
        fractional = solver.solve(routable)
        assert 0.0 < fractional.max_congestion <= 1.5
        for net in routable:
            weights = fractional.weights[net.name]
            assert abs(sum(weights.values()) - 1.0) < 1e-9

    def test_more_phases_do_not_hurt(self, setup):
        chip, graph, model = setup
        routable = [n for n in chip.nets if not graph.is_local_net(n)]
        few = ResourceSharingSolver(graph, model, phases=3).solve(routable)
        many = ResourceSharingSolver(graph, model, phases=20).solve(routable)
        assert many.max_congestion <= few.max_congestion * 1.25

    def test_edge_prices_counter_counts_memo_misses(self, setup):
        """Each (net, edge) price is computed once per oracle call, and
        ``sharing.edge_prices`` counts exactly those computations."""
        chip, graph, _model = setup
        model = ResourceModel(graph, chip.nets)
        priced = model.priced_edge_cost
        computed = []

        def counting(net_name, edge, edge_price, global_prices, spacing=None):
            computed.append((net_name, edge))
            return priced(net_name, edge, edge_price, global_prices, spacing)

        model.priced_edge_cost = counting
        routable = [n for n in chip.nets if not graph.is_local_net(n)]
        OBS.reset()
        OBS.configure(enabled=True)
        try:
            fractional = ResourceSharingSolver(graph, model, phases=3).solve(
                routable
            )
            counted = OBS.counters.get("sharing.edge_prices")
        finally:
            OBS.configure(enabled=False)
            OBS.reset()
        assert fractional.oracle_calls > 0
        assert counted == len(computed) > 0

    @pytest.mark.parametrize("parallel", [False, True])
    def test_spacing_searches_counter_counts_memo_misses(
        self, setup, monkeypatch, parallel
    ):
        """Each Eq. 1 spacing search runs once per (space price, length)
        and block of oracle calls (one call with ``threads=1``), and
        ``sharing.spacing_searches`` counts exactly the searches run."""
        chip, graph, _model = setup
        model = ResourceModel(graph, chip.nets)
        search = resources._spacing_search
        searches = []

        def counting(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(resources, "_spacing_search", counting)
        routable = [n for n in chip.nets if not graph.is_local_net(n)]
        OBS.reset()
        OBS.configure(enabled=True)
        try:
            threads = 4 if parallel else 1
            ResourceSharingSolver(
                graph, model, phases=3, threads=threads
            ).solve(routable)
            counted = OBS.counters.get("sharing.spacing_searches")
            prices = OBS.counters.get("sharing.edge_prices")
        finally:
            OBS.configure(enabled=False)
            OBS.reset()
        assert counted == len(searches) > 0
        assert counted < prices

    def test_reuse_speeds_up_without_hurting(self, setup):
        chip, graph, model = setup
        routable = [n for n in chip.nets if not graph.is_local_net(n)]
        strict = ResourceSharingSolver(graph, model, phases=10)
        strict.reuse_threshold = 1.0
        strict = strict.solve(routable)
        loose = ResourceSharingSolver(graph, model, phases=10)
        loose.reuse_threshold = 2.5
        loose = loose.solve(routable)
        assert loose.oracle_calls <= strict.oracle_calls
        assert loose.max_congestion <= strict.max_congestion * 1.3


class TestRounding:
    def test_rounding_deterministic_per_seed(self, setup):
        chip, graph, model = setup
        routable = [n for n in chip.nets if not graph.is_local_net(n)]
        fractional = ResourceSharingSolver(graph, model, phases=10).solve(routable)
        r1 = RoundingPostprocessor(graph, model, seed=5).round(fractional)
        r2 = RoundingPostprocessor(graph, model, seed=5).round(fractional)
        assert {n: r.edges for n, r in r1.items()} == {
            n: r.edges for n, r in r2.items()
        }

    def test_repair_reduces_violations(self, setup):
        chip, graph, model = setup
        routable = [n for n in chip.nets if not graph.is_local_net(n)]
        fractional = ResourceSharingSolver(graph, model, phases=10).solve(routable)
        post = RoundingPostprocessor(graph, model, seed=5)
        routes = post.round(fractional)
        routes = post.repair(routes, fractional, routable)
        assert post.stats.final_violations <= max(post.stats.initial_violations, 0)


class TestGlobalRouter:
    def test_end_to_end(self):
        chip = generate_chip(
            ChipSpec("grend", rows=3, row_width_cells=6, net_count=10, seed=7)
        )
        router = GlobalRouter(chip, phases=10, seed=1)
        result = router.run()
        non_local = [n for n in chip.nets if n.name not in result.local_nets]
        assert set(result.routes) == {n.name for n in non_local}
        assert result.wire_length() > 0

    def test_detour_ratios_reasonable(self):
        chip = generate_chip(
            ChipSpec("grdet", rows=3, row_width_cells=6, net_count=10, seed=7)
        )
        result = GlobalRouter(chip, phases=10, seed=1).run()
        for name in result.routes:
            ratio = result.corridor_detour(name)
            assert 1.0 <= ratio < 4.0, f"{name}: detour {ratio}"

    def test_corridors_cover_pins(self):
        chip = generate_chip(
            ChipSpec("grcorr", rows=3, row_width_cells=6, net_count=10, seed=7)
        )
        result = GlobalRouter(chip, phases=10, seed=1).run()
        for name, route in result.routes.items():
            area = result.corridor(name, margin_tiles=1)
            net = chip.net(name)
            covered = 0
            for pin in net.pins:
                x, y = pin.reference_point()
                layer = pin.layers[0]
                if area.contains(x, y, layer):
                    covered += 1
            assert covered >= len(net.pins) - 1, f"{name} corridor misses pins"
