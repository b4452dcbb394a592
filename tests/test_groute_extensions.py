"""Tests for the global routing extensions: the lambda scaling framework
(Sec. 2.3), per-net detour bounds (Sec. 2.1) and wire spreading
(Sec. 4.2)."""

import pytest

from repro.chip.generator import ChipSpec, generate_chip
from repro.droute.router import DetailedRouter
from repro.droute.space import RoutingSpace
from repro.droute.spreading import WireSpreading
from repro.grid.tracks import build_track_plan
from repro.groute.capacity import estimate_capacities
from repro.groute.graph import GlobalRoutingGraph
from repro.groute.resources import ResourceModel
from repro.groute.router import GlobalRouter
from repro.groute.sharing import ResourceSharingSolver, solve_with_scaling


@pytest.fixture(scope="module")
def setup():
    chip = generate_chip(
        ChipSpec("ext", rows=3, row_width_cells=6, net_count=10, seed=7)
    )
    graph = GlobalRoutingGraph(chip)
    estimate_capacities(graph, build_track_plan(chip))
    return chip, graph


class TestScalingFramework:
    def test_tight_bounds_get_scaled(self, setup):
        chip, graph = setup
        routable = [n for n in chip.nets if not graph.is_local_net(n)]
        model = ResourceModel(graph, chip.nets)
        # Sabotage the objective guess: 10x too tight.
        model.bounds["wirelength"] /= 10.0
        solution, history = solve_with_scaling(
            graph, model, routable, phases=8, probe_phases=4
        )
        assert history[0] > 1.05, "the probe must see the bad guess"
        assert solution.max_congestion <= 1.3, (
            f"scaling should normalize lambda, got {solution.max_congestion}"
        )

    def test_good_bounds_skip_scaling(self, setup):
        chip, graph = setup
        routable = [n for n in chip.nets if not graph.is_local_net(n)]
        model = ResourceModel(graph, chip.nets)
        _solution, history = solve_with_scaling(
            graph, model, routable, phases=8, probe_phases=4
        )
        assert len(history) == 1


class TestDetourBounds:
    def test_detour_resource_created(self, setup):
        chip, graph = setup
        net = chip.nets[0]
        net.detour_bound = 2 * net.half_perimeter()
        try:
            model = ResourceModel(graph, chip.nets)
            assert f"detour:{net.name}" in model.bounds
            edge = next(
                e for e in graph.edges() if not graph.is_via_edge(e)
            )
            usage = model.edge_usage(net.name, edge, 0.0)
            assert f"detour:{net.name}" in usage
            other = chip.nets[1]
            usage_other = model.edge_usage(other.name, edge, 0.0)
            assert f"detour:{net.name}" not in usage_other
        finally:
            net.detour_bound = None

    def test_bounded_net_stays_within_bound(self, setup):
        chip, graph = setup
        routable = [n for n in chip.nets if not graph.is_local_net(n)]
        victim = max(routable, key=lambda n: n.half_perimeter())
        victim.detour_bound = int(1.5 * victim.half_perimeter())
        try:
            model = ResourceModel(graph, chip.nets)
            solver = ResourceSharingSolver(graph, model, phases=10)
            fractional = solver.solve(routable)
            # Fractional usage of the detour resource must be near/below 1.
            detour_usage = 0.0
            for key, weight in fractional.weights[victim.name].items():
                _eu, gu = solver._usages(victim.name, key)
                detour_usage += weight * gu.get(f"detour:{victim.name}", 0.0)
            assert detour_usage <= 1.2
        finally:
            victim.detour_bound = None


class TestWireSpreading:
    def test_low_utilization_tiles_found(self):
        chip = generate_chip(
            ChipSpec("spread", rows=2, row_width_cells=5, net_count=5, seed=5)
        )
        router = GlobalRouter(chip, phases=8, seed=1)
        result = router.run()
        space = RoutingSpace(chip)
        spreading = WireSpreading.from_global_result(space.graph, result)
        assert spreading.low_utilization_tiles, "sparse chip must have spare tiles"

    def test_penalty_only_on_odd_tracks_in_spare_tiles(self):
        chip = generate_chip(
            ChipSpec("spread2", rows=2, row_width_cells=5, net_count=5, seed=5)
        )
        router = GlobalRouter(chip, phases=8, seed=1)
        result = router.run()
        space = RoutingSpace(chip)
        spreading = WireSpreading.from_global_result(space.graph, result)

        class FakeInterval:
            def __init__(self, z, t, c_lo, c_hi):
                self.z, self.t, self.c_lo, self.c_hi = z, t, c_lo, c_hi

        even = FakeInterval(5, 2, 0, 4)
        odd = FakeInterval(5, 3, 0, 4)
        assert spreading.interval_penalty(even) == 0
        assert spreading.interval_penalty(odd) in (0, spreading.penalty)

    def test_routing_with_spreading_still_succeeds(self):
        chip = generate_chip(
            ChipSpec("spread3", rows=2, row_width_cells=5, net_count=5, seed=5)
        )
        gr = GlobalRouter(chip, phases=8, seed=1)
        gr_result = gr.run()
        space = RoutingSpace(chip)
        spreading = WireSpreading.from_global_result(space.graph, gr_result)
        router = DetailedRouter(space, spreading=spreading)
        result = router.run()
        assert len(result.failed) == 0


class TestDegenerateCorridors:
    """Pinned degenerate behaviour of corridor() / corridor_detour().

    An unrouted net and a net whose global route has no edges (all
    terminals in one graph node) must fall back to the unrestricted
    routing area and a detour factor of exactly 1.0 — the detailed
    router must never be boxed into a corridor the global stage never
    computed.
    """

    def _empty_result(self):
        from repro.groute.router import GlobalRoutingResult

        chip = generate_chip(
            ChipSpec("degen", rows=2, row_width_cells=4, net_count=4, seed=2)
        )
        graph = GlobalRoutingGraph(chip)
        return chip, GlobalRoutingResult(chip, graph)

    def test_unrouted_net_gets_unrestricted_corridor(self):
        chip, result = self._empty_result()
        name = chip.nets[0].name
        area = result.corridor(name, margin_tiles=2)
        assert area.boxes is None  # RoutingArea.everywhere()
        assert area.contains(0, 0, 1) and area.contains(0, 0, 6)

    def test_unrouted_net_detour_is_one(self):
        chip, result = self._empty_result()
        assert result.corridor_detour(chip.nets[0].name) == 1.0

    def test_edgeless_route_gets_unrestricted_corridor(self):
        from repro.groute.graph import GlobalRoute

        chip, result = self._empty_result()
        name = chip.nets[1].name
        # All terminals in one tile: the route exists but has no edges.
        result.routes[name] = GlobalRoute(name, set())
        area = result.corridor(name)
        assert area.boxes is None
        assert result.corridor_detour(name) == 1.0

    def test_routed_net_is_actually_restricted(self):
        """Contrast case: a real route does constrain the corridor."""
        chip, result = self._empty_result()
        from repro.groute.graph import GlobalRoute

        name = chip.nets[2].name
        a, b = (0, 0, 3), (1, 0, 3)
        result.routes[name] = GlobalRoute(name, {(a, b)})
        area = result.corridor(name)
        assert area.boxes is not None
        assert set(area.boxes) == {2, 3, 4}
        assert result.corridor_detour(name) >= 1.0
