"""Focused tests for the ISR baseline internals and flow metrics."""

import pytest

from repro.baseline.isr_detailed import IsrDetailedRouter
from repro.baseline.isr_global import IsrGlobalRouter, _Grid2D
from repro.chip.generator import ChipSpec, generate_chip
from repro.droute.space import RoutingSpace
from repro.flow.stats import SCENIC_LENGTH_THRESHOLD, peak_memory_mb, scenic_nets
from repro.grid.tracks import build_track_plan
from repro.groute.capacity import estimate_capacities
from repro.groute.graph import GlobalRoutingGraph
from repro.tech.layers import Direction
from repro.tech.wiring import StickFigure


@pytest.fixture(scope="module")
def chip():
    return generate_chip(
        ChipSpec("bltest", rows=3, row_width_cells=6, net_count=10, seed=7)
    )


@pytest.fixture(scope="module")
def graph(chip):
    g = GlobalRoutingGraph(chip)
    estimate_capacities(g, build_track_plan(chip))
    return g


class TestGrid2D:
    def test_capacities_sum_layers(self, chip, graph):
        grid = _Grid2D(graph)
        # A 2D edge's capacity is the sum over matching-direction layers.
        edge2d = next(iter(grid.capacity))
        (ax, ay), (bx, by) = edge2d
        expected = 0.0
        for z in chip.stack.indices:
            horizontal = chip.stack.direction(z) is Direction.HORIZONTAL
            if horizontal != (ay == by):
                continue
            from repro.groute.graph import canonical_edge

            edge3d = canonical_edge((ax, ay, z), (bx, by, z))
            expected += graph.capacity(edge3d)
        assert grid.capacity[edge2d] == pytest.approx(expected)

    def test_neighbors_skip_zero_capacity(self, chip, graph):
        grid = _Grid2D(graph)
        for node in [(0, 0), (1, 1)]:
            for _other, edge in grid.neighbors(node):
                assert grid.capacity.get(edge, 0.0) > 0


class TestLayerAssignment:
    def test_edges_on_matching_direction_layers(self, chip, graph):
        router = IsrGlobalRouter(chip, graph=graph)
        result = router.run()
        for route in result.routes.values():
            for edge in route.edges:
                (ax, ay, z1), (bx, by, z2) = edge
                if z1 != z2:
                    continue  # via
                horizontal_move = ay == by
                assert (
                    chip.stack.direction(z1) is Direction.HORIZONTAL
                ) == horizontal_move, f"edge {edge} on wrong-direction layer"

    def test_vias_form_contiguous_stacks(self, chip, graph):
        router = IsrGlobalRouter(chip, graph=graph)
        result = router.run()
        for route in result.routes.values():
            per_tile = {}
            for edge in route.edges:
                if edge[0][2] != edge[1][2]:
                    tile = (edge[0][0], edge[0][1])
                    per_tile.setdefault(tile, []).append(
                        (min(edge[0][2], edge[1][2]))
                    )
            for tile, levels in per_tile.items():
                levels.sort()
                for a, b in zip(levels, levels[1:]):
                    assert b == a + 1, f"gap in via stack at {tile}: {levels}"


class TestTrackAssignment:
    def test_assigned_segment_on_track(self, chip):
        space = RoutingSpace(chip)
        router = IsrDetailedRouter(space, track_assignment=True)
        long_net = max(chip.nets, key=lambda n: n.half_perimeter())
        assigned = router._assign_track_segment(long_net)
        if not assigned:
            pytest.skip("no legal track segment on this instance")
        route = space.routes[long_net.name]
        assert route.wires, "track assignment must add a stick"
        stick = route.wires[0]
        graph = space.graph
        coord = stick.y0 if stick.y0 == stick.y1 else stick.x0
        assert coord in graph._track_index[stick.layer], "segment off track"

    def test_short_nets_skipped(self, chip):
        space = RoutingSpace(chip)
        router = IsrDetailedRouter(space, track_assignment=True)
        short_net = min(chip.nets, key=lambda n: n.half_perimeter())
        if short_net.half_perimeter() >= 4 * 80:
            pytest.skip("no short-enough net in this instance")
        assert not router._assign_track_segment(short_net)


class TestStats:
    def test_scenic_requires_min_length(self, chip):
        space = RoutingSpace(chip)
        # A short route with a massive detour is still not scenic.
        net = chip.nets[0]
        z = 3
        y = space.graph.tracks[z][1]
        for offset in range(0, SCENIC_LENGTH_THRESHOLD // 200):
            space.add_wire(
                net.name, "default",
                StickFigure(z, 400, y, 500, y),
            )
            break
        assert net.name not in scenic_nets(space, 0.25)

    def test_peak_memory_positive(self):
        assert peak_memory_mb() > 1.0
