"""Tests for the global routing graph, capacities and stacked vias."""

import pytest

from repro.chip.generator import ChipSpec, generate_chip
from repro.grid.tracks import build_track_plan
from repro.groute.capacity import (
    apply_intra_tile_reduction,
    apply_stacked_via_reduction,
    estimate_capacities,
)
from repro.groute.graph import GlobalRoutingGraph, canonical_edge
from repro.groute.stackedvias import (
    capacity_reduction,
    enumerate_column_loads,
    expected_max_column_load,
)
from repro.steiner.rsmt import steiner_length
from repro.tech.layers import Direction


@pytest.fixture(scope="module")
def setup():
    chip = generate_chip(ChipSpec("grtest", rows=3, row_width_cells=6, net_count=10, seed=7))
    plan = build_track_plan(chip)
    graph = GlobalRoutingGraph(chip)
    estimate_capacities(graph, plan)
    return chip, plan, graph


class TestGraph:
    def test_tiles_cover_die(self, setup):
        chip, _plan, graph = setup
        assert graph.tiles_x[0] == chip.die.x_lo
        assert graph.tiles_x[-1] == chip.die.x_hi
        assert graph.tiles_y[-1] == chip.die.y_hi

    def test_edges_follow_preferred_direction(self, setup):
        chip, _plan, graph = setup
        for node in graph.nodes():
            tx, ty, z = node
            for other, _edge in graph.neighbors(node):
                ox, oy, oz = other
                if oz != z:
                    assert (ox, oy) == (tx, ty)
                elif chip.stack.direction(z) is Direction.HORIZONTAL:
                    assert oy == ty and abs(ox - tx) == 1
                else:
                    assert ox == tx and abs(oy - ty) == 1

    def test_edge_length_zero_for_vias(self, setup):
        _chip, _plan, graph = setup
        via = canonical_edge((0, 0, 1), (0, 0, 2))
        assert graph.is_via_edge(via)
        assert graph.edge_length(via) == 0

    def test_tile_of_point_roundtrip(self, setup):
        _chip, _plan, graph = setup
        for tx in range(graph.nx):
            for ty in range(graph.ny):
                cx, cy = graph.tile_center(tx, ty)
                assert graph.tile_of_point(cx, cy) == (tx, ty)

    def test_pin_nodes_nonempty(self, setup):
        chip, _plan, graph = setup
        for net in chip.nets:
            for pin in net.pins:
                assert graph.pin_nodes(pin)

    def test_local_net_detection(self, setup):
        chip, _plan, graph = setup
        for net in chip.nets:
            tiles = {
                (n[0], n[1])
                for term in graph.net_terminals(net)
                for n in term
            }
            assert graph.is_local_net(net) == (len(tiles) <= 1)


class TestCapacities:
    def test_all_edges_have_capacity_entries(self, setup):
        _chip, _plan, graph = setup
        for edge in graph.edges():
            assert edge in graph.capacities

    def test_wire_capacities_bounded_by_track_count(self, setup):
        chip, plan, graph = setup
        for edge in graph.edges():
            if graph.is_via_edge(edge):
                continue
            z = edge[0][2]
            assert 0.0 <= graph.capacity(edge) <= len(plan.layer_tracks(z))

    def test_rail_heavy_layer1_has_less_capacity(self, setup):
        chip, _plan, graph = setup
        def avg(z):
            caps = [
                graph.capacity(e) for e in graph.edges()
                if not graph.is_via_edge(e) and e[0][2] == z
            ]
            return sum(caps) / max(len(caps), 1)
        # M1 carries power rails and cell obstructions; M5 is clean.
        assert avg(1) < avg(5)

    def test_intra_tile_reduction_decreases(self, setup):
        chip, plan, _old = setup
        graph = GlobalRoutingGraph(chip)
        estimate_capacities(graph, plan)
        before = dict(graph.capacities)
        apply_intra_tile_reduction(graph, chip.nets, steiner_length)
        assert all(
            graph.capacities[e] <= before[e] + 1e-9 for e in before
        )
        assert any(graph.capacities[e] < before[e] for e in before)

    def test_stacked_via_reduction_decreases(self, setup):
        chip, plan, _old = setup
        graph = GlobalRoutingGraph(chip)
        estimate_capacities(graph, plan)
        before = dict(graph.capacities)
        apply_stacked_via_reduction(graph)
        assert all(graph.capacities[e] <= before[e] + 1e-9 for e in before)


class TestStackedVias:
    def test_zero_vias_zero_reduction(self):
        assert capacity_reduction(0) == 0.0

    def test_single_via_blocks_one_track(self):
        assert capacity_reduction(1) == 1.0

    def test_sublinear(self):
        values = [capacity_reduction(k) for k in range(1, 6)]
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(d < 1.0 for d in diffs), "marginal blockage must shrink"
        assert all(d >= 0 for d in diffs)

    def test_saturates(self):
        assert capacity_reduction(50) == capacity_reduction(6)

    def test_enumeration_counts(self):
        # 1 run of length 1 in a 2x2 lattice: 4 placements.
        loads = enumerate_column_loads(2, 2, 1, 1, max_per_column=2)
        assert sum(loads.values()) == 4
        # Expected max column load of a single via is exactly 1.
        assert expected_max_column_load(2, 2, 1, 1, 2) == 1.0

    def test_column_limit_respected(self):
        loads = enumerate_column_loads(2, 3, 3, 1, max_per_column=1)
        for load in loads:
            assert max(load) <= 1

    def test_p_long_runs(self):
        # One run of length 2 in a 3-column row: 2 placements per row.
        loads = enumerate_column_loads(3, 1, 1, 2, max_per_column=1)
        assert sum(loads.values()) == 2
