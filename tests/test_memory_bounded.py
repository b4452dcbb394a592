"""Memory-bounded routing spaces: lazy fixed rows, LRU pin-access memo.

Laziness and eviction bound memory, never results: the tests here pin
that down by comparing the lazy space's shape-grid content with a grid
that registers the same fixed shapes eagerly, and wiring across
memo-capacity extremes.
"""

import pytest

from repro.chip.cells import example_cell_library
from repro.chip.generator import ChipSpec, generate_chip
from repro.droute.pinaccess import PinAccessPlanner
from repro.droute.space import RoutingSpace
from repro.geometry.rect import Rect
from repro.grid.shapegrid import RIPUP_FIXED, ShapeGrid
from repro.tech.wiring import ShapeKind
from repro.util.rng import make_rng


QUICK_SPEC = ChipSpec("memtest", rows=2, row_width_cells=5, net_count=8, seed=101)


def canonical_routes(routes):
    return {
        name: (
            tuple(
                (tn, level, s.layer, s.x0, s.y0, s.x1, s.y1)
                for s, level, tn in route.wire_items()
            ),
            tuple(
                (tn, level, v.via_layer, v.x, v.y)
                for v, level, tn in route.via_items()
            ),
        )
        for name, route in routes.items()
    }


def canonical_paths(paths):
    return [
        (p.layer, p.endpoint, p.length, tuple(p.points), p.via is None)
        for p in paths
    ]


def eager_fixed_grid(chip):
    """A shape grid holding the chip's fixed geometry, registered with
    ``add_shape`` in the order the routing space registers it lazily."""
    grid = ShapeGrid(chip.die, chip.stack)
    for layer, rect, _owner in chip.obstruction_shapes():
        if chip.stack.has_layer(layer):
            grid.add_shape(
                "wiring", layer, rect, None, "blockage", ShapeKind.BLOCKAGE,
                RIPUP_FIXED, min(rect.width, rect.height),
            )
    for net in chip.nets:
        for pin in net.pins:
            for layer, rect in pin.shapes:
                if chip.stack.has_layer(layer):
                    grid.add_shape(
                        "wiring", layer, rect, net.name, "pin", ShapeKind.PIN,
                        RIPUP_FIXED, min(rect.width, rect.height),
                    )
    return grid


class TestLazyFixedRows:
    def test_lazy_space_defers_fixed_geometry(self):
        chip = generate_chip(QUICK_SPEC)
        lazy = RoutingSpace(chip)
        assert lazy.shape_grid.pending_fixed_count() > 0
        assert lazy.shape_grid.materialized_row_count() == 0

    def test_lazy_queries_match_eager(self):
        chip = generate_chip(QUICK_SPEC)
        lazy = RoutingSpace(chip)
        eager = eager_fixed_grid(chip)
        assert eager.pending_fixed_count() == 0
        rng = make_rng(17)
        die = chip.die
        for _ in range(100):
            x = rng.randrange(die.x_lo, die.x_hi - 200)
            y = rng.randrange(die.y_lo, die.y_hi - 200)
            window = Rect(x, y, x + rng.randrange(40, 1200), y + rng.randrange(40, 1200))
            def entries(grid, kind, layer):
                return [
                    (
                        e.rect,
                        e.net,
                        e.class_name,
                        e.shape_kind,
                        e.ripup_level,
                        e.rule_width,
                    )
                    for e in grid.query(kind, layer, window)
                ]

            for kind, layer in sorted(eager._grids):
                # Ordered comparison on purpose: downstream consumers
                # (DRC sweeps, access-path tie-breaks) see the query
                # *stream*, so lazy materialization must reproduce the
                # eager yield order exactly, not just the same set.
                assert entries(lazy.shape_grid, kind, layer) == entries(
                    eager, kind, layer
                )
        assert lazy.shape_grid.materialized_row_count() > 0

    def test_full_materialization_matches_interval_counts(self):
        chip = generate_chip(QUICK_SPEC)
        lazy = RoutingSpace(chip)
        eager = eager_fixed_grid(chip)
        die = chip.die
        for kind, layer in sorted(eager._grids):
            lazy.shape_grid.query(kind, layer, die)
        for kind, layer in sorted(eager._grids):
            assert lazy.shape_grid.interval_count(kind, layer) == (
                eager.interval_count(kind, layer)
            )
        assert lazy.shape_grid.pending_fixed_count() == 0


class TestRoutingBitIdentity:
    @pytest.fixture(scope="class")
    def chip(self):
        return generate_chip(
            ChipSpec("memroute", rows=2, row_width_cells=4, net_count=6, seed=7)
        )

    def _route(self, chip):
        from repro.flow.bonnroute import BonnRouteFlow

        result = BonnRouteFlow(chip, gr_phases=6, seed=1).run()
        return canonical_routes(result.space.routes)

    def test_memo_eviction_pressure_does_not_change_wiring(
        self, chip, monkeypatch
    ):
        relaxed = self._route(chip)
        # Capacity 1 forces an eviction on virtually every catalogue
        # store: the cold, warm and thrashing paths must agree.
        monkeypatch.setattr(PinAccessPlanner, "memo_capacity", 1)
        pressured = self._route(chip)
        assert relaxed == pressured


class TestPinAccessMemoLru:
    @pytest.fixture()
    def space(self):
        return RoutingSpace(generate_chip(QUICK_SPEC))

    def test_capacity_bounds_memo(self, space):
        planner = PinAccessPlanner(space)
        planner.memo_capacity = 1
        pins = [net.pins[0] for net in space.chip.nets[:3]]
        for pin in pins:
            planner.build_catalogue(pin)
            assert len(planner._catalogue_memo) <= 1

    def test_eviction_rebuild_is_identical(self, space):
        planner = PinAccessPlanner(space)
        planner.memo_capacity = 1
        pin_a = space.chip.nets[0].pins[0]
        pin_b = space.chip.nets[1].pins[0]
        cold = canonical_paths(planner.build_catalogue(pin_a))
        planner.build_catalogue(pin_b)  # evicts pin_a's entry
        rebuilt = canonical_paths(planner.build_catalogue(pin_a))
        assert rebuilt == cold

    def test_warm_hit_matches_cold(self, space):
        planner = PinAccessPlanner(space)
        pin = space.chip.nets[0].pins[0]
        cold = canonical_paths(planner.build_catalogue(pin))
        warm = canonical_paths(planner.build_catalogue(pin))
        assert warm == cold


class TestLibraryInterning:
    def test_same_parameters_share_templates(self):
        first = example_cell_library()
        second = example_cell_library()
        assert first is not second  # fresh list...
        assert all(a is b for a, b in zip(first, second))  # ...shared templates

    def test_different_parameters_do_not_share(self):
        default = example_cell_library()
        other = example_cell_library(pin_size=48)
        assert all(a is not b for a, b in zip(default, other))
