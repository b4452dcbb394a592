"""Tests for RoutingArea and the GraphView interval decomposition."""

import pytest

from repro.chip.generator import ChipSpec, generate_chip
from repro.droute.area import RoutingArea
from repro.droute.intervals import GraphView
from repro.droute.space import RoutingSpace
from repro.geometry.rect import Rect
from repro.tech.wiring import StickFigure


@pytest.fixture(scope="module")
def space():
    return RoutingSpace(
        generate_chip(ChipSpec("avtest", rows=2, row_width_cells=4, net_count=4, seed=2))
    )


class TestRoutingArea:
    def test_everywhere_contains_all(self, space):
        area = RoutingArea.everywhere()
        assert area.contains(0, 0, 1)
        assert area.contains(10**6, -5, 3)
        assert area.contains(0, 0, 99)

    def test_boxes_respected(self):
        area = RoutingArea.from_boxes([(2, Rect(0, 0, 100, 100))])
        assert area.contains(50, 50, 2)
        assert not area.contains(150, 50, 2)
        assert not area.contains(50, 50, 3)

    def test_expanded(self):
        area = RoutingArea.from_boxes([(2, Rect(0, 0, 100, 100))])
        grown = area.expanded(50)
        assert grown.contains(140, 140, 2)
        assert not grown.contains(200, 200, 2)
        # everywhere stays everywhere
        assert RoutingArea.everywhere().expanded(10).contains(5, 5, 1)

    def test_cross_ranges_merge_overlaps(self, space):
        graph = space.graph
        z = 3
        y = graph.tracks[z][1]
        area = RoutingArea.from_boxes([
            (z, Rect(0, y - 10, 1000, y + 10)),
            (z, Rect(800, y - 10, 2000, y + 10)),
        ])
        ranges = area.cross_ranges(graph, z, 1)
        assert len(ranges) == 1, f"overlapping boxes must merge: {ranges}"

    def test_cross_ranges_disjoint(self, space):
        graph = space.graph
        z = 3
        y = graph.tracks[z][1]
        area = RoutingArea.from_boxes([
            (z, Rect(0, y - 10, 500, y + 10)),
            (z, Rect(2000, y - 10, 2500, y + 10)),
        ])
        ranges = area.cross_ranges(graph, z, 1)
        assert len(ranges) == 2

    def test_cross_ranges_empty_off_box_tracks(self, space):
        graph = space.graph
        z = 3
        y = graph.tracks[z][2]
        area = RoutingArea.from_boxes([(z, Rect(0, y - 1, 4000, y + 1))])
        open_tracks = [
            t for t in range(len(graph.tracks[z]))
            if area.cross_ranges(graph, z, t)
        ]
        assert open_tracks == [2]


class TestGraphViewIntervals:
    def test_clean_track_single_interval(self, space):
        view = GraphView(space, "default", RoutingArea.everywhere())
        z = 5  # clean thick layer
        runs = view.track_intervals(z, 2)
        assert len(runs) == 1
        interval = view.interval(runs[0][1])
        assert interval.c_lo == 0
        assert interval.c_hi == len(space.graph.crosses[z]) - 1

    def test_blocked_track_splits(self):
        space = RoutingSpace(
            generate_chip(ChipSpec("avsplit", rows=2, row_width_cells=4, net_count=4, seed=2))
        )
        graph = space.graph
        z, t = 5, 2
        y = graph.tracks[z][t]
        x_lo, _, _ = graph.position((z, t, 3))
        x_hi, _, _ = graph.position((z, t, 5))
        space.add_wire("blk", "default", StickFigure(z, x_lo, y, x_hi, y))
        view = GraphView(space, "default", RoutingArea.everywhere())
        runs = view.track_intervals(z, t)
        assert len(runs) >= 2, "a foreign wire must split the track run"
        covered = set()
        for _c_lo, index in runs:
            interval = view.interval(index)
            covered.update(range(interval.c_lo, interval.c_hi + 1))
        blocked = set(range(3, 6))
        assert not (covered & blocked)

    def test_ripup_singletons(self):
        space = RoutingSpace(
            generate_chip(ChipSpec("avrip", rows=2, row_width_cells=4, net_count=4, seed=2))
        )
        graph = space.graph
        z, t = 5, 2
        y = graph.tracks[z][t]
        x_lo, _, _ = graph.position((z, t, 3))
        x_hi, _, _ = graph.position((z, t, 4))
        space.add_wire("soft", "default", StickFigure(z, x_lo, y, x_hi, y))
        view = GraphView(
            space, "default", RoutingArea.everywhere(),
            ripup_level=3, ripup_base_penalty=100,
        )
        runs = view.track_intervals(z, t)
        singles = [
            view.interval(i) for _c, i in runs if view.interval(i).needs_ripup
        ]
        assert singles, "rippable vertices must become singleton intervals"
        for interval in singles:
            assert len(interval) == 1
            assert interval.penalty >= 100

    def test_interval_at_none_outside_area(self, space):
        graph = space.graph
        z = 3
        y = graph.tracks[z][1]
        area = RoutingArea.from_boxes([(z, Rect(0, y - 1, 400, y + 1))])
        view = GraphView(space, "default", area)
        inside = view.interval_at((z, 1, 0))
        far = view.interval_at((z, 1, len(graph.crosses[z]) - 1))
        assert inside is not None
        assert far is None

    def test_wide_type_escapes_on_lower_layers(self, space):
        view = GraphView(space, "wide", RoutingArea.everywhere())
        assert view.type_for_layer(1) == "default"  # escape wiring
        assert view.type_for_layer(4) == "wide"
        assert view.type_for_via(1) == "default"
        assert view.type_for_via(4) == "wide"
