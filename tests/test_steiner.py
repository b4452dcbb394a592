"""Tests for the Steiner-length baselines (the FLUTE stand-in)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.steiner.rsmt import (
    exact_steiner_length,
    heuristic_steiner_length,
    rectilinear_mst_length,
    steiner_length,
)

point = st.tuples(st.integers(0, 200), st.integers(0, 200))


class TestMst:
    def test_two_points(self):
        assert rectilinear_mst_length([(0, 0), (3, 4)]) == 7

    def test_duplicates_ignored(self):
        assert rectilinear_mst_length([(0, 0), (0, 0), (5, 0)]) == 5

    def test_single_point(self):
        assert rectilinear_mst_length([(1, 1)]) == 0

    def test_collinear(self):
        assert rectilinear_mst_length([(0, 0), (10, 0), (25, 0)]) == 25


class TestExact:
    def test_two_points_l1(self):
        assert exact_steiner_length([(0, 0), (7, 5)]) == 12

    def test_three_point_star(self):
        # Median point (5, 0): 5 + 5 + 8.
        assert exact_steiner_length([(0, 0), (10, 0), (5, 8)]) == 18

    def test_four_corners(self):
        # Classic: 4 corners of a square need 3 * side.
        assert exact_steiner_length([(0, 0), (10, 0), (0, 10), (10, 10)]) == 30

    def test_cross(self):
        points = [(5, 0), (5, 10), (0, 5), (10, 5)]
        assert exact_steiner_length(points) == 20

    def test_never_exceeds_mst(self):
        points = [(0, 0), (10, 3), (4, 9), (12, 12), (1, 7)]
        assert exact_steiner_length(points) <= rectilinear_mst_length(points)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(point, min_size=2, max_size=5, unique=True))
    def test_exact_bounds(self, points):
        exact = exact_steiner_length(points)
        mst = rectilinear_mst_length(points)
        assert exact <= mst
        # Hwang bound: MST <= 1.5 * RSMT.
        assert mst <= 1.5 * exact + 1e-9
        # RSMT at least half the bounding box perimeter... actually at
        # least the bounding box half-perimeter for connected trees.
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert exact >= (max(xs) - min(xs)) + (max(ys) - min(ys)) - 0  # HPWL lower bound
        # HPWL is only a lower bound for <= 3 terminals; use generic
        # sanity: positive unless all points coincide.
        if len(set(points)) > 1:
            assert exact > 0


class TestHeuristic:
    def test_improves_over_mst_on_corners(self):
        points = [(0, 0), (10, 0), (0, 10), (10, 10)]
        assert heuristic_steiner_length(points) == 30
        assert rectilinear_mst_length(points) == 30  # MST already 30 here

    def test_improves_star(self):
        points = [(0, 0), (10, 0), (5, 8)]
        assert heuristic_steiner_length(points) == 18

    @settings(max_examples=20, deadline=None)
    @given(st.lists(point, min_size=2, max_size=7, unique=True))
    def test_heuristic_between_exact_and_mst(self, points):
        exact = exact_steiner_length(points)
        heuristic = heuristic_steiner_length(points)
        mst = rectilinear_mst_length(points)
        assert exact <= heuristic <= mst


class TestDispatcher:
    def test_small_uses_exact(self):
        points = [(0, 0), (10, 0), (0, 10), (10, 10)]
        assert steiner_length(points) == exact_steiner_length(points)

    def test_large_terminal_count(self):
        points = [(i * 13 % 97, i * 29 % 83) for i in range(15)]
        value = steiner_length(points)
        assert 0 < value <= rectilinear_mst_length(points)

    def test_cached(self):
        points = [(0, 0), (50, 60), (10, 90)]
        assert steiner_length(points) == steiner_length(list(reversed(points)))
