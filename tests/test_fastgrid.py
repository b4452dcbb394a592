"""Tests for the fast grid cache (Sec. 3.6)."""

import os
import subprocess
import sys

import pytest

from repro.chip.generator import ChipSpec, generate_chip
from repro.droute.space import RoutingSpace
from repro.geometry.l1 import rect_l2_gap
from repro.geometry.rect import Rect
from repro.grid.shapegrid import RipupLevel
from repro.tech.wiring import StickFigure


@pytest.fixture(scope="module")
def space():
    spec = ChipSpec("fgtest", rows=2, row_width_cells=4, net_count=4, seed=3)
    return RoutingSpace(generate_chip(spec))


def _some_vertex(space, z=3):
    graph = space.graph
    t = len(graph.tracks[z]) // 2
    c = len(graph.crosses[z]) // 2
    return (z, t, c)


class TestWords:
    def test_word_has_four_entries(self, space):
        word = space.fast_grid.word("default", _some_vertex(space))
        assert len(word) == 4

    def test_word_cached(self, space):
        fast = space.fast_grid
        vertex = _some_vertex(space)
        fast.word("default", vertex)
        misses = fast.misses
        fast.word("default", vertex)
        assert fast.misses == misses
        assert fast.hits > 0

    def test_free_space_usable(self, space):
        vertex = _some_vertex(space, z=5)
        assert space.fast_grid.vertex_usable("default", vertex, "wire")
        assert space.fast_grid.vertex_usable("default", vertex, "jog")

    def test_wide_type_layer_restriction(self, space):
        vertex = _some_vertex(space, z=1)
        # "wide" is not allowed on layer 1 at all.
        assert not space.fast_grid.vertex_usable("wide", vertex, "wire")

    def test_batch_matches_individual(self):
        """The band sweep's fields equal individual checks; so do the via
        fields it leaves, once their first read fills them."""
        spec = ChipSpec("fgbatch", rows=2, row_width_cells=4, net_count=4, seed=3)
        fast = RoutingSpace(generate_chip(spec)).fast_grid
        wire_type = fast.wire_types["default"]
        z, t = 3, 1
        fast.ensure_words("default", z, t, 0, 10)
        for c in range(0, 11):
            cached = fast.cached_word("default", z, t, c)
            fresh = fast._compute_word(wire_type, (z, t, c))
            assert cached[:2] == fresh[:2], f"batched word differs at c={c}"
            assert cached[2:] == (None, None), f"via field filled at c={c}"
            fast.vertex_usable("default", (z, t, c), "via_down")
            fast.vertex_usable("default", (z, t, c), "via_up")
            cached = fast.cached_word("default", z, t, c)
            assert cached == fresh, f"lazily filled word differs at c={c}"


class _CountingChecker:
    """Counts a checker's ``check_metal``/``check_via`` calls."""

    def __init__(self, checker):
        self.calls = {"check_metal": 0, "check_via": 0}
        for name in self.calls:
            original = getattr(checker, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                self.calls[_name] += 1
                return _original(*args, **kwargs)

            setattr(checker, name, counted)


class TestLazyFields:
    """Band sweeps fill wire and jog; via fields fill on first read."""

    @pytest.fixture()
    def fresh(self):
        spec = ChipSpec("fglazy", rows=2, row_width_cells=4, net_count=4, seed=3)
        space = RoutingSpace(generate_chip(spec))
        return space, _CountingChecker(space.checker)

    def test_band_sweep_runs_no_via_check(self, fresh):
        """The sweep runs ``check_metal`` exactly for the (vertex, field)
        pairs with a stored piece nearer than the checker's reach, runs no
        via check, and fills fields equal to fresh checks."""
        space, counter = fresh
        fast, graph, checker = space.fast_grid, space.graph, space.checker
        wire_type = fast.wire_types["default"]
        z, t = 3, 2
        # A foreign wire on part of the segment: some candidates come
        # near it, the rest of the segment stays clear.
        x0, y0, _ = graph.position((z, t, 8))
        x1, y1, _ = graph.position((z, t, 10))
        space.add_wire("sweepnet", "default", StickFigure(z, x0, y0, x1, y1))
        counter.calls["check_metal"] = 0
        computed = fast.ensure_words("default", z, t, 0, 20)
        assert computed == 21
        assert counter.calls["check_via"] == 0
        radius = checker.rules.spacing_rule(z).max_spacing() + 1
        candidates = []
        for c in range(21):
            x, y, _ = graph.position((z, t, c))
            point = StickFigure(z, x, y, x, y)
            wire, cls, _ = wire_type.wire_shape(point, graph.stack)
            jog_model = wire_type.nonpreferred_model(z)
            jog = jog_model.metal_shape(point, graph.stack.direction(z))
            candidates.append((wire, cls.rule_width))
            candidates.append((jog, jog_model.shape_class.rule_width))
        nearby = [
            space.shape_grid.query("wiring", z, shape.expanded(radius))
            for shape, _ in candidates
        ]
        widest = max(e.rule_width for pieces in nearby for e in pieces)
        near = sum(
            any(
                rect_l2_gap(shape, e.rect)
                < checker.metal_reach(z, rule_width, widest)
                for e in pieces
            )
            for (shape, rule_width), pieces in zip(candidates, nearby)
        )
        window_met = sum(1 for pieces in nearby if pieces)
        assert 0 < near < window_met < 2 * computed
        assert counter.calls["check_metal"] == near
        for c in range(21):
            fresh = fast._compute_word(wire_type, (z, t, c))
            assert fast.cached_word("default", z, t, c)[:2] == fresh[:2]

    def test_one_via_read_fills_only_that_field(self, fresh):
        space, counter = fresh
        fast = space.fast_grid
        z, t, c = _some_vertex(space)
        fast.ensure_words("default", z, t, c, c)
        fast.vertex_usable("default", (z, t, c), "via_up")
        assert counter.calls["check_via"] == 1
        word = fast.cached_word("default", z, t, c)
        assert word[0] is not None and word[1] is not None
        assert word[2] is None and word[3] is not None
        # Reading it again is a hit: no further check.
        misses = fast.misses
        fast.vertex_usable("default", (z, t, c), "via_up")
        assert counter.calls["check_via"] == 1
        assert fast.misses == misses

    def test_via_edge_fills_both_fields_with_one_check(self, fresh):
        space, counter = fresh
        fast = space.fast_grid
        wire_type = fast.wire_types["default"]
        lower = _some_vertex(space)
        upper = space.graph.via_partner(lower, lower[0] + 1)
        assert upper is not None
        misses, hits = fast.misses, fast.hits
        usable = fast.edge_usable("default", lower, upper, "via")
        # The lower via_up and the upper via_down are the same via check.
        assert counter.calls["check_via"] == 1
        lower_tw = fast._tracks[("default",) + lower[:2]]
        upper_tw = fast._tracks[("default",) + upper[:2]]
        assert lower_tw.valid[lower[2]] == 0b1000  # via_up only
        assert upper_tw.valid[upper[2]] == 0b0100  # via_down only
        # Band fields missing: the vertices do not count as cached.
        assert fast.cached_word("default", *lower) is None
        if usable:  # the upper field is read only when the lower passes
            assert (fast.misses - misses, fast.hits - hits) == (1, 1)
        assert fast.word("default", lower)[3] == fast._compute_word(
            wire_type, lower
        )[3]
        assert fast.word("default", upper)[2] == fast._compute_word(
            wire_type, upper
        )[2]

    def test_invalidate_clears_all_four_fields(self, fresh):
        space, _ = fresh
        fast = space.fast_grid
        vertex = _some_vertex(space)
        fast.word("default", vertex)
        assert None not in fast.cached_word("default", *vertex)
        x, y, z = space.graph.position(vertex)
        fast.invalidate_region(z, Rect(x, y, x, y))
        assert fast._tracks[("default",) + vertex[:2]].valid[vertex[2]] == 0
        assert fast.cached_word("default", *vertex) is None


class TestInvalidation:
    def test_shape_add_invalidates(self):
        spec = ChipSpec("fginv", rows=2, row_width_cells=4, net_count=4, seed=3)
        space = RoutingSpace(generate_chip(spec))
        graph = space.graph
        z = 3
        t = len(graph.tracks[z]) // 2
        c = len(graph.crosses[z]) // 2
        vertex = (z, t, c)
        assert space.fast_grid.vertex_usable("default", vertex, "wire")
        x, y, _ = graph.position(vertex)
        # Drop a foreign wire exactly through the vertex.
        space.add_wire("blockernet", "default", StickFigure(z, x - 200, y, x + 200, y))
        assert not space.fast_grid.vertex_usable("default", vertex, "wire")
        # Removal restores usability.
        space.remove_wire("blockernet", StickFigure(z, x - 200, y, x + 200, y))
        assert space.fast_grid.vertex_usable("default", vertex, "wire")

    def test_ripup_levels_in_word(self):
        spec = ChipSpec("fgrip", rows=2, row_width_cells=4, net_count=4, seed=3)
        space = RoutingSpace(generate_chip(spec))
        graph = space.graph
        z = 3
        vertex = (z, len(graph.tracks[z]) // 2, len(graph.crosses[z]) // 2)
        x, y, _ = graph.position(vertex)
        space.add_wire(
            "softnet", "default", StickFigure(z, x - 200, y, x + 200, y),
            ripup_level=int(RipupLevel.NORMAL),
        )
        fast = space.fast_grid
        assert not fast.vertex_usable("default", vertex, "wire")
        assert fast.vertex_usable(
            "default", vertex, "wire", ripup_level=int(RipupLevel.NORMAL)
        )
        assert not fast.vertex_usable(
            "default", vertex, "wire", ripup_level=int(RipupLevel.CRITICAL)
        )

    def test_dirty_bits_force_segment_check(self):
        spec = ChipSpec("fgdirty", rows=2, row_width_cells=4, net_count=4, seed=3)
        space = RoutingSpace(generate_chip(spec))
        graph = space.graph
        z = 3
        t = len(graph.tracks[z]) // 2
        c = len(graph.crosses[z]) // 2
        v, w = (z, t, c), (z, t, c + 1)
        assert space.fast_grid.edge_usable("default", v, w, "wire")
        # An off-track blob strictly between the two vertices.
        xv, yv, _ = graph.position(v)
        xw, yw, _ = graph.position(w)
        mid_x = (xv + xw) // 2
        space.shape_grid.add_shape(
            "wiring", z, Rect(mid_x - 10, yv - 10, mid_x + 10, yv + 10),
            "offnet", "blob", __import__("repro.tech.wiring", fromlist=["ShapeKind"]).ShapeKind.WIRE,
            3, 20,
        )
        space.fast_grid.invalidate_region(
            z, Rect(mid_x - 10, yv - 10, mid_x + 10, yv + 10), off_track=True
        )
        assert not space.fast_grid.edge_usable("default", v, w, "wire")


class TestStats:
    def test_hit_rate_grows_with_reuse(self, space):
        fast = space.fast_grid
        for _ in range(3):
            for c in range(0, 20):
                fast.word("default", (3, 1, c))
        assert fast.hit_rate > 0.5

    def test_interval_count_positive_after_queries(self, space):
        space.fast_grid.ensure_words("default", 3, 2, 0, 30)
        assert space.fast_grid.interval_count() > 0
        # Far fewer intervals than cached vertices (compression works).
        cached = space.fast_grid.cached_word_count()
        assert space.fast_grid.interval_count() < cached

    def test_interval_count_stored_order(self):
        """interval_count walks cached words in stored (array) order.

        Filling a track out of order must not split runs: the count only
        reflects real gaps in cached coverage and legality flips.
        """
        spec = ChipSpec("fgcount", rows=2, row_width_cells=4, net_count=4, seed=3)
        fast = RoutingSpace(generate_chip(spec)).fast_grid
        assert fast.interval_count() == 0
        # Fill [10, 14] before [0, 4]: stored-order iteration sees
        # [0, 4] then the gap then [10, 14] -> exactly 2 runs on a
        # uniformly-legal track.
        fast.ensure_words("default", 3, 1, 10, 14)
        fast.ensure_words("default", 3, 1, 0, 4)
        assert fast.interval_count() >= 2  # the gap forces separate runs

    def test_disabled_grid_always_misses(self):
        spec = ChipSpec("fgoff", rows=2, row_width_cells=4, net_count=4, seed=3)
        space = RoutingSpace(generate_chip(spec), fast_grid_enabled=False)
        vertex = _some_vertex(space)
        space.fast_grid.word("default", vertex)
        space.fast_grid.word("default", vertex)
        assert space.fast_grid.hits == 0
        assert space.fast_grid.misses == 2


def test_routing_stack_imports_without_numpy():
    """The flow, the ECO session and the detailed router stay stdlib-only:
    importing them must not pull numpy in, even where it is installed."""
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys\n"
        "import repro.flow.bonnroute, repro.engine.session, repro.droute.router\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
