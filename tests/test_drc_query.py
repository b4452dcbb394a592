"""Tests for the distance rule checking module (Sec. 3.4)."""

import pytest

from repro.geometry.rect import Rect
from repro.grid.drc_query import DistanceRuleChecker
from repro.grid.shapegrid import RIPUP_FIXED, RipupLevel, ShapeGrid
from repro.tech.stacks import example_rules, example_stack, example_wiretypes
from repro.tech.wiring import ShapeKind


@pytest.fixture
def env():
    stack = example_stack(4)
    rules = example_rules(4)
    grid = ShapeGrid(Rect(0, 0, 8000, 8000), stack)
    checker = DistanceRuleChecker(grid, stack, rules)
    wire_types = example_wiretypes(stack)
    return stack, rules, grid, checker, wire_types


def _add_fixed(grid, rect, layer=1):
    grid.add_shape(
        "wiring", layer, rect, None, "blk", ShapeKind.BLOCKAGE, RIPUP_FIXED, 40
    )


def _add_net_wire(grid, rect, net, layer=1, level=RipupLevel.NORMAL):
    grid.add_shape(
        "wiring", layer, rect, net, "wire_w40", ShapeKind.WIRE, int(level), 40
    )


class TestCheckMetal:
    def test_empty_space_legal(self, env):
        *_, checker, _types = env
        result = checker.check_metal(1, Rect(100, 100, 200, 140), 40, "n0")
        assert result.legal

    def test_own_net_ignored(self, env):
        _stack, _rules, grid, checker, _types = env
        _add_net_wire(grid, Rect(100, 100, 500, 140), "n0")
        result = checker.check_metal(1, Rect(100, 100, 500, 140), 40, "n0")
        assert result.legal

    def test_too_close_foreign_wire_illegal(self, env):
        _stack, _rules, grid, checker, _types = env
        _add_net_wire(grid, Rect(100, 100, 500, 140), "other")
        # 20 dbu below required 40 spacing.
        candidate = Rect(100, 160, 500, 200)
        result = checker.check_metal(1, candidate, 40, "n0")
        assert not result.legal
        assert result.blockers == {"other"}
        assert result.max_ripup_needed == int(RipupLevel.NORMAL)

    def test_exactly_at_spacing_legal(self, env):
        _stack, _rules, grid, checker, _types = env
        _add_net_wire(grid, Rect(100, 100, 500, 140), "other")
        candidate = Rect(100, 180, 500, 220)  # gap exactly 40
        assert checker.check_metal(1, candidate, 40, "n0").legal

    def test_fixed_blockage_unrippable(self, env):
        _stack, _rules, grid, checker, _types = env
        _add_fixed(grid, Rect(100, 100, 500, 140))
        result = checker.check_metal(1, Rect(100, 150, 500, 190), 40, "n0")
        assert not result.legal
        assert result.max_ripup_needed == RIPUP_FIXED
        assert not result.legal_with_ripup(10)

    def test_legal_with_ripup_level(self, env):
        _stack, _rules, grid, checker, _types = env
        _add_net_wire(grid, Rect(100, 100, 500, 140), "other", level=RipupLevel.NORMAL)
        result = checker.check_metal(1, Rect(100, 150, 500, 190), 40, "n0")
        assert result.legal_with_ripup(int(RipupLevel.NORMAL))
        assert not result.legal_with_ripup(int(RipupLevel.CRITICAL))

    def test_wide_shape_needs_more_spacing(self, env):
        _stack, rules, grid, checker, _types = env
        # A wide (rule width 80) foreign shape: spacing table row kicks in.
        grid.add_shape(
            "wiring", 1, Rect(100, 100, 500, 180), "other", "wire_w80",
            ShapeKind.WIRE, int(RipupLevel.NORMAL), 80,
        )
        required = rules.spacing_rule(1).spacing(40, 80, 400)
        assert required > rules.spacing_rule(1).base_spacing
        gap_ok = Rect(100, 180 + required, 500, 220 + required)
        gap_bad = Rect(100, 180 + required - 10, 500, 220 + required - 10)
        assert checker.check_metal(1, gap_ok, 40, "n0").legal
        assert not checker.check_metal(1, gap_bad, 40, "n0").legal

    def test_run_length_dependence(self, env):
        """Long parallel wide runs need the biggest spacing; short ones not."""
        _stack, rules, grid, checker, _types = env
        rule = rules.spacing_rule(1)
        long_run = rule.table[-1][1]
        grid.add_shape(
            "wiring", 1, Rect(0, 100, long_run + 500, 180), "other", "w80",
            ShapeKind.WIRE, int(RipupLevel.NORMAL), 80,
        )
        mid = rule.spacing(80, 80, 0)
        top = rule.spacing(80, 80, long_run)
        assert top > mid
        # Short candidate (low run-length): mid spacing suffices.
        short = Rect(0, 180 + mid, 100, 260 + mid)
        assert checker.check_metal(1, short, 80, "n0").legal
        # Long candidate at the same gap: violates the long-run row.
        long_candidate = Rect(0, 180 + mid, long_run + 100, 260 + mid)
        assert not checker.check_metal(1, long_candidate, 80, "n0").legal

    def test_clipped_pieces_merged_for_run_length(self, env):
        """A long stored wire keeps its run-length despite cell clipping."""
        _stack, rules, grid, checker, _types = env
        rule = rules.spacing_rule(1)
        long_run = rule.table[-1][1]
        # Stored wide wire much longer than a shape-grid cell.
        grid.add_shape(
            "wiring", 1, Rect(0, 100, 6000, 180), "other", "w80",
            ShapeKind.WIRE, int(RipupLevel.NORMAL), 80,
        )
        mid = rule.spacing(80, 80, 0)
        long_candidate = Rect(0, 180 + mid, 6000, 260 + mid)
        result = checker.check_metal(1, long_candidate, 80, "n0")
        assert not result.legal, (
            "run-length must be computed on merged pieces, not per cell"
        )

    def test_query_count_increments(self, env):
        *_, checker, _types = env
        before = checker.query_count
        checker.check_metal(1, Rect(0, 0, 40, 40), 40, None)
        assert checker.query_count == before + 1


class TestViaChecks:
    def test_via_in_empty_space_legal(self, env):
        _stack, _rules, _grid, checker, types = env
        assert checker.check_via(types["default"], 1, 400, 400, "n0").legal

    def test_via_cut_spacing(self, env):
        stack, rules, grid, checker, types = env
        model = types["default"].via_model(1)
        # Place a foreign cut, then check another cut too close.
        for kind, layer, rect, cls, shape_kind in model.shapes(400, 400, 1):
            grid.add_shape(
                kind, layer, rect, "other", cls.name, shape_kind,
                int(RipupLevel.NORMAL), cls.rule_width,
            )
        spacing = rules.via_rule(1).cut_spacing
        too_close = checker.check_via(types["default"], 1, 400 + spacing, 400, "n0")
        assert not too_close.legal
        far = checker.check_via(
            types["default"], 1, 400 + 40 + spacing + 200, 400, "n0"
        )
        assert far.legal

    def test_inter_layer_via_rule_uses_projection(self, env):
        stack, rules, grid, checker, types = env
        model = types["default"].via_model(1)
        assert model.project_cut
        for kind, layer, rect, cls, shape_kind in model.shapes(400, 400, 1):
            grid.add_shape(
                kind, layer, rect, "other", cls.name, shape_kind,
                int(RipupLevel.NORMAL), cls.rule_width,
            )
        # A via on the next higher via layer, directly above: violates the
        # adjacent-layer rule via the stored projection.
        result = checker.check_via(types["default"], 2, 400, 400, "n0")
        assert not result.legal


class TestAllowedModels:
    def test_reports_all_shape_types(self, env):
        _stack, _rules, _grid, checker, types = env
        out = checker.allowed_models([types["default"]], 2, 400, 400, "n0")
        entry = out["default"]
        assert set(entry) == {"wire", "jog", "via_down", "via_up"}
        assert all(entry.values())

    def test_layer_restricted_type_has_no_entry(self, env):
        _stack, _rules, _grid, checker, types = env
        out = checker.allowed_models([types["wide"]], 1, 400, 400, "n0")
        assert "wire" not in out["wide"]

    def test_blocked_location_reports_false(self, env):
        _stack, _rules, grid, checker, types = env
        _add_fixed(grid, Rect(380, 380, 420, 420), layer=2)
        out = checker.allowed_models([types["default"]], 2, 400, 400, "n0")
        assert not out["default"]["wire"]
