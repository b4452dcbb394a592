"""Tests for the technology model: layers, rules, wire/via models."""

import pytest

from repro.geometry.rect import Rect
from repro.tech.layers import Direction, Layer, LayerStack
from repro.tech.rules import RuleSet, SameNetRules, SpacingRule
from repro.tech.stacks import (
    LINE_END_EXTRA,
    THIN_WIDTH,
    example_rules,
    example_stack,
    example_wiretypes,
)
from repro.tech.wiring import ShapeClass, ShapeKind, StickFigure, WireModel


class TestLayerStack:
    def test_alternating_directions_enforced(self):
        with pytest.raises(ValueError):
            LayerStack(
                [
                    Layer(1, Direction.HORIZONTAL, 80, 40, 40),
                    Layer(2, Direction.HORIZONTAL, 80, 40, 40),
                ]
            )

    def test_contiguous_indices_enforced(self):
        with pytest.raises(ValueError):
            LayerStack(
                [
                    Layer(1, Direction.HORIZONTAL, 80, 40, 40),
                    Layer(3, Direction.HORIZONTAL, 80, 40, 40),
                ]
            )

    def test_pitch_consistency_enforced(self):
        with pytest.raises(ValueError):
            Layer(1, Direction.HORIZONTAL, 50, 40, 40)

    def test_example_stack_structure(self):
        stack = example_stack(6)
        assert len(stack) == 6
        assert stack.direction(1) is Direction.HORIZONTAL
        assert stack.direction(2) is Direction.VERTICAL
        assert stack.via_layers() == [1, 2, 3, 4, 5]
        assert stack.horizontal_layers() == [1, 3, 5]

    def test_unknown_layer_raises(self):
        stack = example_stack(4)
        with pytest.raises(KeyError):
            stack[9]


class TestSpacingRule:
    def test_base_spacing(self):
        rule = SpacingRule(40)
        assert rule.spacing(40, 40, 0) == 40

    def test_width_dependent(self):
        rule = SpacingRule(40, table=[(80, 0, 60)])
        assert rule.spacing(40, 40, 0) == 40
        assert rule.spacing(40, 80, 0) == 60  # max width of pair governs

    def test_run_length_dependent(self):
        rule = SpacingRule(40, table=[(80, 0, 60), (80, 400, 80)])
        assert rule.spacing(80, 80, 100) == 60
        assert rule.spacing(80, 80, 400) == 80

    def test_monotone_in_width_and_runlength(self):
        rule = example_rules(6).spacing_rule(1)
        last = 0
        for width in (40, 80, 120):
            for run in (0, 200, 400, 1000):
                value = rule.spacing(width, width, run)
                assert value >= rule.spacing(40, 40, 0)
        assert rule.spacing(120, 120, 1000) >= rule.spacing(40, 40, 0)

    def test_line_end_extra(self):
        rule = SpacingRule(40, line_end_threshold=60, line_end_extra=20)
        assert rule.spacing_with_line_end(40, 40, 0, True) == 60
        assert rule.spacing_with_line_end(40, 40, 0, False) == 40

    def test_table_below_base_rejected(self):
        with pytest.raises(ValueError):
            SpacingRule(40, table=[(80, 0, 30)])

    def test_max_spacing_bounds_table(self):
        rule = example_rules(6).spacing_rule(1)
        assert rule.max_spacing() >= rule.spacing(1000, 1000, 100000)


class TestRuleSet:
    def test_lookup(self):
        rules = example_rules(6)
        assert rules.spacing_rule(1).base_spacing == 40
        assert rules.same_net_rules(1).min_segment_length == 80
        assert rules.via_rule(1) is not None
        assert rules.via_rule(99) is None

    def test_missing_layer_raises(self):
        rules = RuleSet({1: SpacingRule(40)}, {1: SameNetRules(80, 4800, 40, 40)})
        with pytest.raises(KeyError):
            rules.spacing_rule(2)


class TestStickFigure:
    def test_diagonal_rejected(self):
        with pytest.raises(ValueError):
            StickFigure(1, 0, 0, 5, 5)

    def test_normalized_order(self):
        stick = StickFigure(1, 10, 0, 2, 0)
        assert (stick.x0, stick.x1) == (2, 10)

    def test_direction_and_length(self):
        assert StickFigure(1, 0, 0, 9, 0).direction is Direction.HORIZONTAL
        assert StickFigure(1, 0, 0, 0, 9).direction is Direction.VERTICAL
        assert StickFigure(1, 0, 0, 0, 0).direction is None
        assert StickFigure(1, 0, 0, 9, 0).length == 9


class TestWireModels:
    def test_metal_shape_is_minkowski_sum(self):
        cls = ShapeClass("w40", 40)
        model = WireModel.symmetric(40, cls)
        stick = StickFigure(1, 0, 0, 100, 0)
        shape = model.metal_shape(stick, Direction.HORIZONTAL)
        assert shape == Rect(-20, -20, 120, 20)

    def test_line_end_extension_in_preferred_direction(self):
        cls = ShapeClass("w40", 40)
        model = WireModel.symmetric(40, cls, line_end_extension=20)
        stick = StickFigure(1, 0, 0, 100, 0)
        shape = model.metal_shape(stick, Direction.HORIZONTAL)
        assert shape == Rect(-40, -20, 140, 20)
        vertical = model.metal_shape(stick, Direction.VERTICAL)
        assert vertical == Rect(-20, -40, 120, 40)

    def test_jog_exempt_from_line_end(self):
        cls = ShapeClass("jog", 40, line_end_exempt=True)
        model = WireModel.symmetric(40, cls, line_end_extension=20)
        stick = StickFigure(1, 0, 0, 0, 100)
        shape = model.metal_shape(stick, Direction.HORIZONTAL)
        assert shape == Rect(-20, -20, 20, 120)


class TestWireTypes:
    def test_example_wiretypes_cover_stack(self):
        stack = example_stack(6)
        types = example_wiretypes(stack)
        default = types["default"]
        for layer in stack:
            assert default.has_layer(layer.index)
        for via_layer in stack.via_layers():
            assert default.has_via_layer(via_layer)

    def test_wide_type_layer_restriction(self):
        stack = example_stack(6)
        wide = example_wiretypes(stack)["wide"]
        assert not wide.has_layer(1)
        assert wide.has_layer(3)
        assert not wide.has_via_layer(2)  # needs layers 2 and 3
        assert wide.has_via_layer(3)

    def test_via_shapes_structure(self):
        stack = example_stack(6)
        default = example_wiretypes(stack)["default"]
        model = default.via_model(1)
        shapes = model.shapes(100, 200, 1)
        kinds = [s[4] for s in shapes]
        assert ShapeKind.VIA_PAD in kinds
        assert ShapeKind.VIA_CUT in kinds
        # Cut projection present because via layer 2 exists.
        assert ShapeKind.VIA_CUT_PROJECTION in kinds
        for kind, layer, rect, cls, shape_kind in shapes:
            assert rect.contains_point(100, 200) or rect.intersects(
                Rect(100, 200, 100, 200)
            )

    def test_wire_shape_classifies_jogs(self):
        stack = example_stack(6)
        default = example_wiretypes(stack)["default"]
        pref_stick = StickFigure(1, 0, 0, 100, 0)  # M1 is horizontal
        _, _, kind = default.wire_shape(pref_stick, stack)
        assert kind is ShapeKind.WIRE
        jog_stick = StickFigure(1, 0, 0, 0, 100)
        _, _, kind = default.wire_shape(jog_stick, stack)
        assert kind is ShapeKind.JOG

    def test_point_stick_uses_preferred_model_with_extension(self):
        stack = example_stack(6)
        default = example_wiretypes(stack)["default"]
        point = StickFigure(1, 0, 0, 0, 0)
        shape, _, _ = default.wire_shape(point, stack)
        half = THIN_WIDTH // 2
        assert shape == Rect(
            -half - LINE_END_EXTRA, -half, half + LINE_END_EXTRA, half
        )
