"""Example technology: a small 22 nm-flavoured stack.

The paper routes IBM 22 nm and 32 nm designs whose rule decks are
proprietary.  This module provides a self-contained stand-in with the same
*structure*: alternating preferred directions, thin lower / thick upper
layers, width- and run-length-dependent spacing, line-end rules, inter-layer
via rules, and same-net (min segment / min area / short edge) rules.  All
coordinates are database units (1 dbu ~ 1 nm).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.geometry.rect import Rect
from repro.tech.layers import Direction, Layer, LayerStack
from repro.tech.rules import RuleSet, SameNetRules, SpacingRule, ViaRule
from repro.tech.wiring import ShapeClass, ViaModel, WireModel, WireType

#: Minimum wire width / spacing of the thin (lower) layers, in dbu.
THIN_WIDTH = 40
THIN_SPACING = 40
THIN_PITCH = THIN_WIDTH + THIN_SPACING  # 80

#: The thick (upper) layers double everything.
THICK_WIDTH = 80
THICK_SPACING = 80
THICK_PITCH = THICK_WIDTH + THICK_SPACING  # 160

#: First thick layer index in :func:`example_stack`.
FIRST_THICK_LAYER = 5

LINE_END_THRESHOLD = 60
LINE_END_EXTRA = 20


def example_stack(num_layers: int = 6) -> LayerStack:
    """Alternating-direction stack; odd layers horizontal, thin below
    ``FIRST_THICK_LAYER`` and thick from it upward."""
    if num_layers < 2:
        raise ValueError("need at least two wiring layers")
    layers = []
    for index in range(1, num_layers + 1):
        direction = Direction.HORIZONTAL if index % 2 == 1 else Direction.VERTICAL
        if index < FIRST_THICK_LAYER:
            layers.append(Layer(index, direction, THIN_PITCH, THIN_WIDTH, THIN_SPACING))
        else:
            layers.append(
                Layer(index, direction, THICK_PITCH, THICK_WIDTH, THICK_SPACING)
            )
    return LayerStack(layers)


def example_rules(num_layers: int = 6) -> RuleSet:
    """Rule deck matching :func:`example_stack`."""
    spacing: Dict[int, SpacingRule] = {}
    same_net: Dict[int, SameNetRules] = {}
    via_rules: Dict[int, ViaRule] = {}
    for index in range(1, num_layers + 1):
        thin = index < FIRST_THICK_LAYER
        base = THIN_SPACING if thin else THICK_SPACING
        width = THIN_WIDTH if thin else THICK_WIDTH
        spacing[index] = SpacingRule(
            base_spacing=base,
            table=[
                # Wide shapes need more distance ...
                (2 * width, 0, base + width // 2),
                # ... and long parallel runs of wide shapes even more.
                (2 * width, 10 * width, 2 * base),
            ],
            line_end_threshold=LINE_END_THRESHOLD if thin else 0,
            line_end_extra=LINE_END_EXTRA if thin else 0,
        )
        same_net[index] = SameNetRules(
            min_segment_length=2 * width,
            min_area=3 * width * width,
            min_edge_length=width,
            notch_spacing=base,
        )
    for via_layer in range(1, num_layers):
        via_rules[via_layer] = ViaRule(
            cut_spacing=THIN_SPACING if via_layer < FIRST_THICK_LAYER else THICK_SPACING,
            adjacent_layer_spacing=THIN_SPACING // 2,
        )
    return RuleSet(spacing, same_net, via_rules)


def _wire_pair(width: int, line_end_extension: int) -> Tuple[WireModel, WireModel]:
    pref_class = ShapeClass(f"wire_w{width}", width)
    jog_class = ShapeClass(f"jog_w{width}", width, line_end_exempt=True)
    return (
        WireModel.symmetric(width, pref_class, line_end_extension),
        WireModel.symmetric(width, jog_class, 0),
    )


def _via_model(
    cut_size: int, pad_extension: int, lower_dir: Direction, project_cut: bool
) -> ViaModel:
    half = cut_size // 2
    cut = Rect(-half, -half, cut_size - half, cut_size - half)
    # Pads extend beyond the cut in the preferred direction of their layer
    # (Sec. 2.5: "via pads extending to neighboring routing tracks").
    if lower_dir is Direction.HORIZONTAL:
        bottom = Rect(cut.x_lo - pad_extension, cut.y_lo, cut.x_hi + pad_extension, cut.y_hi)
        top = Rect(cut.x_lo, cut.y_lo - pad_extension, cut.x_hi, cut.y_hi + pad_extension)
    else:
        bottom = Rect(cut.x_lo, cut.y_lo - pad_extension, cut.x_hi, cut.y_hi + pad_extension)
        top = Rect(cut.x_lo - pad_extension, cut.y_lo, cut.x_hi + pad_extension, cut.y_hi)
    pad_class = ShapeClass(f"viapad_{cut_size}", cut_size, line_end_exempt=True)
    cut_class = ShapeClass(f"viacut_{cut_size}", cut_size, line_end_exempt=True)
    return ViaModel(bottom, cut, top, pad_class, cut_class, pad_class, project_cut)


def example_wiretypes(
    stack: LayerStack, include_wide: bool = True
) -> Dict[str, WireType]:
    """Wire types for the example stack.

    ``default``: minimum width everywhere - the standard wire of Sec. 3.5.
    ``wide``: double width, restricted to layers >= 3 (timing-critical nets
    with non-standard widths and layer restrictions, Sec. 1.1).
    """
    wire_models: Dict[int, Tuple[WireModel, WireModel]] = {}
    via_models: Dict[int, ViaModel] = {}
    wide_wire_models: Dict[int, Tuple[WireModel, WireModel]] = {}
    wide_via_models: Dict[int, ViaModel] = {}
    for layer in stack:
        thin = layer.index < FIRST_THICK_LAYER
        ext = LINE_END_EXTRA if thin else 0
        wire_models[layer.index] = _wire_pair(layer.min_width, ext)
        wide_wire_models[layer.index] = _wire_pair(2 * layer.min_width, ext)
    for via_layer in stack.via_layers():
        lower_dir = stack.direction(via_layer)
        thin = via_layer < FIRST_THICK_LAYER
        cut = THIN_WIDTH if thin else THICK_WIDTH
        project = via_layer + 1 in stack.via_layers()
        via_models[via_layer] = _via_model(cut, cut // 2, lower_dir, project)
        wide_via_models[via_layer] = _via_model(
            2 * cut if not thin else cut, cut, lower_dir, project
        )
    types = {"default": WireType("default", wire_models, via_models)}
    if include_wide:
        wide_layers = [i for i in stack.indices if i >= 3]
        types["wide"] = WireType(
            "wide", wide_wire_models, wide_via_models, allowed_layers=wide_layers
        )
    return types
