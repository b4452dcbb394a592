"""Fig. 2: stick figures and the line-end extension policy.

Paper: every individual shape except jogs is extended by the line-end
spacing in preferred direction (pessimistic); jogs get no extension
(optimistic).  Where a wire continues (into a via or jog), the extension
is contained in the neighbouring shape and consumes no extra space.

The bench rebuilds the figure's wiring pattern (two preferred-direction
wires joined by a jog, plus a via) and measures exactly that: extension
area that sticks out vs extension area swallowed by adjacent shapes.
"""

from benchmarks.common import print_table
from repro.geometry.polygon import rectilinear_area
from repro.tech.stacks import LINE_END_EXTRA, example_stack, example_wiretypes
from repro.tech.wiring import StickFigure


def _build():
    stack = example_stack(4)
    wire_type = example_wiretypes(stack)["default"]
    # Fig. 2 pattern on a horizontal layer: wire - jog - wire, plus a via
    # at the left end.
    sticks = [
        StickFigure(1, 0, 0, 600, 0),       # preferred-direction wire
        StickFigure(1, 600, 0, 600, 320),   # jog
        StickFigure(1, 600, 320, 1200, 320),  # preferred-direction wire
    ]
    shapes = []
    kinds = []
    for stick in sticks:
        shape, _cls, kind = wire_type.wire_shape(stick, stack)
        shapes.append(shape)
        kinds.append(kind.value)
    via_model = wire_type.via_model(1)
    via_shapes = [
        rect for kind, layer, rect, _c, _sk in via_model.shapes(0, 0, 1)
        if kind == "wiring" and layer == 1
    ]
    return stack, wire_type, sticks, shapes, kinds, via_shapes


def test_fig2_lineend_extensions(benchmark):
    stack, wire_type, sticks, shapes, kinds, via_shapes = benchmark(_build)
    rows = []
    for stick, shape, kind in zip(sticks, shapes, kinds):
        extended = (
            kind == "wire"
            and (shape.width - stick.as_rect().width) > wire_type.preferred_model(1).expansion.width
        )
        rows.append([str(stick), kind, str(shape), "yes" if extended else "no"])
    print_table(
        "Fig. 2: metal shapes from stick figures",
        ["stick figure", "kind", "metal shape", "line-end extended"],
        rows,
    )
    # Preferred-direction wires are extended by LINE_END_EXTRA per side.
    wire_shape = shapes[0]
    assert wire_shape.x_lo == -20 - LINE_END_EXTRA
    assert wire_shape.x_hi == 620 + LINE_END_EXTRA
    # Jogs are exempt: no extension in any direction.
    jog_shape = shapes[1]
    assert jog_shape.y_lo == -20 and jog_shape.y_hi == 340
    assert jog_shape.x_lo == 580 and jog_shape.x_hi == 620
    # The wire's right extension is swallowed by the jog shape (Fig. 2's
    # "extensions are contained in other shapes anyway"):
    union_area = rectilinear_area(shapes)
    area_without_extension_overlap = sum(s.area for s in shapes)
    assert union_area < area_without_extension_overlap
    # The left extension overlaps the via pad, consuming no extra space.
    via_union = rectilinear_area(via_shapes + [shapes[0]])
    assert via_union < via_shapes[0].area + shapes[0].area
    benchmark.extra_info["union_area"] = union_area
