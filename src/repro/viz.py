"""ASCII visualization of routed layers.

Renders one wiring layer of a routed chip as a character grid - enough to
eyeball routes, congestion and pin access in a terminal or a test log
without plotting dependencies.

Legend: ``.`` empty, ``#`` blockage, ``P`` pin, lowercase letters cycle
through nets' wires, ``+`` via landing, ``*`` overlap of several nets
(a diff-net short - should not appear in clean results).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.droute.space import RoutingSpace
from repro.geometry.rect import Rect

_NET_GLYPHS = "abcdefghijklmnopqrstuvwxyz0123456789"


def render_layer(
    space: RoutingSpace,
    layer: int,
    width: int = 100,
    window: Optional[Rect] = None,
) -> str:
    """ASCII rendering of one wiring layer.

    ``width``: number of character columns; the scale follows from the
    window (default: the whole die).  The vertical scale matches the
    horizontal one, so the aspect ratio is roughly preserved in a
    terminal with ~2:1 character cells.
    """
    chip = space.chip
    wiring_layers = chip.stack.indices
    if layer not in wiring_layers:
        raise ValueError(
            f"layer M{layer} is not a wiring layer of {chip.name}; "
            f"valid layers: M{wiring_layers[0]}..M{wiring_layers[-1]}"
        )
    if window is None:
        window = chip.die
    scale = max(1, window.width // max(width, 1))
    cols = max(1, window.width // scale + 1)
    rows = max(1, window.height // (2 * scale) + 1)
    v_scale = 2 * scale
    canvas = [["."] * cols for _ in range(rows)]

    def paint(rect: Rect, glyph: str, overlap=None) -> None:
        rows_ = len(canvas)
        cols_ = len(canvas[0])
        col_lo = max(0, (rect.x_lo - window.x_lo) // scale)
        col_hi = min(cols_ - 1, (rect.x_hi - window.x_lo) // scale)
        row_lo = max(0, (rect.y_lo - window.y_lo) // v_scale)
        row_hi = min(rows_ - 1, (rect.y_hi - window.y_lo) // v_scale)
        for row in range(row_lo, row_hi + 1):
            for col in range(col_lo, col_hi + 1):
                current = canvas[row][col]
                if (
                    overlap is not None
                    and current in _NET_GLYPHS
                    and glyph in _NET_GLYPHS
                    and current != glyph
                ):
                    canvas[row][col] = overlap
                else:
                    canvas[row][col] = glyph

    for obs_layer, rect, _owner in chip.obstruction_shapes():
        if obs_layer == layer:
            paint(rect, "#")
    glyph_of: Dict[str, str] = {}
    for index, net in enumerate(chip.nets):
        glyph_of[net.name] = _NET_GLYPHS[index % len(_NET_GLYPHS)]
    for net in chip.nets:
        for pin_layer, rect in (
            (pl, r) for pin in net.pins for pl, r in pin.shapes
        ):
            if pin_layer == layer:
                paint(rect, "P")
    for net_name, route in space.routes.items():
        glyph = glyph_of.get(net_name, "?")
        for stick, _level, type_name in route.wire_items():
            if stick.layer != layer:
                continue
            wire_type = chip.wire_type(type_name)
            shape, _cls, _kind = wire_type.wire_shape(stick, chip.stack)
            paint(shape, glyph, overlap="*")
        for via, _level, _tn in route.via_items():
            if layer in (via.via_layer, via.via_layer + 1):
                paint(Rect(via.x, via.y, via.x, via.y), "+")
    # Flip vertically: row 0 should be the top of the die.
    lines = ["".join(row) for row in reversed(canvas)]
    header = f"layer M{layer}  window={window.as_tuple()}  1 char = {scale} dbu"
    return "\n".join([header] + lines)


def render_summary(space: RoutingSpace, width: int = 80) -> str:
    """All wiring layers stacked into one report string."""
    parts = []
    for layer in space.chip.stack.indices:
        parts.append(render_layer(space, layer, width=width))
        parts.append("")
    return "\n".join(parts)
