"""Cell library and placed circuit instances.

Millions of placed circuits come from only a few thousand library
prototypes (Sec. 4.3).  This module provides the library templates and
placed instances with orientations; templates are interned, so instances
share their prototype objects.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Sequence, Tuple

from repro.geometry.rect import Rect


class Orientation(enum.Enum):
    """Placement orientations (subset of LEF/DEF: N, FN = mirrored about y)."""

    N = "N"
    FN = "FN"


def _orient_rect(rect: Rect, orientation: Orientation, cell_width: int) -> Rect:
    if orientation is Orientation.N:
        return rect
    # FN: mirror about the cell's vertical centre axis.
    return Rect(cell_width - rect.x_hi, rect.y_lo, cell_width - rect.x_lo, rect.y_hi)


class CellTemplate:
    """A library prototype: footprint, pin shapes and obstructions.

    Pin shapes and obstructions are relative to the cell origin (lower-left
    corner).  ``pins`` maps pin name -> list of (layer, Rect);
    ``obstructions`` is a list of (layer, Rect) blockages internal to the
    cell (device metal the router must avoid).
    """

    def __init__(
        self,
        name: str,
        width: int,
        height: int,
        pins: Dict[str, Sequence[Tuple[int, Rect]]],
        obstructions: Sequence[Tuple[int, Rect]] = (),
    ) -> None:
        self.name = name
        self.width = width
        self.height = height
        self.pins = {pin: list(shapes) for pin, shapes in pins.items()}
        self.obstructions = list(obstructions)

    def __repr__(self) -> str:
        return f"CellTemplate({self.name}, {self.width}x{self.height})"


class CircuitInstance:
    """A placed occurrence of a template."""

    __slots__ = ("instance_id", "template", "x", "y", "orientation")

    def __init__(
        self,
        instance_id: int,
        template: CellTemplate,
        x: int,
        y: int,
        orientation: Orientation = Orientation.N,
    ) -> None:
        self.instance_id = instance_id
        self.template = template
        self.x = x
        self.y = y
        self.orientation = orientation

    def __repr__(self) -> str:
        return (
            f"CircuitInstance({self.instance_id}, {self.template.name}, "
            f"({self.x},{self.y}), {self.orientation.value})"
        )

    def bounding_box(self) -> Rect:
        return Rect(self.x, self.y, self.x + self.template.width, self.y + self.template.height)

    def pin_shapes(self, pin_name: str) -> List[Tuple[int, Rect]]:
        shapes = []
        for layer, rect in self.template.pins[pin_name]:
            oriented = _orient_rect(rect, self.orientation, self.template.width)
            shapes.append((layer, oriented.translated(self.x, self.y)))
        return shapes

    def obstruction_shapes(self) -> List[Tuple[int, Rect]]:
        shapes = []
        for layer, rect in self.template.obstructions:
            oriented = _orient_rect(rect, self.orientation, self.template.width)
            shapes.append((layer, oriented.translated(self.x, self.y)))
        return shapes


#: Interned library templates keyed on the full parameter tuple.  A
#: 10^5-net chip references millions of pin/obstruction rectangles but
#: only these few prototypes; sharing the template objects keeps every
#: generated region (and every shard reload) pointing at one copy.
_LIBRARY_CACHE: Dict[Tuple[int, int, int, int], Tuple[CellTemplate, ...]] = {}


def example_cell_library(
    pin_layer: int = 1,
    pin_size: int = 40,
    row_height: int = 960,
    pitch: int = 80,
) -> List[CellTemplate]:
    """A small standard-cell library with deliberately awkward pins.

    Pins are small squares placed off the track grid (the motivation for
    off-track pin access, Sec. 4.3) and partially shadowed by internal
    obstructions, as in Fig. 7.  Templates are interned per parameter
    tuple: repeated calls return the same (immutable by convention)
    ``CellTemplate`` objects in a fresh list.
    """
    key = (pin_layer, pin_size, row_height, pitch)
    cached = _LIBRARY_CACHE.get(key)
    if cached is not None:
        return list(cached)
    half = pin_size // 2

    def square(x: int, y: int) -> List[Tuple[int, Rect]]:
        return [(pin_layer, Rect(x, y, x + pin_size, y + pin_size))]

    library = []
    # INV: 2 pins, slightly off-grid in y.
    library.append(
        CellTemplate(
            "INV",
            width=4 * pitch,
            height=row_height,
            pins={
                "A": square(pitch - half, row_height // 2 + 10),
                "Z": square(3 * pitch - half, row_height // 2 - 50),
            },
            obstructions=[(pin_layer, Rect(0, 0, 4 * pitch, pin_size))],
        )
    )
    # NAND2: 3 pins with a blockage bar between them (Fig. 7 flavour).
    library.append(
        CellTemplate(
            "NAND2",
            width=6 * pitch,
            height=row_height,
            pins={
                "A": square(pitch - half, row_height // 2 + 30),
                "B": square(3 * pitch - half, row_height // 2 - 70),
                "Z": square(5 * pitch - half, row_height // 2 + 30),
            },
            obstructions=[
                (pin_layer, Rect(0, 0, 6 * pitch, pin_size)),
                (pin_layer, Rect(2 * pitch, row_height // 2 + 150, 4 * pitch, row_height // 2 + 150 + pin_size)),
            ],
        )
    )
    # DFF: a wide cell with 4 pins, two of them stacked close together.
    library.append(
        CellTemplate(
            "DFF",
            width=10 * pitch,
            height=row_height,
            pins={
                "D": square(pitch - half, row_height // 2),
                "CK": square(3 * pitch - half, row_height // 2 - 110),
                "Q": square(7 * pitch - half, row_height // 2 + 50),
                "QN": square(9 * pitch - half, row_height // 2 - 30),
            },
            obstructions=[
                (pin_layer, Rect(0, 0, 10 * pitch, pin_size)),
                (pin_layer, Rect(4 * pitch, row_height // 2 - 200, 6 * pitch, row_height // 2 + 200)),
            ],
        )
    )
    # BUF: 2 pins, clean (fast to access).
    library.append(
        CellTemplate(
            "BUF",
            width=4 * pitch,
            height=row_height,
            pins={
                "A": square(pitch - half, row_height // 2 - 20),
                "Z": square(3 * pitch - half, row_height // 2 + 20),
            },
        )
    )
    _LIBRARY_CACHE[key] = tuple(library)
    return library
