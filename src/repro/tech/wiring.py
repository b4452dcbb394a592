"""Wire models, via models, wire types and stick figures (Sec. 3.2).

Wires and vias are stored as one-dimensional *stick figures*; a *wire
model* maps a stick figure to its metal shape (the Minkowski sum of the
stick figure and the model's rectangle) plus a *shape class* that
determines its minimum-distance requirements.  A *via model* consists of
three rectangles (bottom pad, cut, top pad) plus shape classes, and - when
an inter-layer via rule applies - the projection of its cut to the next
higher via layer.  A *wire type* maps every wiring layer to a pair of wire
models (preferred / non-preferred direction) and every via layer to a via
model.

Line-end policy (Sec. 3.1, Fig. 2): every shape except jog shapes is
extended by the line-end spacing in preferred direction (pessimistic);
jogs are never extended (optimistic).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from repro.geometry.rect import Rect
from repro.tech.layers import Direction, LayerStack


class ShapeKind(enum.Enum):
    WIRE = "wire"
    JOG = "jog"
    VIA_PAD = "via_pad"
    VIA_CUT = "via_cut"
    VIA_CUT_PROJECTION = "via_cut_projection"
    PIN = "pin"
    BLOCKAGE = "blockage"


class ShapeClass:
    """Distance-requirement class of a shape (Sec. 3.2).

    Carries the effective rule width used in spacing-table lookups and
    whether the shape is exempt from line-end extension (jogs are).
    """

    __slots__ = ("name", "rule_width", "line_end_exempt")

    def __init__(self, name: str, rule_width: int, line_end_exempt: bool = False):
        self.name = name
        self.rule_width = rule_width
        self.line_end_exempt = line_end_exempt

    def __repr__(self) -> str:
        return f"ShapeClass({self.name}, w={self.rule_width})"


class StickFigure:
    """One-dimensional wire abstraction: a point-to-point segment on a layer.

    ``(x0, y0)`` to ``(x1, y1)`` must be axis-parallel (possibly a point).
    """

    __slots__ = ("layer", "x0", "y0", "x1", "y1")

    def __init__(self, layer: int, x0: int, y0: int, x1: int, y1: int) -> None:
        if x0 != x1 and y0 != y1:
            raise ValueError("stick figure must be axis-parallel")
        self.layer = layer
        self.x0, self.y0 = min(x0, x1), min(y0, y1)
        self.x1, self.y1 = max(x0, x1), max(y0, y1)

    def __repr__(self) -> str:
        return f"StickFigure(M{self.layer}, ({self.x0},{self.y0})-({self.x1},{self.y1}))"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StickFigure)
            and (self.layer, self.x0, self.y0, self.x1, self.y1)
            == (other.layer, other.x0, other.y0, other.x1, other.y1)
        )

    def __hash__(self) -> int:
        return hash((self.layer, self.x0, self.y0, self.x1, self.y1))

    @property
    def is_point(self) -> bool:
        return self.x0 == self.x1 and self.y0 == self.y1

    @property
    def direction(self) -> Optional[Direction]:
        if self.is_point:
            return None
        return Direction.HORIZONTAL if self.y0 == self.y1 else Direction.VERTICAL

    @property
    def length(self) -> int:
        return (self.x1 - self.x0) + (self.y1 - self.y0)

    def as_rect(self) -> Rect:
        return Rect(self.x0, self.y0, self.x1, self.y1)


class WireModel:
    """Maps a stick figure to its metal shape on one layer.

    ``expansion`` is the rectangle whose Minkowski sum with the stick
    figure yields the metal; for a symmetric wire of width w it is
    ``Rect(-w//2, -w//2, w//2, w//2)``.  ``line_end_extension`` is the
    extra length added at both ends in preferred direction unless the
    shape class is line-end exempt.
    """

    __slots__ = ("expansion", "shape_class", "line_end_extension")

    def __init__(
        self, expansion: Rect, shape_class: ShapeClass, line_end_extension: int = 0
    ) -> None:
        self.expansion = expansion
        self.shape_class = shape_class
        self.line_end_extension = line_end_extension

    @staticmethod
    def symmetric(width: int, shape_class: ShapeClass, line_end_extension: int = 0):
        half = width // 2
        return WireModel(
            Rect(-half, -half, width - half, width - half),
            shape_class,
            line_end_extension,
        )

    def metal_shape(self, stick: StickFigure, preferred: Direction) -> Rect:
        """Metal rectangle of ``stick``, including line-end extension.

        The extension is applied in ``preferred`` direction only, and only
        when the shape class is not exempt (jog models are exempt, Fig. 2).
        """
        shape = stick.as_rect().minkowski_sum(self.expansion)
        ext = 0 if self.shape_class.line_end_exempt else self.line_end_extension
        if ext:
            if preferred is Direction.HORIZONTAL:
                shape = Rect(shape.x_lo - ext, shape.y_lo, shape.x_hi + ext, shape.y_hi)
            else:
                shape = Rect(shape.x_lo, shape.y_lo - ext, shape.x_hi, shape.y_hi + ext)
        return shape


class ViaModel:
    """Via between wiring layers l and l+1, anchored at a point.

    ``bottom`` / ``cut`` / ``top`` are rectangles relative to the anchor.
    When ``project_cut`` is set, the cut's projection onto the next higher
    via layer is part of the via's shapes, enabling inter-layer via rule
    checking within a single via layer (Sec. 3.2).
    """

    __slots__ = (
        "bottom",
        "cut",
        "top",
        "bottom_class",
        "cut_class",
        "top_class",
        "project_cut",
    )

    def __init__(
        self,
        bottom: Rect,
        cut: Rect,
        top: Rect,
        bottom_class: ShapeClass,
        cut_class: ShapeClass,
        top_class: ShapeClass,
        project_cut: bool = False,
    ) -> None:
        self.bottom = bottom
        self.cut = cut
        self.top = top
        self.bottom_class = bottom_class
        self.cut_class = cut_class
        self.top_class = top_class
        self.project_cut = project_cut

    def shapes(
        self, x: int, y: int, lower_layer: int
    ) -> List[Tuple[str, int, Rect, ShapeClass, ShapeKind]]:
        """Instantiate the via at (x, y) between lower_layer and +1.

        Returns (kind, index, rect, shape_class, shape_kind) tuples where
        ``kind`` is "wiring" or "via" and ``index`` the layer index.
        """
        out = [
            ("wiring", lower_layer, self.bottom.translated(x, y), self.bottom_class,
             ShapeKind.VIA_PAD),
            ("via", lower_layer, self.cut.translated(x, y), self.cut_class,
             ShapeKind.VIA_CUT),
            ("wiring", lower_layer + 1, self.top.translated(x, y), self.top_class,
             ShapeKind.VIA_PAD),
        ]
        if self.project_cut:
            out.append(
                ("via", lower_layer + 1, self.cut.translated(x, y), self.cut_class,
                 ShapeKind.VIA_CUT_PROJECTION)
            )
        return out


class WireType:
    """Maps wiring layers to (preferred, non-preferred) wire model pairs and
    via layers to via models (Sec. 3.2).

    The fast grid stores precomputed legality for a small set of frequently
    used wire types (Sec. 3.6); everything else goes through the distance
    rule checking module.
    """

    def __init__(
        self,
        name: str,
        wire_models: Dict[int, Tuple[WireModel, WireModel]],
        via_models: Dict[int, ViaModel],
        allowed_layers: Optional[List[int]] = None,
    ) -> None:
        self.name = name
        self._wire_models = dict(wire_models)
        self._via_models = dict(via_models)
        # Nets may be restricted to a subset of routing layers (Sec. 1.1).
        self.allowed_layers = (
            sorted(allowed_layers) if allowed_layers is not None else None
        )

    def __repr__(self) -> str:
        return f"WireType({self.name})"

    def preferred_model(self, layer: int) -> WireModel:
        return self._wire_models[layer][0]

    def nonpreferred_model(self, layer: int) -> WireModel:
        return self._wire_models[layer][1]

    def via_model(self, via_layer: int) -> ViaModel:
        return self._via_models[via_layer]

    def has_layer(self, layer: int) -> bool:
        if layer not in self._wire_models:
            return False
        return self.allowed_layers is None or layer in self.allowed_layers

    def has_via_layer(self, via_layer: int) -> bool:
        if via_layer not in self._via_models:
            return False
        if self.allowed_layers is None:
            return True
        return via_layer in self.allowed_layers and via_layer + 1 in self.allowed_layers

    def wire_shape(
        self, stick: StickFigure, stack: LayerStack
    ) -> Tuple[Rect, ShapeClass, ShapeKind]:
        """Metal shape of a wire stick figure under this wire type."""
        preferred = stack.direction(stick.layer)
        direction = stick.direction
        if direction is None or direction is preferred:
            model = self.preferred_model(stick.layer)
            kind = ShapeKind.WIRE
        else:
            model = self.nonpreferred_model(stick.layer)
            kind = ShapeKind.JOG
        return model.metal_shape(stick, preferred), model.shape_class, kind
