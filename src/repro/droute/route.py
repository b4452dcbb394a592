"""Routed-net containers.

A net's detailed route is a set of wire stick figures and via instances
under one wire type (Sec. 3.2: everything representable by stick figures
plus a wire type).  The containers also provide the metrics reported in
the paper's tables: wire length and via count.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.geometry.rect import Rect
from repro.tech.wiring import StickFigure


class ViaInstance:
    """A via of the route: anchored at (x, y) on ``via_layer``."""

    __slots__ = ("via_layer", "x", "y")

    def __init__(self, via_layer: int, x: int, y: int) -> None:
        self.via_layer = via_layer
        self.x = x
        self.y = y

    def __repr__(self) -> str:
        return f"ViaInstance(V{self.via_layer}, {self.x}, {self.y})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ViaInstance)
            and (self.via_layer, self.x, self.y)
            == (other.via_layer, other.x, other.y)
        )

    def __hash__(self) -> int:
        return hash((self.via_layer, self.x, self.y))


class NetRoute:
    """All wiring placed for one net."""

    def __init__(self, net_name: str, wire_type: str = "default") -> None:
        self.net_name = net_name
        #: The net's nominal wire type (reporting / long-haul wiring).
        self.wire_type = wire_type
        self.wires: List[StickFigure] = []
        self.vias: List[ViaInstance] = []
        #: Ripup level each wire / via was inserted with; parallel lists.
        #: The shape grid stores the level inside the shape metadata, so
        #: removal must repeat the exact level of insertion.
        self.wire_levels: List[int] = []
        self.via_levels: List[int] = []
        #: Wire type each item was inserted with.  Layer-restricted nets
        #: (Sec. 1.1) escape their pins with the standard type on the
        #: lower layers and switch to their own type above, so a route
        #: can mix wire types.
        self.wire_types: List[str] = []
        self.via_types: List[str] = []

    def __repr__(self) -> str:
        return (
            f"NetRoute({self.net_name}, {len(self.wires)} wires, "
            f"{len(self.vias)} vias)"
        )

    @property
    def wire_length(self) -> int:
        return sum(w.length for w in self.wires)

    @property
    def via_count(self) -> int:
        return len(self.vias)

    def is_empty(self) -> bool:
        return not self.wires and not self.vias

    def add_wire(
        self, stick: StickFigure, level: int = 3, wire_type: Optional[str] = None
    ) -> None:
        self.wires.append(stick)
        self.wire_levels.append(level)
        self.wire_types.append(wire_type if wire_type is not None else self.wire_type)

    def add_via(
        self, via: ViaInstance, level: int = 3, wire_type: Optional[str] = None
    ) -> None:
        self.vias.append(via)
        self.via_levels.append(level)
        self.via_types.append(wire_type if wire_type is not None else self.wire_type)

    def wire_items(self) -> List[Tuple[StickFigure, int, str]]:
        """(stick, ripup_level, wire_type_name) triples."""
        return list(zip(self.wires, self.wire_levels, self.wire_types))

    def via_items(self) -> List[Tuple[ViaInstance, int, str]]:
        return list(zip(self.vias, self.via_levels, self.via_types))

    def remove_wire(self, stick: StickFigure) -> Tuple[int, str]:
        """Remove a wire; returns its (ripup_level, wire_type_name)."""
        index = self.wires.index(stick)
        self.wires.pop(index)
        type_name = self.wire_types.pop(index)
        return self.wire_levels.pop(index), type_name

    def remove_via(self, via: ViaInstance) -> Tuple[int, str]:
        index = self.vias.index(via)
        self.vias.pop(index)
        type_name = self.via_types.pop(index)
        return self.via_levels.pop(index), type_name

    def extend(self, other: "NetRoute") -> None:
        self.wires.extend(other.wires)
        self.wire_levels.extend(other.wire_levels)
        self.wire_types.extend(other.wire_types)
        self.vias.extend(other.vias)
        self.via_levels.extend(other.via_levels)
        self.via_types.extend(other.via_types)

    def bounding_box(self) -> Optional[Rect]:
        rects = [w.as_rect() for w in self.wires]
        rects += [Rect(v.x, v.y, v.x, v.y) for v in self.vias]
        if not rects:
            return None
        return Rect.bounding(rects)
