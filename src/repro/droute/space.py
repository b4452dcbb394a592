"""The routing space: all routing-space data structures behind one facade.

Bundles the shape grid (ground truth), the distance rule checking module,
the optimized track plan with its track graph, and the fast grid cache.
Loads the chip's fixed geometry (blockages, circuit obstructions, pin
shapes) on construction and offers transactional insertion / removal of
wires and vias with consistent fast-grid invalidation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.chip.design import Chip
from repro.obs import OBS
from repro.droute.route import NetRoute, ViaInstance
from repro.geometry.rect import Rect
from repro.grid.drc_query import DistanceRuleChecker, PlacementCheck
from repro.grid.fastgrid import FastGrid, IntervalCache
from repro.grid.shapegrid import RIPUP_FIXED, RipupLevel, ShapeGrid
from repro.grid.trackgraph import TrackGraph
from repro.grid.tracks import TrackPlan, build_track_plan
from repro.tech.wiring import ShapeKind, StickFigure, WireType


def effective_wire_type(chip: Chip, type_name: str, layer: int) -> Optional[str]:
    """Wire type actually usable on ``layer`` for a net of ``type_name``.

    Layer-restricted nets escape their pins with the standard type on
    layers their own type excludes (Sec. 1.1).
    """
    wire_type = chip.wire_types[type_name]
    if wire_type.has_layer(layer):
        return type_name
    default = chip.wire_types.get("default")
    if default is not None and default.has_layer(layer):
        return "default"
    return None


def effective_via_type(chip: Chip, type_name: str, via_layer: int) -> Optional[str]:
    wire_type = chip.wire_types[type_name]
    if wire_type.has_via_layer(via_layer):
        return type_name
    default = chip.wire_types.get("default")
    if default is not None and default.has_via_layer(via_layer):
        return "default"
    return None


class RoutingSpace:
    """Mutable routing space of one chip."""

    def __init__(
        self,
        chip: Chip,
        track_plan: Optional[TrackPlan] = None,
        fast_grid_enabled: bool = True,
    ) -> None:
        self.chip = chip
        self.shape_grid = ShapeGrid(chip.die, chip.stack)
        self.checker = DistanceRuleChecker(self.shape_grid, chip.stack, chip.rules)
        self.track_plan = track_plan if track_plan is not None else build_track_plan(chip)
        self.graph = TrackGraph(chip.stack, self.track_plan)
        self.fast_grid = FastGrid(
            self.graph,
            self.checker,
            list(chip.wire_types.values()),
            enabled=fast_grid_enabled,
        )
        #: Cross-search cache of track interval decompositions, shared by
        #: every GraphView over this space; epoch-validated, so mutations
        #: need no explicit eviction.
        self.interval_cache = IntervalCache()
        #: Routed wiring per net name.
        self.routes: Dict[str, NetRoute] = {}
        self._load_fixed_geometry()

    # ------------------------------------------------------------------
    # Fixed geometry
    # ------------------------------------------------------------------
    def _load_fixed_geometry(self) -> None:
        """Register blockages and pin shapes lazily: a row folds them into
        its interval tree only when something first touches it, so
        untouched die area costs no interval memory."""
        registered = 0
        for layer, rect, _owner in self.chip.obstruction_shapes():
            if not self.chip.stack.has_layer(layer):
                continue
            self.shape_grid.add_fixed_shape(
                "wiring", layer, rect, None, "blockage", ShapeKind.BLOCKAGE,
                RIPUP_FIXED, min(rect.width, rect.height),
            )
            registered += 1
        for net in self.chip.nets:
            for pin in net.pins:
                for layer, rect in pin.shapes:
                    if not self.chip.stack.has_layer(layer):
                        continue
                    self.shape_grid.add_fixed_shape(
                        "wiring", layer, rect, net.name, "pin", ShapeKind.PIN,
                        RIPUP_FIXED, min(rect.width, rect.height),
                    )
                    registered += 1
        if OBS.enabled:
            OBS.gauge("space.fixed_shapes_registered", registered)

    # ------------------------------------------------------------------
    # Wire / via shape expansion
    # ------------------------------------------------------------------
    def _wire_shapes(
        self, wire_type: WireType, stick: StickFigure
    ) -> List[Tuple[str, int, Rect, str, ShapeKind, int]]:
        shape, cls, kind = wire_type.wire_shape(stick, self.chip.stack)
        return [("wiring", stick.layer, shape, cls.name, kind, cls.rule_width)]

    def _via_shapes(
        self, wire_type: WireType, via: ViaInstance
    ) -> List[Tuple[str, int, Rect, str, ShapeKind, int]]:
        model = wire_type.via_model(via.via_layer)
        out = []
        for kind, layer, rect, cls, shape_kind in model.shapes(
            via.x, via.y, via.via_layer
        ):
            out.append((kind, layer, rect, cls.name, shape_kind, cls.rule_width))
        return out

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add_wire(
        self,
        net_name: str,
        wire_type_name: str,
        stick: StickFigure,
        ripup_level: int = int(RipupLevel.NORMAL),
        off_track: bool = False,
    ) -> None:
        wire_type = self.chip.wire_type(wire_type_name)
        for kind, layer, rect, cls_name, shape_kind, width in self._wire_shapes(
            wire_type, stick
        ):
            self.shape_grid.add_shape(
                kind, layer, rect, net_name, cls_name, shape_kind, ripup_level, width
            )
            self.fast_grid.invalidate_region(layer, rect, off_track=off_track)
        route = self.routes.setdefault(net_name, NetRoute(net_name, wire_type_name))
        route.add_wire(stick, ripup_level, wire_type_name)

    def add_via(
        self,
        net_name: str,
        wire_type_name: str,
        via: ViaInstance,
        ripup_level: int = int(RipupLevel.NORMAL),
        off_track: bool = False,
    ) -> None:
        wire_type = self.chip.wire_type(wire_type_name)
        for kind, layer, rect, cls_name, shape_kind, width in self._via_shapes(
            wire_type, via
        ):
            self.shape_grid.add_shape(
                kind, layer, rect, net_name, cls_name, shape_kind, ripup_level, width
            )
            if kind == "wiring":
                self.fast_grid.invalidate_region(layer, rect, off_track=off_track)
        route = self.routes.setdefault(net_name, NetRoute(net_name, wire_type_name))
        route.add_via(via, ripup_level, wire_type_name)

    def _erase_wire_shapes(
        self, net_name: str, wire_type_name: str, stick: StickFigure, level: int
    ) -> None:
        wire_type = self.chip.wire_type(wire_type_name)
        for kind, layer, rect, cls_name, shape_kind, width in self._wire_shapes(
            wire_type, stick
        ):
            self.shape_grid.remove_shape(
                kind, layer, rect, net_name, cls_name, shape_kind, level, width
            )
            self.fast_grid.invalidate_region(layer, rect)

    def _erase_via_shapes(
        self, net_name: str, wire_type_name: str, via: ViaInstance, level: int
    ) -> None:
        wire_type = self.chip.wire_type(wire_type_name)
        for kind, layer, rect, cls_name, shape_kind, width in self._via_shapes(
            wire_type, via
        ):
            self.shape_grid.remove_shape(
                kind, layer, rect, net_name, cls_name, shape_kind, level, width
            )
            if kind == "wiring":
                self.fast_grid.invalidate_region(layer, rect)

    def remove_wire(self, net_name: str, stick: StickFigure) -> None:
        route = self.routes[net_name]
        level, type_name = route.remove_wire(stick)
        self._erase_wire_shapes(net_name, type_name, stick, level)

    def remove_via(self, net_name: str, via: ViaInstance) -> None:
        route = self.routes[net_name]
        level, type_name = route.remove_via(via)
        self._erase_via_shapes(net_name, type_name, via, level)

    def remove_net_route(self, net_name: str) -> NetRoute:
        """Rip out everything routed for ``net_name``; returns the old route."""
        route = self.routes.get(net_name)
        removed = NetRoute(net_name, route.wire_type if route else "default")
        if route is None:
            return removed
        removed.extend(route)
        for stick in list(route.wires):
            self.remove_wire(net_name, stick)
        for via in list(route.vias):
            self.remove_via(net_name, via)
        return removed

    # ------------------------------------------------------------------
    # Net suspension (temporary removal of a net's shapes, Sec. 4.4)
    # ------------------------------------------------------------------
    def suspend_net(self, net_name: str) -> Tuple:
        """Temporarily remove the net's pin and route shapes from the grid.

        The route record is kept; :meth:`restore_net` reinserts all
        shapes.  Used by the path search so a net's own geometry never
        blocks access to its connection vertices.
        """
        pin_shapes = self.remove_pin_shapes_temporarily(net_name)
        route = self.routes.get(net_name)
        suspended_wires: List[Tuple[StickFigure, int, str]] = []
        suspended_vias: List[Tuple[ViaInstance, int, str]] = []
        if route is not None:
            for stick, level, type_name in route.wire_items():
                self._erase_wire_shapes(net_name, type_name, stick, level)
                suspended_wires.append((stick, level, type_name))
            for via, level, type_name in route.via_items():
                self._erase_via_shapes(net_name, type_name, via, level)
                suspended_vias.append((via, level, type_name))
        return (net_name, pin_shapes, suspended_wires, suspended_vias)

    def restore_net(self, token: Tuple) -> None:
        net_name, pin_shapes, suspended_wires, suspended_vias = token
        self.reinsert_pin_shapes(net_name, pin_shapes)
        for stick, level, type_name in suspended_wires:
            wire_type = self.chip.wire_type(type_name)
            for kind, layer, rect, cls_name, shape_kind, width in self._wire_shapes(
                wire_type, stick
            ):
                self.shape_grid.add_shape(
                    kind, layer, rect, net_name, cls_name, shape_kind, level, width
                )
                self.fast_grid.invalidate_region(layer, rect, off_track=True)
        for via, level, type_name in suspended_vias:
            wire_type = self.chip.wire_type(type_name)
            for kind, layer, rect, cls_name, shape_kind, width in self._via_shapes(
                wire_type, via
            ):
                self.shape_grid.add_shape(
                    kind, layer, rect, net_name, cls_name, shape_kind, level, width
                )
                if kind == "wiring":
                    self.fast_grid.invalidate_region(layer, rect, off_track=True)

    # ------------------------------------------------------------------
    # Temporary removal of component shapes (Sec. 4.4)
    # ------------------------------------------------------------------
    def remove_pin_shapes_temporarily(self, net_name: str) -> List[Tuple[int, Rect]]:
        """Remove the net's pin shapes from the grid; returns them for
        reinsertion (the S/T construction of Sec. 4.4 removes component
        shapes so they do not block access to their own vertices)."""
        removed: List[Tuple[int, Rect]] = []
        net = self.chip.net(net_name)
        for pin in net.pins:
            for layer, rect in pin.shapes:
                if not self.chip.stack.has_layer(layer):
                    continue
                self.shape_grid.remove_shape(
                    "wiring", layer, rect, net_name, "pin", ShapeKind.PIN,
                    RIPUP_FIXED, min(rect.width, rect.height),
                )
                self.fast_grid.invalidate_region(layer, rect)
                removed.append((layer, rect))
        return removed

    def reinsert_pin_shapes(self, net_name: str, shapes: Iterable[Tuple[int, Rect]]):
        for layer, rect in shapes:
            self.shape_grid.add_shape(
                "wiring", layer, rect, net_name, "pin", ShapeKind.PIN,
                RIPUP_FIXED, min(rect.width, rect.height),
            )
            self.fast_grid.invalidate_region(layer, rect)

    # ------------------------------------------------------------------
    # ECO geometry edits (repro.engine)
    # ------------------------------------------------------------------
    def replace_blockage_shape(self, layer: int, old: Rect, new: Rect) -> None:
        """Swap a fixed blockage rectangle in place.

        Both regions are invalidated with ``off_track=True``: routed
        wiring near the old extent may sit off-grid relative to the new
        legality words, so the fast grid must fall back to exact
        shape-grid checks there until the region is re-verified.
        """
        if not self.chip.stack.has_layer(layer):
            return
        self.shape_grid.remove_shape(
            "wiring", layer, old, None, "blockage", ShapeKind.BLOCKAGE,
            RIPUP_FIXED, min(old.width, old.height),
        )
        self.shape_grid.add_shape(
            "wiring", layer, new, None, "blockage", ShapeKind.BLOCKAGE,
            RIPUP_FIXED, min(new.width, new.height),
        )
        self.fast_grid.invalidate_region(layer, old, off_track=True)
        self.fast_grid.invalidate_region(layer, new, off_track=True)

    def conflicting_nets(self, layer: int, rect: Rect) -> Set[str]:
        """Nets with removable wiring within interaction distance of
        ``rect`` on ``layer`` and its via-coupled neighbours.

        Pin shapes and blockages are fixed (never removable) and are
        skipped; the result is exactly the set an ECO edit at ``rect``
        may force to re-route.
        """
        out: Set[str] = set()
        stack = self.chip.stack
        for z in (layer - 1, layer, layer + 1):
            if not stack.has_layer(z):
                continue
            window = rect.expanded(self.chip.rules.max_interaction_distance(z))
            for entry in self.shape_grid.query("wiring", z, window):
                if entry.net and entry.removable:
                    out.add(entry.net)
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def check_wire(
        self, wire_type_name: str, stick: StickFigure, net_name: Optional[str]
    ) -> PlacementCheck:
        wire_type = self.chip.wire_type(wire_type_name)
        return self.checker.check_wire(wire_type, stick, net_name)

    def check_via(
        self, wire_type_name: str, via: ViaInstance, net_name: Optional[str]
    ) -> PlacementCheck:
        wire_type = self.chip.wire_type(wire_type_name)
        return self.checker.check_via(wire_type, via.via_layer, via.x, via.y, net_name)

    def total_wire_length(self) -> int:
        return sum(route.wire_length for route in self.routes.values())

    def total_via_count(self) -> int:
        return sum(route.via_count for route in self.routes.values())
