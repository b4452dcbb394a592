"""DRC checker (Sec. 5.2 / 5.3 error counts).

Checks a routed :class:`repro.droute.space.RoutingSpace` for:

* **diff-net spacing**: every pair of shapes of different nets (or net
  vs blockage) must satisfy the width/run-length spacing table;
* **minimum area**: each connected same-net metal polygon per layer;
* **short edges**: adjacent boundary edges both below the minimum edge
  length;
* **notches**: non-touching shapes of the *same* net closer than the
  notch spacing (Sec. 3.7: "even within the same path, non-adjacent
  segments have to obey distance requirements");
* **minimum segment length**: route segments shorter than tau;
* **opens**: per net, connected components of (pins + wiring) minus 1.

The error count of Table I is ``len(violations) + opens``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.droute.space import RoutingSpace
from repro.geometry.l1 import rect_l2_gap, run_length
from repro.geometry.polygon import boundary_edges, rectilinear_area
from repro.geometry.rect import Rect
from repro.util.unionfind import UnionFind


class Violation:
    """One design rule violation."""

    __slots__ = ("kind", "layer", "rect", "nets", "detail")

    def __init__(
        self,
        kind: str,
        layer: int,
        rect: Rect,
        nets: Tuple[Optional[str], ...],
        detail: str = "",
    ) -> None:
        self.kind = kind
        self.layer = layer
        self.rect = rect
        self.nets = nets
        self.detail = detail

    def __repr__(self) -> str:
        return f"Violation({self.kind}, M{self.layer}, {self.nets}, {self.detail})"


class DrcReport:
    """All violations plus the opens count."""

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        self.opens = 0

    @property
    def error_count(self) -> int:
        return len(self.violations) + self.opens

    def by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for violation in self.violations:
            out[violation.kind] = out.get(violation.kind, 0) + 1
        if self.opens:
            out["open"] = self.opens
        return out

    def __repr__(self) -> str:
        return f"DrcReport(errors={self.error_count}, {self.by_kind()})"


class DrcChecker:
    """Full-chip design rule check over a routing space."""

    def __init__(self, space: RoutingSpace) -> None:
        self.space = space
        self.chip = space.chip

    # ------------------------------------------------------------------
    # Shape collection
    # ------------------------------------------------------------------
    def _net_shapes(self) -> Dict[int, List[Tuple[Optional[str], Rect, int]]]:
        """Per layer: (net, rect, rule_width) of all metal, incl. pins and
        blockages (net None)."""
        per_layer: Dict[int, List[Tuple[Optional[str], Rect, int]]] = {
            z: [] for z in self.chip.stack.indices
        }
        for layer, rect, _owner in self.chip.obstruction_shapes():
            if layer in per_layer:
                per_layer[layer].append((None, rect, min(rect.width, rect.height)))
        for net in self.chip.nets:
            for pin in net.pins:
                for layer, rect in pin.shapes:
                    if layer in per_layer:
                        per_layer[layer].append(
                            (net.name, rect, min(rect.width, rect.height))
                        )
        for route in self.space.routes.values():
            for stick, _level, type_name in route.wire_items():
                wire_type = self.chip.wire_type(type_name)
                shape, cls, _kind = wire_type.wire_shape(stick, self.chip.stack)
                per_layer[stick.layer].append((route.net_name, shape, cls.rule_width))
            for via, _level, type_name in route.via_items():
                model = self.chip.wire_type(type_name).via_model(via.via_layer)
                for kind, layer, rect, cls, _sk in model.shapes(
                    via.x, via.y, via.via_layer
                ):
                    if kind == "wiring" and layer in per_layer:
                        per_layer[layer].append(
                            (route.net_name, rect, cls.rule_width)
                        )
        return per_layer

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def check_spacing(self, report: DrcReport) -> None:
        """Diff-net spacing via a sweep over per-layer shape lists."""
        for layer, shapes in self._net_shapes().items():
            rule = self.chip.rules.spacing_rule(layer)
            radius = rule.max_spacing()
            ordered = sorted(shapes, key=lambda item: item[1].x_lo)
            xs = [item[1].x_lo for item in ordered]
            import bisect

            seen_pairs: Set[Tuple] = set()
            for index, (net_a, rect_a, width_a) in enumerate(ordered):
                hi = rect_a.x_hi + radius
                end = bisect.bisect_right(xs, hi)
                for other in range(index + 1, end):
                    net_b, rect_b, width_b = ordered[other]
                    if net_a == net_b and net_a is not None:
                        continue
                    if net_a is None and net_b is None:
                        continue
                    required = rule.spacing(
                        width_a, width_b, run_length(rect_a, rect_b)
                    )
                    gap = rect_l2_gap(rect_a, rect_b)
                    if rect_a.intersects_open(rect_b) or gap < required:
                        key = (
                            layer,
                            rect_a.as_tuple(),
                            rect_b.as_tuple(),
                        )
                        if key in seen_pairs:
                            continue
                        seen_pairs.add(key)
                        report.violations.append(
                            Violation(
                                "spacing",
                                layer,
                                rect_a.hull(rect_b),
                                (net_a, net_b),
                                f"gap {gap:.0f} < {required}",
                            )
                        )

    def check_notches(self, report: DrcReport) -> None:
        """Same-net notch rule: non-touching pieces too close (Sec. 3.7)."""
        for route in self.space.routes.values():
            shapes_per_layer: Dict[int, List[Rect]] = {}
            for stick, _level, type_name in route.wire_items():
                wire_type = self.chip.wire_type(type_name)
                shape, _cls, _kind = wire_type.wire_shape(stick, self.chip.stack)
                shapes_per_layer.setdefault(stick.layer, []).append(shape)
            for layer, shapes in shapes_per_layer.items():
                notch = self.chip.rules.same_net_rules(layer).notch_spacing
                reported = False
                for i in range(len(shapes)):
                    if reported:
                        break
                    for j in range(i + 1, len(shapes)):
                        a, b = shapes[i], shapes[j]
                        if a.intersects(b):
                            continue  # touching pieces: one polygon
                        gap = rect_l2_gap(a, b)
                        if gap < notch:
                            report.violations.append(
                                Violation(
                                    "notch", layer, a.hull(b),
                                    (route.net_name,),
                                    f"gap {gap:.0f} < {notch}",
                                )
                            )
                            reported = True  # one per net/layer suffices
                            break

    def check_same_net(self, report: DrcReport) -> None:
        """Minimum area, short edges and minimum segment length per net."""
        for route in self.space.routes.values():
            shapes_per_layer: Dict[int, List[Rect]] = {}
            for stick, _level, type_name in route.wire_items():
                wire_type = self.chip.wire_type(type_name)
                shape, _cls, _kind = wire_type.wire_shape(stick, self.chip.stack)
                shapes_per_layer.setdefault(stick.layer, []).append(shape)
                same_net = self.chip.rules.same_net_rules(stick.layer)
                if 0 < stick.length < same_net.min_segment_length:
                    report.violations.append(
                        Violation(
                            "min_segment",
                            stick.layer,
                            stick.as_rect(),
                            (route.net_name,),
                            f"len {stick.length} < {same_net.min_segment_length}",
                        )
                    )
            for via, _level, type_name in route.via_items():
                model = self.chip.wire_type(type_name).via_model(via.via_layer)
                for kind, layer, rect, _cls, _sk in model.shapes(
                    via.x, via.y, via.via_layer
                ):
                    if kind == "wiring":
                        shapes_per_layer.setdefault(layer, []).append(rect)
            # Pins join their layer's polygon (they supply min area).
            try:
                net = self.chip.net(route.net_name)
            except KeyError:
                net = None  # test wiring without a netlist entry
            if net is not None:
                for pin in net.pins:
                    for layer, rect in pin.shapes:
                        shapes_per_layer.setdefault(layer, []).append(rect)
            for layer, shapes in shapes_per_layer.items():
                same_net = self.chip.rules.same_net_rules(layer)
                for polygon in _connected_polygons(shapes):
                    area = rectilinear_area(polygon)
                    if 0 < area < same_net.min_area:
                        report.violations.append(
                            Violation(
                                "min_area",
                                layer,
                                Rect.bounding(polygon),
                                (route.net_name,),
                                f"area {area} < {same_net.min_area}",
                            )
                        )
                    edges = boundary_edges(polygon)
                    for (a, b) in _adjacent_edge_pairs(edges):
                        len_a = abs(a[2] - a[0]) + abs(a[3] - a[1])
                        len_b = abs(b[2] - b[0]) + abs(b[3] - b[1])
                        if (
                            len_a < same_net.min_edge_length
                            and len_b < same_net.min_edge_length
                        ):
                            report.violations.append(
                                Violation(
                                    "short_edge",
                                    layer,
                                    Rect.from_points(a[0], a[1], b[2], b[3]),
                                    (route.net_name,),
                                    f"edges {len_a}/{len_b}",
                                )
                            )
                            break  # one per polygon is informative enough

    def check_opens(self, report: DrcReport) -> None:
        """Connected components minus number of nets (Sec. 5.3)."""
        total_components = 0
        for net in self.chip.nets:
            pieces: List[Tuple[int, Rect]] = []
            for pin in net.pins:
                pieces.extend(pin.shapes)
            route = self.space.routes.get(net.name)
            if route is not None:
                for stick, _level, type_name in route.wire_items():
                    wire_type = self.chip.wire_type(type_name)
                    shape, _cls, _kind = wire_type.wire_shape(stick, self.chip.stack)
                    pieces.append((stick.layer, shape))
                for via, _level, type_name in route.via_items():
                    model = self.chip.wire_type(type_name).via_model(via.via_layer)
                    for kind, layer, rect, _cls, _sk in model.shapes(
                        via.x, via.y, via.via_layer
                    ):
                        if kind == "wiring":
                            pieces.append((layer, rect))
                        else:
                            # Cut connects its two pad layers.
                            pieces.append((-via.via_layer - 1000, rect))
            total_components += _component_count(pieces, net)
        report.opens = total_components - len(self.chip.nets)

    def run(
        self,
        spacing: bool = True,
        same_net: bool = True,
        opens: bool = True,
        notches: bool = True,
    ) -> DrcReport:
        report = DrcReport()
        if spacing:
            self.check_spacing(report)
        if same_net:
            self.check_same_net(report)
        if notches and same_net:
            self.check_notches(report)
        if opens:
            self.check_opens(report)
        return report


def _connected_polygons(shapes: Sequence[Rect]) -> List[List[Rect]]:
    """Group same-layer rects into connected (touching) polygons."""
    shapes = [s for s in shapes if s.area >= 0]
    uf = UnionFind(range(len(shapes)))
    ordered = sorted(range(len(shapes)), key=lambda i: shapes[i].x_lo)
    for pos, i in enumerate(ordered):
        for j in ordered[pos + 1:]:
            if shapes[j].x_lo > shapes[i].x_hi:
                break
            if shapes[i].intersects(shapes[j]):
                uf.union(i, j)
    groups: Dict[int, List[Rect]] = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(uf.find(i), []).append(shape)
    return list(groups.values())


def _adjacent_edge_pairs(edges):
    """Pairs of boundary edges sharing an endpoint."""
    endpoints: Dict[Tuple[int, int], List] = {}
    for edge in edges:
        endpoints.setdefault((edge[0], edge[1]), []).append(edge)
        endpoints.setdefault((edge[2], edge[3]), []).append(edge)
    for shared in endpoints.values():
        for i in range(len(shared)):
            for j in range(i + 1, len(shared)):
                yield shared[i], shared[j]


def _component_count(pieces: Sequence[Tuple[int, Rect]], net) -> int:
    """Connected components of a net's metal, vias connecting layers.

    Via cuts are encoded with pseudo-layer ``-via_layer - 1000`` and
    connect to wiring on both adjacent layers.
    """
    if not pieces:
        return max(1, len(net.pins))
    uf = UnionFind(range(len(pieces)))
    for i in range(len(pieces)):
        layer_i, rect_i = pieces[i]
        for j in range(i + 1, len(pieces)):
            layer_j, rect_j = pieces[j]
            connected = False
            if layer_i == layer_j and rect_i.intersects(rect_j):
                connected = True
            else:
                cut_layer = None
                metal_layer = None
                if layer_i <= -1000:
                    cut_layer, metal_layer = -(layer_i + 1000), layer_j
                    cut_rect, metal_rect = rect_i, rect_j
                elif layer_j <= -1000:
                    cut_layer, metal_layer = -(layer_j + 1000), layer_i
                    cut_rect, metal_rect = rect_j, rect_i
                if cut_layer is not None and metal_layer in (
                    cut_layer, cut_layer + 1
                ):
                    if cut_rect.intersects(metal_rect):
                        connected = True
            if connected:
                uf.union(i, j)
    return uf.component_count
