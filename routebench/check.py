"""The benchmark's own output check, independent of the router's DRC.

Detailed wiring: every net the router reports routed must have its pin,
wire and via metal form one connected component, and every wire and via
must lie inside the die.  Wires are expanded to their metal shapes with
the technology's wire model; a via is one piece that joins its pads on
the two layers it connects.  Connectivity is a union-find over pieces
that touch on a shared layer.

Global routes: every routed net's tile-graph edges must join adjacent
tiles, form one connected component and reach a node of every pin (a
pin's nodes are the tiles under its shapes' centres, on the shapes'
layers).

The union-find and geometry tests are written here rather than imported
from ``repro.util``/``repro.geometry``, so a defect there cannot hide
itself from the check.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Set, Tuple

Box = Tuple[int, int, int, int]


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, item: int) -> int:
        parent = self.parent
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def components(self) -> int:
        return sum(1 for i in range(len(self.parent)) if self.find(i) == i)


def _box(rect) -> Box:
    return (rect.x_lo, rect.y_lo, rect.x_hi, rect.y_hi)


def _touch(a: Box, b: Box) -> bool:
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def _inside(a: Box, die: Box) -> bool:
    return die[0] <= a[0] and die[1] <= a[1] and a[2] <= die[2] and a[3] <= die[3]


def net_pieces(chip, net, route) -> Tuple[List[List[Tuple[int, Box]]], List[Box]]:
    """(pieces, wiring boxes): each piece is a list of (layer, box) that
    is internally connected (a pin, a wire, or a via with its pads)."""
    pieces: List[List[Tuple[int, Box]]] = []
    wiring: List[Box] = []
    for pin in net.pins:
        pieces.append([(layer, _box(rect)) for layer, rect in pin.shapes])
    if route is None:
        return pieces, wiring
    stack = chip.stack
    for stick, _level, type_name in route.wire_items():
        shape, _cls, _kind = chip.wire_type(type_name).wire_shape(stick, stack)
        pieces.append([(stick.layer, _box(shape))])
        wiring.append(_box(shape))
    for via, _level, type_name in route.via_items():
        model = chip.wire_type(type_name).via_model(via.via_layer)
        pads = []
        for kind, layer, rect, _cls, _sk in model.shapes(via.x, via.y, via.via_layer):
            if kind == "wiring":
                pads.append((layer, _box(rect)))
                wiring.append(_box(rect))
        pieces.append(pads)
    return pieces, wiring


def net_is_connected(pieces: List[List[Tuple[int, Box]]]) -> bool:
    """True when the pieces form one component (touching on a layer)."""
    if len(pieces) <= 1:
        return True
    by_layer: Dict[int, List[Tuple[Box, int]]] = {}
    for index, piece in enumerate(pieces):
        for layer, box in piece:
            by_layer.setdefault(layer, []).append((box, index))
    uf = _UnionFind(len(pieces))
    for shapes in by_layer.values():
        shapes.sort()
        for pos, (box, index) in enumerate(shapes):
            for other, other_index in shapes[pos + 1:]:
                if other[0] > box[2]:
                    break
                if _touch(box, other):
                    uf.union(index, other_index)
    return uf.components() == 1


def check_detailed(chip, space, routed: Iterable[str]) -> List[str]:
    """Names of routed nets that fail the connectivity or die check."""
    die = _box(chip.die)
    bad = []
    for name in sorted(routed):
        net = chip.net(name)
        pieces, wiring = net_pieces(chip, net, space.routes.get(name))
        if not all(_inside(box, die) for box in wiring) or not net_is_connected(pieces):
            bad.append(name)
    return bad


def _pin_nodes(graph, pin) -> Set[Tuple[int, int, int]]:
    nodes = set()
    for layer, rect in pin.shapes:
        cx = (rect.x_lo + rect.x_hi) // 2
        cy = (rect.y_lo + rect.y_hi) // 2
        tx = min(graph.nx - 1, max(0, bisect.bisect_right(graph.tiles_x, cx) - 1))
        ty = min(graph.ny - 1, max(0, bisect.bisect_right(graph.tiles_y, cy) - 1))
        nodes.add((tx, ty, layer))
    return nodes


def check_global(chip, graph, routes) -> List[str]:
    """Names of globally routed nets whose route is broken."""
    bad = []
    for name in sorted(routes):
        edges = list(routes[name].edges)
        nodes = sorted({node for edge in edges for node in edge})
        index = {node: i for i, node in enumerate(nodes)}
        uf = _UnionFind(len(nodes))
        ok = bool(nodes)
        for a, b in edges:
            step = abs(a[0] - b[0]) + abs(a[1] - b[1]) + abs(a[2] - b[2])
            in_range = all(
                0 <= n[0] < graph.nx and 0 <= n[1] < graph.ny for n in (a, b)
            )
            ok = ok and step == 1 and in_range
            uf.union(index[a], index[b])
        ok = ok and uf.components() == 1
        node_set = set(nodes)
        for pin in chip.net(name).pins:
            ok = ok and bool(_pin_nodes(graph, pin) & node_set)
        if not ok:
            bad.append(name)
    return bad
