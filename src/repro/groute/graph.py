"""The global routing graph (Sec. 2.1).

The chip area is divided into an array of tiles sized so that roughly
50-100 minimum-width wires fit per tile and layer (scaled down with our
smaller instances).  One vertex per (tile, layer); edges connect vertically
adjacent layers in the same tile (vias) and tiles adjacent in the layer's
preferred direction (no non-preferred-direction edges: even with small
tiles they would block too many tracks).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.chip.design import Chip
from repro.chip.net import Net, Pin
from repro.geometry.rect import Rect
from repro.tech.layers import Direction

Node = Tuple[int, int, int]  # (tile_x, tile_y, layer)
Edge = Tuple[Node, Node]  # canonical: a < b


def canonical_edge(a: Node, b: Node) -> Edge:
    return (a, b) if a < b else (b, a)


class GlobalRoutingGraph:
    """3D tile graph with per-edge capacities."""

    def __init__(self, chip: Chip, tile_size: Optional[int] = None) -> None:
        self.chip = chip
        bottom = chip.stack[chip.stack.bottom]
        if tile_size is None:
            # The paper sizes tiles for ~50-100 parallel wires; our chips
            # are much smaller, so scale to ~12 wires per tile for a
            # meaningful tile array.
            tile_size = 12 * bottom.pitch
        self.tile_size = tile_size
        die = chip.die
        self.tiles_x = self._boundaries(die.x_lo, die.x_hi, tile_size)
        self.tiles_y = self._boundaries(die.y_lo, die.y_hi, tile_size)
        self.nx = len(self.tiles_x) - 1
        self.ny = len(self.tiles_y) - 1
        #: capacity per canonical edge; filled by repro.groute.capacity.
        self.capacities: Dict[Edge, float] = {}
        # Static geometry, computed once: the centre of every tile, from
        # which node centres and edge lengths are read.  (A per-edge
        # length memo would hold a key tuple per edge: +5% peak memory
        # on a 1000-net chip.)  Capacities are not cached: capacity
        # estimation and its reductions rewrite them.
        self._tile_centers: List[List[Tuple[int, int]]] = [
            [self.tile_rect(tx, ty).center for ty in range(self.ny)]
            for tx in range(self.nx)
        ]

    @staticmethod
    def _boundaries(lo: int, hi: int, step: int) -> List[int]:
        bounds = list(range(lo, hi, step))
        if bounds[-1] != hi:
            bounds.append(hi)
        if len(bounds) < 2:
            bounds = [lo, hi]
        return bounds

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def tile_rect(self, tx: int, ty: int) -> Rect:
        return Rect(
            self.tiles_x[tx], self.tiles_y[ty],
            self.tiles_x[tx + 1], self.tiles_y[ty + 1],
        )

    def tile_center(self, tx: int, ty: int) -> Tuple[int, int]:
        return self._tile_centers[tx][ty]

    def tile_of_point(self, x: int, y: int) -> Tuple[int, int]:
        tx = min(self.nx - 1, max(0, self._locate(self.tiles_x, x)))
        ty = min(self.ny - 1, max(0, self._locate(self.tiles_y, y)))
        return tx, ty

    @staticmethod
    def _locate(bounds: List[int], value: int) -> int:
        import bisect

        return max(0, bisect.bisect_right(bounds, value) - 1)

    def node_center(self, node: Node) -> Tuple[int, int]:
        return self._tile_centers[node[0]][node[1]]

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[Node]:
        for z in self.chip.stack.indices:
            for tx in range(self.nx):
                for ty in range(self.ny):
                    yield (tx, ty, z)

    def neighbors(self, node: Node) -> Iterator[Tuple[Node, Edge]]:
        tx, ty, z = node
        stack = self.chip.stack
        direction = stack.direction(z)
        if direction is Direction.HORIZONTAL:
            steps = ((1, 0), (-1, 0))
        else:
            steps = ((0, 1), (0, -1))
        for dx, dy in steps:
            nx, ny = tx + dx, ty + dy
            if 0 <= nx < self.nx and 0 <= ny < self.ny:
                other = (nx, ny, z)
                yield other, canonical_edge(node, other)
        for dz in (-1, 1):
            if stack.has_layer(z + dz):
                other = (tx, ty, z + dz)
                yield other, canonical_edge(node, other)

    def edges(self) -> Iterator[Edge]:
        seen: Set[Edge] = set()
        for node in self.nodes():
            for _other, edge in self.neighbors(node):
                if edge not in seen:
                    seen.add(edge)
                    yield edge

    @staticmethod
    def is_via_edge(edge: Edge) -> bool:
        return edge[0][2] != edge[1][2]

    def edge_length(self, edge: Edge) -> int:
        """l1 distance between tile centers (0 for via edges)."""
        a, b = edge
        if a[2] != b[2]:
            return 0
        centers = self._tile_centers
        ax, ay = centers[a[0]][a[1]]
        bx, by = centers[b[0]][b[1]]
        return abs(ax - bx) + abs(ay - by)

    def capacity(self, edge: Edge) -> float:
        return self.capacities.get(edge, 0.0)

    # ------------------------------------------------------------------
    # Pins and nets
    # ------------------------------------------------------------------
    def pin_nodes(self, pin: Pin) -> Set[Node]:
        """The vertex set V_p representing the pin (Sec. 2.1)."""
        nodes: Set[Node] = set()
        for layer, rect in pin.shapes:
            if not self.chip.stack.has_layer(layer):
                continue
            cx, cy = rect.center
            tx, ty = self.tile_of_point(cx, cy)
            nodes.add((tx, ty, layer))
        return nodes

    def net_terminals(self, net: Net) -> List[Set[Node]]:
        """One node set per pin; the oracle connects these as cliques."""
        return [self.pin_nodes(pin) for pin in net.pins]

    def is_local_net(self, net: Net) -> bool:
        """All pins in one tile: removable from global routing (Sec. 2.1),
        routed directly by the detailed router (Sec. 2.5)."""
        tiles = {
            (node[0], node[1])
            for terminal in self.net_terminals(net)
            for node in terminal
        }
        return len(tiles) <= 1


class GlobalRoute:
    """One net's global route: edges plus extra space per edge."""

    __slots__ = ("net_name", "edges", "extra_space")

    def __init__(
        self,
        net_name: str,
        edges: Set[Edge],
        extra_space: Optional[Dict[Edge, float]] = None,
    ) -> None:
        self.net_name = net_name
        self.edges = set(edges)
        self.extra_space = dict(extra_space or {})

    def __repr__(self) -> str:
        return f"GlobalRoute({self.net_name}, {len(self.edges)} edges)"

    def wire_length(self, graph: GlobalRoutingGraph) -> int:
        return sum(graph.edge_length(edge) for edge in self.edges)

    def via_count(self) -> int:
        return sum(1 for edge in self.edges if GlobalRoutingGraph.is_via_edge(edge))

    def nodes(self) -> Set[Node]:
        out: Set[Node] = set()
        for a, b in self.edges:
            out.add(a)
            out.add(b)
        return out
