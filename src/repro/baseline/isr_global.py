"""ISR global routing: 2D negotiation + layer assignment.

The contemporary standard the paper contrasts with (Sec. 1.2): solve a 2D
projection first with negotiation-based rip-up-and-reroute (history +
present congestion costs, PathFinder / NTHU-Route style), then map wires
to layers in a separate greedy step (Lee & Wang [2008]), inserting vias
at direction changes and pin connections.  Compared to BonnRoute's 3D
resource sharing this typically needs more vias and achieves less even
congestion - the effect Table III shows.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.chip.design import Chip
from repro.chip.net import Net
from repro.groute.graph import (
    Edge,
    GlobalRoute,
    GlobalRoutingGraph,
    canonical_edge,
)
from repro.groute.steiner_oracle import path_composition_steiner_tree
from repro.tech.layers import Direction

#: 2D nodes are (tx, ty); 2D edges canonical node pairs.
Node2D = Tuple[int, int]
Edge2D = Tuple[Node2D, Node2D]


def _edge2d(a: Node2D, b: Node2D) -> Edge2D:
    return (a, b) if a < b else (b, a)


class _Grid2D:
    """Collapsed 2D view of the global routing graph."""

    def __init__(self, graph: GlobalRoutingGraph) -> None:
        self.graph = graph
        self.nx = graph.nx
        self.ny = graph.ny
        self.capacity: Dict[Edge2D, float] = {}
        self.layers_for: Dict[Edge2D, List[int]] = {}
        chip = graph.chip
        for edge in graph.edges():
            if graph.is_via_edge(edge):
                continue
            (ax, ay, z), (bx, by, _z) = edge
            edge2d = _edge2d((ax, ay), (bx, by))
            self.capacity[edge2d] = self.capacity.get(edge2d, 0.0) + graph.capacity(edge)
            self.layers_for.setdefault(edge2d, []).append(z)

    def neighbors(self, node: Node2D):
        x, y = node
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < self.nx and 0 <= ny < self.ny:
                other = (nx, ny)
                edge = _edge2d(node, other)
                if self.capacity.get(edge, 0.0) > 0:
                    yield other, edge

    def edge_length(self, edge: Edge2D) -> int:
        (ax, ay), (bx, by) = edge
        ca = self.graph.tile_center(ax, ay)
        cb = self.graph.tile_center(bx, by)
        return abs(ca[0] - cb[0]) + abs(ca[1] - cb[1])


class IsrGlobalResult:
    def __init__(self, chip: Chip, graph: GlobalRoutingGraph) -> None:
        self.chip = chip
        self.graph = graph
        self.routes: Dict[str, GlobalRoute] = {}
        self.local_nets: Set[str] = set()
        self.total_runtime = 0.0
        self.negotiation_iterations = 0
        self.overflow = 0.0

    def wire_length(self) -> int:
        return sum(r.wire_length(self.graph) for r in self.routes.values())

    def via_count(self) -> int:
        return sum(r.via_count() for r in self.routes.values())

    def summary(self) -> Dict[str, float]:
        return {
            "nets": len(self.routes),
            "wire_length": self.wire_length(),
            "vias": self.via_count(),
            "runtime": self.total_runtime,
            "iterations": self.negotiation_iterations,
            "overflow": self.overflow,
        }


class IsrGlobalRouter:
    """Negotiation-based 2D global router with layer assignment."""

    #: Negotiation rounds at most.
    max_iterations = 12
    #: History cost added per round to every overflowing edge.
    history_increment = 0.5
    #: Present-congestion cost factor on an edge at or over capacity.
    present_factor = 2.0

    def __init__(
        self, chip: Chip, graph: Optional[GlobalRoutingGraph] = None
    ) -> None:
        self.chip = chip
        if graph is None:
            from repro.grid.tracks import build_track_plan
            from repro.groute.capacity import estimate_capacities

            graph = GlobalRoutingGraph(chip)
            estimate_capacities(graph, build_track_plan(chip))
        self.graph = graph
        self.grid = _Grid2D(graph)
        self.history: Dict[Edge2D, float] = {}

    # ------------------------------------------------------------------
    # 2D routing
    # ------------------------------------------------------------------
    def _terminals_2d(self, net: Net) -> List[Set[Node2D]]:
        terminals = []
        for pin in net.pins:
            nodes = {
                (node[0], node[1]) for node in self.graph.pin_nodes(pin)
            }
            terminals.append(nodes)
        return terminals

    def _route_2d(
        self, net: Net, usage: Dict[Edge2D, float]
    ) -> Optional[Set[Edge2D]]:
        grid = self.grid

        class _Shim:
            """Adapts the 2D grid to the Steiner oracle's graph protocol."""

            tile_size = self.graph.tile_size

            @staticmethod
            def neighbors(node):
                for other, edge in grid.neighbors(node):
                    yield other, edge

            @staticmethod
            def capacity(edge):
                return grid.capacity.get(edge, 0.0)

            @staticmethod
            def node_center(node):
                return self.graph.tile_center(node[0], node[1])

            @staticmethod
            def edge_length(edge):
                return grid.edge_length(edge)

        def edge_cost(_net_name: str, edge: Edge2D) -> Tuple[float, float]:
            length = grid.edge_length(edge)
            capacity = max(grid.capacity.get(edge, 0.0), 1e-9)
            used = usage.get(edge, 0.0)
            present = 1.0
            if used >= capacity:
                present = self.present_factor * (1.0 + used - capacity)
            history = 1.0 + self.history.get(edge, 0.0)
            return length * history * present, 0.0

        result = path_composition_steiner_tree(
            _Shim, net.name, self._terminals_2d(net), edge_cost
        )
        if result is None:
            return None
        return set(result.edges)

    def _usage_of(
        self, routes2d: Dict[str, Set[Edge2D]], width: Dict[str, float]
    ) -> Dict[Edge2D, float]:
        usage: Dict[Edge2D, float] = {}
        for name, edges in routes2d.items():
            for edge in edges:
                usage[edge] = usage.get(edge, 0.0) + width[name]
        return usage

    # ------------------------------------------------------------------
    # Layer assignment (greedy, bottom-up)
    # ------------------------------------------------------------------
    def _assign_layers(self, net: Net, edges2d: Set[Edge2D]) -> GlobalRoute:
        """Map 2D edges to layers greedily; vias join segments and pins.

        Each 2D edge needs a layer of matching preferred direction; the
        greedy pass prefers the lowest feasible layer (classic layer
        assignment), which strings vias at every direction change.
        """
        stack = self.chip.stack
        route_edges: Set[Edge] = set()
        layer_usage: Dict[Edge, float] = {}
        chosen_layer: Dict[Edge2D, int] = {}
        for edge2d in sorted(edges2d):
            (ax, ay), (bx, by) = edge2d
            horizontal = ay == by
            wanted = (
                Direction.HORIZONTAL if horizontal else Direction.VERTICAL
            )
            candidates = [
                z for z in stack.indices if stack.direction(z) is wanted
            ]
            best = None
            for z in candidates:
                edge3d = canonical_edge((ax, ay, z), (bx, by, z))
                load = layer_usage.get(edge3d, 0.0)
                if load < self.graph.capacity(edge3d):
                    best = z
                    break
            if best is None and candidates:
                best = candidates[0]
            if best is None:
                continue
            chosen_layer[edge2d] = best
            edge3d = canonical_edge((ax, ay, best), (bx, by, best))
            route_edges.add(edge3d)
            layer_usage[edge3d] = layer_usage.get(edge3d, 0.0) + 1.0
        # Vias: connect edges sharing a 2D node but on different layers,
        # and connect pin layers to the lowest wire layer at the pin tile.
        at_node: Dict[Node2D, Set[int]] = {}
        for edge2d, z in chosen_layer.items():
            for node in edge2d:
                at_node.setdefault(node, set()).add(z)
        for pin in net.pins:
            for node in self.graph.pin_nodes(pin):
                at_node.setdefault((node[0], node[1]), set()).add(node[2])
        for (tx, ty), layers in at_node.items():
            if len(layers) < 2:
                continue
            lo, hi = min(layers), max(layers)
            for z in range(lo, hi):
                route_edges.add(canonical_edge((tx, ty, z), (tx, ty, z + 1)))
        return GlobalRoute(net.name, route_edges)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, nets: Optional[Sequence[Net]] = None) -> IsrGlobalResult:
        start = time.time()
        if nets is None:
            nets = self.chip.nets
        result = IsrGlobalResult(self.chip, self.graph)
        routable: List[Net] = []
        for net in nets:
            if self.graph.is_local_net(net):
                result.local_nets.add(net.name)
            else:
                routable.append(net)
        width = {
            net.name: (2.0 if net.wire_type == "wide" else 1.0)
            for net in routable
        }
        routes2d: Dict[str, Set[Edge2D]] = {}
        usage: Dict[Edge2D, float] = {}
        # Initial congestion-blind routing.
        for net in routable:
            edges = self._route_2d(net, usage)
            if edges is not None:
                routes2d[net.name] = edges
                for edge in edges:
                    usage[edge] = usage.get(edge, 0.0) + width[net.name]
        # Negotiation iterations.
        nets_by_name = {net.name: net for net in routable}
        for iteration in range(self.max_iterations):
            overflowed = {
                edge
                for edge, used in usage.items()
                if used > self.grid.capacity.get(edge, 0.0) + 1e-9
            }
            if not overflowed:
                break
            result.negotiation_iterations = iteration + 1
            for edge in overflowed:
                self.history[edge] = (
                    self.history.get(edge, 0.0) + self.history_increment
                )
            for name, edges in sorted(routes2d.items()):
                if not (edges & overflowed):
                    continue
                for edge in edges:
                    usage[edge] -= width[name]
                new_edges = self._route_2d(nets_by_name[name], usage)
                if new_edges is None:
                    new_edges = edges
                routes2d[name] = new_edges
                for edge in new_edges:
                    usage[edge] = usage.get(edge, 0.0) + width[name]
        result.overflow = sum(
            max(0.0, used - self.grid.capacity.get(edge, 0.0))
            for edge, used in usage.items()
        )
        for name, edges in routes2d.items():
            result.routes[name] = self._assign_layers(nets_by_name[name], edges)
        result.total_runtime = time.time() - start
        return result
