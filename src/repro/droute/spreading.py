"""Wire spreading (Sec. 4.2).

If there is unused space in a region, spreading wires apart improves
timing and manufacturing yield (fewer extra-material shorts, room to
enlarge vias in postprocessing).  BonnRoute implements this by letting
the on-track path search "impose extra costs on intervals that should be
kept free, based on congestion observed by global routing".

This module derives the keep-free intervals from the global routing
result: in tiles whose edge utilization is below a threshold, every
second routing track carries a spreading penalty, so the searches prefer
the unpenalized tracks and leave gaps - exactly the alternating-track
spreading pattern classical spreaders produce.  In congested tiles no
penalty applies (capacity is needed more than spacing).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.groute.graph import GlobalRoutingGraph
from repro.grid.trackgraph import TrackGraph


class WireSpreading:
    """Per-interval spreading penalties from global congestion."""

    def __init__(
        self,
        graph: TrackGraph,
        low_utilization_tiles: Set[Tuple[int, int, int]],
        global_graph: GlobalRoutingGraph,
        penalty: int = 0,
    ) -> None:
        self.graph = graph
        #: (tile_x, tile_y, layer) triples with spare capacity.
        self.low_utilization_tiles = low_utilization_tiles
        self.global_graph = global_graph
        if penalty <= 0:
            # The penalty must clearly exceed a jog pair's cost, or paths
            # shrug it off and the keep-free tracks stay occupied.
            stack = graph.stack
            penalty = 6 * stack[stack.bottom].pitch
        self.penalty = penalty

    @staticmethod
    def from_global_result(
        space_graph: TrackGraph,
        global_result,
        threshold: float = 0.5,
        penalty: int = 0,
    ) -> "WireSpreading":
        """Derive keep-free tiles from a GlobalRoutingResult.

        A (tile, layer) is low-utilization when every incident wire edge
        of the global graph uses less than ``threshold`` of its capacity.
        """
        graph = global_result.graph
        usage: Dict[object, float] = {}
        for route in global_result.routes.values():
            for edge in route.edges:
                usage[edge] = usage.get(edge, 0.0) + 1.0 + route.extra_space.get(
                    edge, 0.0
                )
        low: Set[Tuple[int, int, int]] = set()
        for tx in range(graph.nx):
            for ty in range(graph.ny):
                for z in graph.chip.stack.indices:
                    node = (tx, ty, z)
                    spare = True
                    for _other, edge in graph.neighbors(node):
                        if graph.is_via_edge(edge):
                            continue
                        capacity = graph.capacity(edge)
                        if capacity <= 0:
                            continue
                        if usage.get(edge, 0.0) / capacity >= threshold:
                            spare = False
                            break
                    if spare:
                        low.add(node)
        return WireSpreading(space_graph, low, graph, penalty)

    def interval_penalty(self, interval) -> int:
        """Extra cost for entering ``interval`` (Sec. 4.2).

        Odd-indexed tracks in low-utilization tiles are kept free; a
        search entering such an interval pays the spreading penalty, so
        wires pack on alternating tracks where space allows.
        """
        if interval.t % 2 == 0:
            return 0
        z = interval.z
        # Locate the interval's midpoint tile.
        mid_c = (interval.c_lo + interval.c_hi) // 2
        x, y, _z = self.graph.position((z, interval.t, mid_c))
        tx, ty = self.global_graph.tile_of_point(x, y)
        if (tx, ty, z) in self.low_utilization_tiles:
            return self.penalty
        return 0
