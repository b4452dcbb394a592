"""ISR detailed routing: track assignment + node-based maze completion.

The paper describes ISR as using "a track assignment step to cover long
distances" and completing the routing "in purely gridless fashion"
(Sec. 5.3).  This stand-in:

* assigns the long straight portion of each net's global route to a free
  track up front (track assignment; poorly placed segments later force
  detours - one source of ISR's scenic nets);
* completes every connection with the classical node-labelling Dijkstra
  (no interval bulk processing, no fast-grid-assisted interval reuse);
* accesses pins greedily (first feasible access path per pin, no
  conflict-free solution - Fig. 7's failure mode);
* prices vias low, which packs more vias than BonnRoute's searches.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.chip.net import Net
from repro.droute.area import RoutingArea
from repro.droute.future_cost import SearchCosts
from repro.droute.router import DetailedRouter, DetailedRoutingResult
from repro.droute.space import RoutingSpace
from repro.grid.shapegrid import RipupLevel
from repro.tech.layers import Direction
from repro.tech.wiring import StickFigure


class IsrDetailedRouter(DetailedRouter):
    """ISR-style detailed router built on the shared routing space."""

    def __init__(
        self,
        space: RoutingSpace,
        corridors: Optional[Dict[str, RoutingArea]] = None,
        track_assignment: bool = True,
    ) -> None:
        # Vias priced at a quarter of BonnRoute's default: the search
        # hops layers freely, creating ISR's higher via counts.  Greedy
        # pin access: the base class's planner and connector with no
        # reserved conflict-free solution (paths are chosen first-fit at
        # use time).
        super().__init__(
            space,
            corridors=corridors,
            costs=SearchCosts(jog_factor=2, via_cost=40),
            use_interval_search=False,  # node labelling only
            enable_pin_access=False,  # greedy dynamic access only
        )
        self.track_assignment = track_assignment

    # ------------------------------------------------------------------
    # Track assignment (the intermediate step BonnRoute does not have)
    # ------------------------------------------------------------------
    def _assign_track_segment(self, net: Net) -> bool:
        """Reserve a straight track segment spanning the net's bounding
        box middle on the lowest feasible layer."""
        box = net.bounding_box()
        stack = self.chip.stack
        graph = self.space.graph
        span = max(box.width, box.height)
        if span < 4 * self.space.chip.stack[stack.bottom].pitch:
            return False
        horizontal = box.width >= box.height
        wanted = Direction.HORIZONTAL if horizontal else Direction.VERTICAL
        cx, cy = box.center
        for z in stack.indices:
            if stack.direction(z) is not wanted:
                continue
            if not self.chip.wire_type(net.wire_type).has_layer(z):
                continue
            vertex = graph.nearest_vertex(cx, cy, z)
            if vertex is None:
                continue
            track_coord = graph.tracks[z][vertex[1]]
            if horizontal:
                stick = StickFigure(z, box.x_lo, track_coord, box.x_hi, track_coord)
            else:
                stick = StickFigure(z, track_coord, box.y_lo, track_coord, box.y_hi)
            check = self.space.check_wire(net.wire_type, stick, net.name)
            if check.legal:
                self.space.add_wire(
                    net.name, net.wire_type, stick, int(RipupLevel.NORMAL)
                )
                return True
        return False

    # ------------------------------------------------------------------
    # Main loop: track assignment first, then the standard queue
    # ------------------------------------------------------------------
    def run(self, nets: Optional[Sequence[Net]] = None) -> DetailedRoutingResult:
        if nets is None:
            nets = self.chip.nets
        if self.track_assignment:
            # Longest nets claim tracks first.
            for net in sorted(nets, key=lambda n: -n.half_perimeter()):
                self._assign_track_segment(net)
        return super().run(nets)
