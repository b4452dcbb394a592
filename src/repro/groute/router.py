"""Global router facade (Sec. 2).

Pipeline: build graph -> estimate capacities -> run the resource sharing
FPTAS -> randomized rounding -> rip-up and reroute -> emit per-net
corridors for detailed routing.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.chip.design import Chip
from repro.chip.net import Net
from repro.droute.area import RoutingArea
from repro.geometry.rect import Rect
from repro.groute.capacity import (
    apply_intra_tile_reduction,
    apply_stacked_via_reduction,
    estimate_capacities,
)
from repro.groute.graph import GlobalRoute, GlobalRoutingGraph
from repro.groute.resources import ResourceModel
from repro.groute.rounding import RoundingPostprocessor, RoundingStats
from repro.groute.sharing import FractionalSolution, ResourceSharingSolver
from repro.obs import OBS
from repro.grid.tracks import TrackPlan, build_track_plan
from repro.steiner.rsmt import steiner_length


class GlobalRoutingResult:
    """Routes, corridors and statistics of one global routing run."""

    def __init__(self, chip: Chip, graph: GlobalRoutingGraph) -> None:
        self.chip = chip
        self.graph = graph
        self.routes: Dict[str, GlobalRoute] = {}
        self.local_nets: Set[str] = set()
        self.fractional: Optional[FractionalSolution] = None
        self.rounding_stats: Optional[RoundingStats] = None
        self.total_runtime = 0.0
        self.sharing_runtime = 0.0
        self.rounding_runtime = 0.0

    # -- metrics --------------------------------------------------------
    def wire_length(self) -> int:
        return sum(route.wire_length(self.graph) for route in self.routes.values())

    def via_count(self) -> int:
        return sum(route.via_count() for route in self.routes.values())

    def net_wire_length(self, net_name: str) -> int:
        route = self.routes.get(net_name)
        return route.wire_length(self.graph) if route else 0

    # -- corridors (Sec. 4.4) -------------------------------------------
    def corridor(self, net_name: str, margin_tiles: int = 0) -> RoutingArea:
        """Routing area from the net's global route: its tiles on their
        layers plus the same tiles on neighbouring layers.

        Degenerate nets deliberately get the unrestricted area: a net
        with no recorded route (local nets, oracle failures) and a net
        whose route has no edges (all terminals in one graph node, e.g. a
        single-terminal net) both return :meth:`RoutingArea.everywhere`,
        so the detailed router is never boxed into a corridor that the
        global stage never computed.
        """
        route = self.routes.get(net_name)
        if route is None or not route.edges:
            return RoutingArea.everywhere()
        boxes: List[Tuple[int, Rect]] = []
        stack = self.chip.stack
        for node in route.nodes():
            tx, ty, z = node
            rect = self.graph.tile_rect(tx, ty)
            if margin_tiles:
                rect = rect.expanded(margin_tiles * self.graph.tile_size)
            for layer in (z - 1, z, z + 1):
                if stack.has_layer(layer):
                    boxes.append((layer, rect))
        return RoutingArea.from_boxes(boxes)

    def corridor_detour(self, net_name: str) -> float:
        """Route length over the net's Steiner lower bound (drives the
        pi_H / pi_P choice of Sec. 4.1).

        Clamped to >= 1.0, which also pins the degenerate cases: an
        unrouted net has length 0 and a single-terminal net has Steiner
        lower bound 0 (clamped to 1), so both report a detour factor of
        exactly 1.0 — "no detour known" — rather than raising.
        """
        net = self.chip.net(net_name)
        lower = max(steiner_length(net.terminal_points()), 1)
        length = self.net_wire_length(net_name)
        return max(1.0, length / lower)

    def corridors(self, margin_tiles: int = 0) -> Dict[str, RoutingArea]:
        return {
            name: self.corridor(name, margin_tiles) for name in self.routes
        }

    def summary(self) -> Dict[str, float]:
        return {
            "nets": len(self.routes),
            "local_nets": len(self.local_nets),
            "wire_length": self.wire_length(),
            "vias": self.via_count(),
            "runtime": self.total_runtime,
            "sharing_runtime": self.sharing_runtime,
            "rounding_runtime": self.rounding_runtime,
            "oracle_calls": self.fractional.oracle_calls if self.fractional else 0,
            "oracle_reuses": self.fractional.oracle_reuses if self.fractional else 0,
            "max_congestion": self.fractional.max_congestion if self.fractional else 0.0,
            "fresh_reroutes": (
                self.rounding_stats.fresh_reroutes if self.rounding_stats else 0
            ),
            "final_violations": (
                self.rounding_stats.final_violations if self.rounding_stats else 0
            ),
        }


class GlobalRouter:
    """Resource-sharing global router (Sec. 2)."""

    def __init__(
        self,
        chip: Chip,
        phases: int = 40,
        seed: Optional[int] = None,
        track_plan: Optional[TrackPlan] = None,
        capacity_scale: float = 1.0,
        extra_obstacles=None,
        fault_injector=None,
        session=None,
    ) -> None:
        self.chip = chip
        #: Optional :class:`repro.engine.session.RoutingSession`.  When
        #: set, results are written into the session's per-net records
        #: and the final sharing duals are stored for ECO warm starts.
        self.session = session
        self.graph = GlobalRoutingGraph(chip)
        if session is not None and track_plan is None:
            track_plan = session.plan
        self.plan = track_plan if track_plan is not None else build_track_plan(chip)
        estimate_capacities(self.graph, self.plan, extra_obstacles=extra_obstacles)
        if capacity_scale != 1.0:
            # Simulates denser designs: the paper's chips pack 50-100
            # wires per tile at high utilization, our synthetic ones are
            # sparse; scaling capacities reproduces the congestion regime.
            for edge in list(self.graph.capacities):
                self.graph.capacities[edge] *= capacity_scale
        # Both capacity reductions of Sec. 2.1.
        apply_intra_tile_reduction(self.graph, chip.nets, steiner_length)
        apply_stacked_via_reduction(self.graph)
        self.model = ResourceModel(self.graph, chip.nets)
        self.phases = phases
        self.seed = seed
        self.fault_injector = fault_injector
        if session is not None:
            session.attach_global_router(self)

    def run(
        self, nets: Optional[Sequence[Net]] = None, deadline=None
    ) -> GlobalRoutingResult:
        result = self._route(
            self.chip.nets if nets is None else nets, self.phases, deadline=deadline
        )
        if self.session is not None:
            self.session.ingest_global(result)
        if OBS.enabled:
            stats = result.rounding_stats
            OBS.count("groute.fresh_reroutes", stats.fresh_reroutes)
            OBS.gauge("groute.final_violations", stats.final_violations)
        return result

    def run_incremental(
        self,
        nets: Sequence[Net],
        warm_start: Optional[Dict[object, float]] = None,
        phases: Optional[int] = None,
        frozen_routes: Optional[Dict[str, GlobalRoute]] = None,
    ) -> GlobalRoutingResult:
        """Re-route only ``nets``, warm-starting from previous duals.

        ``warm_start`` seeds the solver's log-prices (a previous
        :attr:`FractionalSolution.prices` converted by the session), so
        the sharing loop starts where the chip's congestion already is
        and far fewer phases suffice.  ``frozen_routes`` — the unchanged
        nets' global routes — enter rounding repair as fixed load: the
        repair stage accounts for their edge usage when it resolves
        overflows but never rechooses or reroutes them (they have no
        fractional support and no Net object in the repair call).

        With no warm start, no frozen routes and the router's own phase
        count this is :meth:`run` on ``nets``: the same body runs both.
        """
        return self._route(
            nets,
            phases if phases is not None else self.phases,
            warm_start=warm_start,
            frozen_routes=frozen_routes,
            incremental=True,
        )

    def _route(
        self,
        nets: Sequence[Net],
        phases: int,
        deadline=None,
        warm_start: Optional[Dict[object, float]] = None,
        frozen_routes: Optional[Dict[str, GlobalRoute]] = None,
        incremental: bool = False,
    ) -> GlobalRoutingResult:
        """Sharing, rounding and repair of ``nets`` (both public runs)."""
        start = time.time()
        span_attrs = {"incremental": True} if incremental else {}
        result = GlobalRoutingResult(self.chip, self.graph)
        routable: List[Net] = []
        for net in nets:
            if self.graph.is_local_net(net):
                # Removed from global routing (Sec. 2.1); the detailed
                # router handles it inside (a slightly enlarged) tile.
                result.local_nets.add(net.name)
            else:
                routable.append(net)
        solver = ResourceSharingSolver(
            self.graph, self.model, phases=phases,
            fault_injector=self.fault_injector,
            initial_log_prices=warm_start,
        )
        sharing_start = time.time()
        with OBS.trace(
            "groute.sharing", nets=len(routable), phases=phases, **span_attrs
        ):
            fractional = solver.solve(routable, deadline=deadline)
        result.sharing_runtime = time.time() - sharing_start
        result.fractional = fractional
        rounding_start = time.time()
        postprocessor = RoundingPostprocessor(
            self.graph, self.model, self.seed,
            fault_injector=self.fault_injector,
        )
        with OBS.trace("groute.rounding", **span_attrs):
            routes = dict(frozen_routes or {})
            routes.update(postprocessor.round(fractional))
            routes = postprocessor.repair(routes, fractional, routable)
        result.rounding_runtime = time.time() - rounding_start
        result.rounding_stats = postprocessor.stats
        # Only the routed nets belong to the result; frozen routes were
        # load, not output.
        names = {net.name for net in nets}
        result.routes = {
            name: route for name, route in routes.items() if name in names
        }
        result.total_runtime = time.time() - start
        if self.session is not None:
            self.session.store_sharing_prices(fractional.prices)
        if OBS.enabled:
            OBS.count("groute.nets_routed", len(result.routes))
            OBS.count("groute.local_nets", len(result.local_nets))
        return result
