"""The plain "ISR" flow of Table I.

Negotiation-based 2D global routing with layer assignment, track
assignment plus node-based maze detailed routing with greedy pin access,
and the same local DRC cleanup finisher as the BR+ISR flow.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.baseline.cleanup import DrcCleanup
from repro.baseline.isr_detailed import IsrDetailedRouter
from repro.baseline.isr_global import IsrGlobalRouter
from repro.chip.design import Chip
from repro.droute.area import RoutingArea
from repro.flow.bonnroute import FlowResult
from repro.flow.stats import collect_metrics
from repro.obs import OBS

#: Tiles an ISR corridor extends beyond its global route's tiles (the
#: BonnRoute flow uses :data:`repro.engine.session.CORRIDOR_MARGIN_TILES`).
CORRIDOR_MARGIN_TILES = 2


class IsrFlow:
    """The industry-standard-router stand-in flow."""

    def __init__(self, chip: Chip, cleanup: bool = True) -> None:
        self.chip = chip
        self.cleanup = cleanup

    def run(self) -> FlowResult:
        """Run the baseline flow (same span/obs shape as BonnRouteFlow)."""
        with OBS.trace(
            "flow.run", chip=self.chip.name, nets=len(self.chip.nets),
            flow="isr",
        ):
            result = self._run_impl()
        if OBS.enabled and result.metrics is not None:
            result.metrics.obs = OBS.summary()
        return result

    def _run_impl(self) -> FlowResult:
        from repro.engine.session import RoutingSession

        start = time.time()
        result = FlowResult(self.chip)
        # Light session integration: the baseline flow shares the engine
        # record model (status/corridor per net) but keeps its own
        # negotiation-based global router; ECO reroutes are BR-only.
        session = RoutingSession(self.chip)
        result.session = session
        space = session.space
        result.space = space

        global_router = IsrGlobalRouter(self.chip)
        with OBS.trace("flow.global"):
            global_result = global_router.run()
        result.global_result = global_result

        corridors: Dict[str, RoutingArea] = {}
        graph = global_router.graph
        for name, route in global_result.routes.items():
            boxes = []
            for node in route.nodes():
                tx, ty, z = node
                rect = graph.tile_rect(tx, ty).expanded(
                    CORRIDOR_MARGIN_TILES * graph.tile_size
                )
                for layer in (z - 1, z, z + 1):
                    if self.chip.stack.has_layer(layer):
                        boxes.append((layer, rect))
            if boxes:
                corridors[name] = RoutingArea.from_boxes(boxes)
        for name in global_result.local_nets:
            corridors[name] = session.local_corridor(self.chip.net(name))

        for name, route in global_result.routes.items():
            record = session.record(name)
            record.global_route = route
            record.corridor = corridors.get(name)
        for name in global_result.local_nets:
            record = session.record(name)
            record.is_local = True
            record.corridor = corridors.get(name)

        detailed = IsrDetailedRouter(space, corridors=corridors)
        with OBS.trace("flow.detailed"):
            detailed_result = detailed.run()
        session.ingest_detailed(detailed_result)
        result.detailed_result = detailed_result
        result.runtime_router = time.time() - start

        if self.cleanup:
            cleaner = DrcCleanup(space)
            with OBS.trace("flow.cleanup"):
                result.cleanup_report = cleaner.run()
        result.runtime_total = time.time() - start
        drc = (
            result.cleanup_report.final_report
            if result.cleanup_report is not None
            else None
        )
        result.metrics = collect_metrics(
            space,
            runtime_total=result.runtime_total,
            runtime_bonnroute=0.0,
            drc_report=drc,
        )
        return result
