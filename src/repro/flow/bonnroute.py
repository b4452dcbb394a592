"""The BonnRoute ("BR+ISR") flow (Sec. 5.2 / 5.3).

1. Track plan + routing space construction.
2. Prerouting of single-tile nets by the detailed router in a slightly
   enlarged tile area (Sec. 2.5), *before* capacity estimation, so their
   wiring is accounted for as blocked track capacity.
3. Global routing: min-max resource sharing, rounding, R&R.
4. Detailed routing restricted to the global corridors, critical nets
   first.
5. External-style local DRC cleanup.

The flow is fault tolerant (PR 1): each stage runs behind an isolation
boundary, per-net failures surface as structured
:class:`~repro.flow.resilience.NetFailure` records instead of
exceptions, stage progress is checkpointed to disk so a killed run
resumes, and a seeded :class:`~repro.flow.faults.FaultInjector` can be
attached to exercise all of it deterministically.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.baseline.cleanup import CleanupReport, DrcCleanup
from repro.chip.design import Chip
from repro.droute.route import NetRoute
from repro.droute.router import DetailedRouter, DetailedRoutingResult
from repro.droute.space import RoutingSpace
from repro.flow.faults import FaultInjector, FaultPlan
from repro.flow.resilience import (
    Deadline,
    FlowFailureReport,
    NetFailure,
)
from repro.flow.stats import FlowMetrics, collect_metrics
from repro.groute.graph import GlobalRoutingGraph
from repro.groute.router import GlobalRouter, GlobalRoutingResult
from repro.obs import OBS
from repro.obs.resource import ResourceSampler
from repro.io.checkpoint import (
    STAGE_DETAILED,
    STAGE_GLOBAL,
    build_checkpoint,
    checkpoint_routes,
    global_routes_from_data,
    load_checkpoint,
    save_checkpoint,
    stage_reached,
)


class FlowResult:
    """All artefacts of one flow run."""

    def __init__(self, chip: Chip) -> None:
        self.chip = chip
        #: The engine session that owns the routing state; survives the
        #: flow and accepts ECO changes afterwards.
        self.session = None
        self.space: Optional[RoutingSpace] = None
        self.global_result: Optional[GlobalRoutingResult] = None
        self.detailed_result: Optional[DetailedRoutingResult] = None
        self.cleanup_report: Optional[CleanupReport] = None
        self.metrics: Optional[FlowMetrics] = None
        self.failure_report: FlowFailureReport = FlowFailureReport()
        self.runtime_total = 0.0
        self.runtime_router = 0.0  # routing without cleanup ("BR" column)


class BonnRouteFlow:
    """BonnRoute global + detailed routing followed by DRC cleanup.

    The routing settings (``gr_phases``, ``seed``, ``workers``,
    ``region_timeout_s``) live on the engine session the flow routes
    into; every stage reads them from :attr:`session`.  The flow's own
    arguments of those names only configure the session it builds when
    it is given none, and are ignored when ``session`` is passed.  The
    remaining knobs are constants: the global tile size is the
    :class:`~repro.groute.graph.GlobalRoutingGraph` default, the corridor
    margin is :data:`repro.engine.session.CORRIDOR_MARGIN_TILES`, and the
    partition schedule is :attr:`DetailedRouter.partition_threads`.
    """

    def __init__(
        self,
        chip: Chip,
        gr_phases: int = 30,
        seed: Optional[int] = None,
        cleanup: bool = True,
        preroute_local_nets: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        net_timeout_s: Optional[float] = None,
        stage_budget_s: Optional[float] = None,
        checkpoint_path: Optional[str] = None,
        resume: bool = False,
        session=None,
        workers: int = 1,
        region_timeout_s: Optional[float] = None,
    ) -> None:
        self.chip = chip
        if session is None:
            from repro.engine.session import RoutingSession

            session = RoutingSession(
                chip,
                gr_phases=gr_phases,
                seed=seed,
                workers=workers,
                region_timeout_s=region_timeout_s,
            )
        #: The engine session this flow writes into and reads its
        #: routing settings from; it survives the flow and accepts ECO
        #: changes afterwards.
        self.session = session
        self.cleanup = cleanup
        self.preroute_local_nets = preroute_local_nets
        self.fault_injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        self.net_timeout_s = net_timeout_s
        self.stage_budget_s = stage_budget_s
        self.checkpoint_path = checkpoint_path
        self.resume = resume

    # ------------------------------------------------------------------
    # Checkpoint helpers
    # ------------------------------------------------------------------
    def _load_resume_checkpoint(self) -> Optional[Dict[str, object]]:
        if not self.resume or self.checkpoint_path is None:
            return None
        return load_checkpoint(
            self.checkpoint_path,
            chip_name=self.chip.name,
            seed=self.session.seed,
        )

    def _replay_routes(
        self, space: RoutingSpace, checkpoint: Dict[str, object]
    ) -> None:
        """Re-commit the checkpointed wiring into a fresh routing space.

        ``off_track=True`` marks every touched fast-grid region dirty, so
        usability is re-derived from the shape grid on first use — the
        replayed space behaves identically to the one the original run
        had in memory.
        """
        for route in checkpoint_routes(checkpoint).values():
            for stick, level, type_name in route.wire_items():
                space.add_wire(
                    route.net_name, type_name, stick, level, off_track=True
                )
            for via, level, type_name in route.via_items():
                space.add_via(
                    route.net_name, type_name, via, level, off_track=True
                )

    def _save_checkpoint(
        self,
        stage: str,
        space: RoutingSpace,
        tile_size: int,
        global_routes,
        local_nets: Sequence[str],
        prerouted: Sequence[str],
        detailed: Optional[Dict[str, object]] = None,
        detailed_partial: Optional[Dict[str, object]] = None,
        wiring: Optional[Dict[str, NetRoute]] = None,
    ) -> None:
        """``wiring`` overrides the dumped routes (default: all of
        ``space.routes``); round-granular checkpoints use it to drop
        unresolved nets' reserved access paths, which the resumed run
        re-plans itself."""
        if self.checkpoint_path is None:
            return
        checkpoint = build_checkpoint(
            stage,
            self.chip.name,
            self.session.seed,
            tile_size,
            space.routes if wiring is None else wiring,
            global_routes,
            sorted(local_nets),
            sorted(prerouted),
            detailed=detailed,
            session=self.session.session_state(),
            detailed_partial=detailed_partial,
        )
        save_checkpoint(self.checkpoint_path, checkpoint)

    @staticmethod
    def _detailed_summary_data(
        detailed_result: DetailedRoutingResult,
    ) -> Dict[str, object]:
        return {
            "routed": sorted(detailed_result.routed),
            "failed": sorted(detailed_result.failed),
            "open_connections": detailed_result.open_connections,
            "retries": detailed_result.retries,
            "escalations": detailed_result.escalations,
            "recovered": dict(detailed_result.recovered),
            "failures": [
                failure.as_dict()
                for failure in detailed_result.failures.values()
            ],
        }

    @staticmethod
    def _fold_partial(
        into: DetailedRoutingResult, partial: DetailedRoutingResult
    ) -> None:
        """Fold a resumed mid-detailed partial result into ``into``.

        The partial's nets were excluded from the resumed run, so the
        current run's records always win on overlap (a net can only
        overlap when the partial had it failed and a later phase pulled
        it back in).
        """
        into.routed |= partial.routed
        into.failed |= partial.failed - into.routed
        for name, failure in partial.failures.items():
            if name not in into.routed:
                into.failures.setdefault(name, failure)
        into.open_connections += partial.open_connections
        into.retries += partial.retries
        into.escalations += partial.escalations
        for name, rung in partial.recovered.items():
            into.recovered.setdefault(name, rung)

    def _detailed_result_from_data(
        self, data: Dict[str, object]
    ) -> DetailedRoutingResult:
        result = DetailedRoutingResult(self.chip)
        result.routed = set(data.get("routed", ()))
        result.failed = set(data.get("failed", ()))
        result.open_connections = int(data.get("open_connections", 0))
        result.retries = int(data.get("retries", 0))
        result.escalations = int(data.get("escalations", 0))
        result.recovered = dict(data.get("recovered", {}))
        for record in data.get("failures", ()):
            failure = NetFailure.from_dict(record)
            result.failures[failure.net_name] = failure
        return result

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def _preroute(
        self, space: RoutingSpace, report: FlowFailureReport
    ) -> Tuple[Set[str], List]:
        """Preroute single-tile nets (Sec. 2.5); returns (names, obstacles)."""
        prerouted: Set[str] = set()
        extra_obstacles: List = []
        if not self.preroute_local_nets:
            return prerouted, extra_obstacles
        session = self.session
        probe = session.graph
        local_nets = [net for net in self.chip.nets if probe.is_local_net(net)]
        if not local_nets:
            return prerouted, extra_obstacles
        corridors = {
            net.name: session.local_corridor(net) for net in local_nets
        }
        pre_router = DetailedRouter(
            space,
            corridors=corridors,
            fault_injector=self.fault_injector,
            net_deadline_s=self.net_timeout_s,
        )
        pre_result = pre_router.run(local_nets)
        # Unrouted local nets re-enter the main detailed stage, so only
        # retries/escalations/recoveries are folded in here.
        report.absorb_detailed(pre_result, include_failures=False)
        prerouted = set(pre_result.routed)
        session.set_prerouted(sorted(prerouted))
        for name in prerouted:
            route = space.routes.get(name)
            if route is None:
                continue
            for stick, _lvl, type_name in route.wire_items():
                wire_type = self.chip.wire_type(type_name)
                shape, _c, _k = wire_type.wire_shape(stick, self.chip.stack)
                extra_obstacles.append((stick.layer, shape))
        return prerouted, extra_obstacles

    def _run_global(
        self,
        extra_obstacles: List,
        report: FlowFailureReport,
    ) -> GlobalRoutingResult:
        """Global routing behind a stage isolation boundary.

        A fault that escapes the per-net isolation inside the solver
        degrades the stage: detailed routing proceeds without corridors
        (every net may route anywhere), which is slower but correct.
        """
        deadline = (
            Deadline(self.stage_budget_s)
            if self.stage_budget_s is not None
            else None
        )
        try:
            global_router = GlobalRouter(
                self.chip,
                phases=self.session.gr_phases,
                seed=self.session.seed,
                extra_obstacles=extra_obstacles or None,
                fault_injector=self.fault_injector,
                session=self.session,
            )
            global_result = global_router.run(deadline=deadline)
        except Exception as error:  # noqa: BLE001 - stage isolation
            report.degraded_stages[STAGE_GLOBAL] = (
                f"global routing failed ({type(error).__name__}: {error}); "
                "detailed routing runs without corridors"
            )
            if OBS.enabled:
                OBS.event(
                    "resilience.stage_degraded",
                    stage=STAGE_GLOBAL,
                    error=f"{type(error).__name__}: {error}",
                )
            graph = GlobalRoutingGraph(self.chip)
            fallback = GlobalRoutingResult(self.chip, graph)
            for net in self.chip.nets:
                if graph.is_local_net(net):
                    fallback.local_nets.add(net.name)
            self.session.ingest_global(fallback)
            return fallback
        fractional = global_result.fractional
        if fractional is not None:
            report.global_faults += fractional.oracle_faults
            if fractional.deadline_hit:
                report.degraded_stages[STAGE_GLOBAL] = (
                    f"stage budget cut resource sharing short after "
                    f"{fractional.phases_run} phases"
                )
        if global_result.rounding_stats is not None:
            report.global_faults += global_result.rounding_stats.rounding_faults
        return global_result

    def _detailed_router(self, space: RoutingSpace, session) -> DetailedRouter:
        """Build the main-stage detailed router (overridable test seam;
        runs between the global-stage checkpoint and detailed routing)."""
        return DetailedRouter(
            space,
            fault_injector=self.fault_injector,
            net_deadline_s=self.net_timeout_s,
            stage_budget_s=self.stage_budget_s,
            session=session,
            workers=session.workers,
            region_timeout_s=session.region_timeout_s,
        )

    # ------------------------------------------------------------------
    # Main entry
    # ------------------------------------------------------------------
    def run(self) -> FlowResult:
        """Run the full flow; see :meth:`_run_impl` for the stages.

        The wrapper exists so the ``flow.run`` span covers the whole run
        and its total still lands in ``result.metrics.obs``.  An
        unhandled exception escaping the flow carries the flight
        recorder's last moments on its ``flight_recorder`` attribute for
        post-mortems.
        """
        try:
            with OBS.trace(
                "flow.run", chip=self.chip.name, nets=len(self.chip.nets)
            ):
                result = self._run_impl()
        except BaseException as error:
            OBS.flight_note(
                "flow.exception", error=f"{type(error).__name__}: {error}"
            )
            try:
                error.flight_recorder = OBS.flight.dump()
            except Exception:  # noqa: BLE001 - attribute-hostile exceptions
                pass
            raise
        if OBS.enabled and result.metrics is not None:
            result.metrics.obs = OBS.summary()
        return result

    def _run_impl(self) -> FlowResult:
        start = time.time()
        sampler = ResourceSampler()
        result = FlowResult(self.chip)
        report = result.failure_report
        session = self.session
        result.session = session
        space = session.space
        result.space = space

        checkpoint = self._load_resume_checkpoint()
        detailed_result: Optional[DetailedRoutingResult] = None
        if checkpoint is not None:
            # Resume: re-commit the checkpointed wiring and rebuild the
            # global routing state instead of recomputing it.
            report.resumed_from = str(checkpoint.get("stage"))
            self._replay_routes(space, checkpoint)
            tile_size = int(checkpoint["tile_size"])
            graph = GlobalRoutingGraph(self.chip, tile_size)
            global_data = checkpoint.get("global", {})
            global_result = GlobalRoutingResult(self.chip, graph)
            global_result.routes = global_routes_from_data(
                global_data.get("routes", {})
            )
            global_result.local_nets = set(global_data.get("local_nets", ()))
            prerouted = set(global_data.get("prerouted", ()))
            result.global_result = global_result
            # Rebuild the session's corridors/records from the restored
            # global result, then overlay the checkpointed scalar state
            # (statuses, prerouted flags, dirty set).
            session.ingest_global(global_result)
            session.restore_state(checkpoint.get("session") or {})
            session.set_prerouted(sorted(prerouted))
            if stage_reached(checkpoint, STAGE_DETAILED):
                detailed_result = self._detailed_result_from_data(
                    checkpoint.get("detailed") or {}
                )
        else:
            OBS.flight_note("flow.stage", stage="preroute")
            with OBS.trace("flow.preroute"):
                prerouted, extra_obstacles = self._preroute(space, report)
            if OBS.enabled:
                sampler.sample()
            OBS.flight_note("flow.stage", stage="global")
            with OBS.trace("flow.global"):
                global_result = self._run_global(extra_obstacles, report)
            if OBS.enabled:
                sampler.sample()
            result.global_result = global_result
            self._save_checkpoint(
                STAGE_GLOBAL,
                space,
                global_result.graph.tile_size,
                global_result.routes,
                global_result.local_nets,
                prerouted,
            )

        if detailed_result is None:
            # A round-granular partial (written after each partition
            # round) lets the resume skip nets already resolved before
            # the kill; their wiring was re-committed by _replay_routes
            # above.
            partial_result: Optional[DetailedRoutingResult] = None
            if checkpoint is not None and checkpoint.get("detailed_partial"):
                partial_data = checkpoint["detailed_partial"]
                partial_result = self._detailed_result_from_data(
                    partial_data.get("summary") or {}
                )
                report.resumed_from = (
                    f"{STAGE_GLOBAL}+round{int(partial_data.get('rounds_done', 0))}"
                )
            resolved = (
                partial_result.routed | partial_result.failed
                if partial_result is not None
                else set()
            )
            remaining = [
                net
                for net in self.chip.nets
                if net.name not in prerouted and net.name not in resolved
            ]
            detailed = self._detailed_router(space, session)
            if self.checkpoint_path is not None:

                def _round_checkpoint(round_index, running_result):
                    snapshot = self._detailed_result_from_data(
                        self._detailed_summary_data(running_result)
                    )
                    if partial_result is not None:
                        self._fold_partial(snapshot, partial_result)
                    # Unresolved nets only hold reserved pin-access
                    # wiring at this point; the resumed run re-plans and
                    # re-reserves those itself, so dumping them would
                    # duplicate that wiring on replay.
                    unresolved = {
                        net.name for net in self.chip.nets
                    } - snapshot.routed - snapshot.failed - set(prerouted)
                    self._save_checkpoint(
                        STAGE_GLOBAL,
                        space,
                        global_result.graph.tile_size,
                        global_result.routes,
                        global_result.local_nets,
                        prerouted,
                        detailed_partial={
                            "rounds_done": round_index + 1,
                            "summary": self._detailed_summary_data(snapshot),
                        },
                        wiring={
                            name: route
                            for name, route in space.routes.items()
                            if name not in unresolved
                        },
                    )

                detailed.round_checkpoint = _round_checkpoint
            OBS.flight_note("flow.stage", stage="detailed")
            with OBS.trace("flow.detailed", nets=len(remaining)):
                detailed_result = detailed.run(remaining)
            if OBS.enabled:
                sampler.sample()
            if partial_result is not None:
                self._fold_partial(detailed_result, partial_result)
            session.ingest_detailed(detailed_result)
            self._save_checkpoint(
                STAGE_DETAILED,
                space,
                global_result.graph.tile_size,
                global_result.routes,
                global_result.local_nets,
                prerouted,
                detailed=self._detailed_summary_data(detailed_result),
            )
        else:
            session.ingest_detailed(detailed_result)
        # Fold the prerouted nets into the reported coverage.
        detailed_result.routed |= prerouted
        detailed_result.wire_length = space.total_wire_length()
        detailed_result.via_count = space.total_via_count()
        result.detailed_result = detailed_result
        result.runtime_router = time.time() - start

        # Aggregate the failure report.
        report.absorb_detailed(detailed_result)
        if detailed_result.stage_budget_exhausted:
            report.degraded_stages[STAGE_DETAILED] = (
                "stage budget expired with nets still queued"
            )
            if OBS.enabled:
                OBS.event(
                    "resilience.stage_degraded",
                    stage=STAGE_DETAILED,
                    error="stage budget expired with nets still queued",
                )

        if self.cleanup:
            cleaner = DrcCleanup(space)
            OBS.flight_note("flow.stage", stage="cleanup")
            with OBS.trace("flow.cleanup"):
                result.cleanup_report = cleaner.run()
            if OBS.enabled:
                sampler.sample()
        result.runtime_total = time.time() - start
        drc = (
            result.cleanup_report.final_report
            if result.cleanup_report is not None
            else None
        )
        if (
            report.net_failures
            or report.degraded_stages
            or report.pool_events
            or report.global_faults
        ):
            # Something went wrong somewhere: preserve the recorder's
            # last moments in the report for post-mortems.
            report.flight_recorder = OBS.flight.dump()
        result.metrics = collect_metrics(
            space,
            runtime_total=result.runtime_total,
            runtime_bonnroute=result.runtime_router,
            drc_report=drc,
            failure_report=report,
        )
        return result
