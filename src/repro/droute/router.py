"""Detailed router facade.

Orchestrates the full detailed-routing flow of the paper:

1. pin access preprocessing: per-circuit conflict-free access paths are
   computed and reserved (Sec. 4.3);
2. critical nets (weight > 1) route first (Sec. 5.1);
3. remaining nets route in partition rounds (Sec. 5.1), each restricted
   to its global-routing corridor when one is given (Sec. 4.4);
4. failed nets climb the escalation ladder: growing ripup effort and
   expanded routing areas (the paper's retry discipline), then forced
   off-track access, then the ISR-baseline node search as a fallback
   engine; retries and nets ripped out by others are deferred to one
   drain after the last round.

The schedule is the same at every worker count; with ``workers > 1`` a
multi-region round's first attempts run on a crash-tolerant process
pool (:mod:`repro.droute.pool`).

A net that exhausts the ladder is recorded as a structured
:class:`~repro.flow.resilience.NetFailure` instead of raising, so one
pathological net cannot abort the whole chip.  Per-net soft deadlines
and a hard per-stage wall-clock budget bound how long any of this may
take.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.chip.design import Chip
from repro.chip.net import Net
from repro.droute.area import RoutingArea
from repro.droute.connect import ConnectionStats, NetConnector
from repro.droute.future_cost import SearchCosts
from repro.droute.partition import assign_nets_to_rounds, partition_sequence
from repro.droute.pinaccess import PinAccessPlanner
from repro.droute.route import ViaInstance
from repro.droute.space import RoutingSpace
from repro.tech.wiring import StickFigure
from repro.flow.resilience import (
    Deadline,
    EscalationRung,
    NetFailure,
    REASON_EXCEPTION,
    REASON_STAGE_BUDGET,
    REASON_TIMEOUT,
    REASON_UNROUTABLE,
    escalation_ladder,
)
from repro.obs import OBS

#: Stage label used in :class:`NetFailure` records from this router.
STAGE_NAME = "detailed"


class DetailedRoutingResult:
    """Outcome and metrics of a detailed-routing run."""

    def __init__(self, chip: Chip) -> None:
        self.chip = chip
        self.routed: Set[str] = set()
        self.failed: Set[str] = set()
        self.open_connections = 0
        self.wire_length = 0
        self.via_count = 0
        self.runtime = 0.0
        self.stats = ConnectionStats()
        self.ripup_events = 0
        #: net name -> structured failure record for every failed net.
        self.failures: Dict[str, NetFailure] = {}
        #: Nets that failed at least one attempt but eventually routed,
        #: mapped to the ladder rung that succeeded.
        self.recovered: Dict[str, str] = {}
        #: Total retry attempts (queue re-entries past the first try).
        self.retries = 0
        #: Attempts run on a rung beyond the baseline retry discipline.
        self.escalations = 0
        #: Set when the hard stage budget expired with nets still queued.
        self.stage_budget_exhausted = False
        #: Worker-pool incidents (crashes, timeouts, degradations) when
        #: the run executed with ``workers > 1``; plain dicts, folded
        #: into :class:`~repro.flow.resilience.FlowFailureReport`.
        self.pool_events: List[Dict[str, object]] = []
        #: Set when the worker pool degraded to in-process serial
        #: execution for the remainder of the run.
        self.pool_degraded = False

    @property
    def opens(self) -> int:
        """Connected components minus nets (the error metric of Table I)."""
        return self.open_connections

    def summary(self) -> Dict[str, float]:
        return {
            "nets": len(self.chip.nets),
            "routed": len(self.routed),
            "failed": len(self.failed),
            "opens": self.open_connections,
            "wire_length": self.wire_length,
            "vias": self.via_count,
            "runtime": self.runtime,
            "searches": self.stats.searches,
            "ripup_events": self.ripup_events,
            "retries": self.retries,
            "escalations": self.escalations,
            "recovered": len(self.recovered),
            "stage_budget_exhausted": self.stage_budget_exhausted,
            "pool_events": len(self.pool_events),
            "pool_degraded": self.pool_degraded,
        }


class _RunState:
    """Cross-queue bookkeeping of one detailed-routing run.

    The retry ladder is driven by several queue drains (critical nets,
    each round or post-merge redo queue, the final deferred drain);
    attempt counts, rung histories and the ripped-net log must survive
    across them so the ping-pong guard and failure records see the
    whole run.
    """

    __slots__ = (
        "nets_by_name",
        "attempt_counts",
        "rungs_tried",
        "last_error",
        "ripped_names",
    )

    def __init__(self, nets: Sequence[Net]) -> None:
        self.nets_by_name: Dict[str, Net] = {net.name: net for net in nets}
        self.attempt_counts: Dict[str, int] = {}
        #: Ladder rungs attempted and last error text, per net.
        self.rungs_tried: Dict[str, List[str]] = {}
        self.last_error: Dict[str, Optional[str]] = {}
        #: Nets whose previous wiring was ripped out at least once.
        self.ripped_names: Set[str] = set()

    def merge_worker(self, attempts: Dict[str, int]) -> None:
        """Fold a worker's attempt counts in (workers start fresh, so
        the larger count is the true total for each net)."""
        for name, count in attempts.items():
            if count > self.attempt_counts.get(name, 0):
                self.attempt_counts[name] = count


class DetailedRouter:
    """Track-based detailed router (Sec. 4).

    Per-run settings come from the arguments; with a ``session`` the
    corridors, detour factors, pin-access planner and reserved access
    paths come from the session's records, and the flow passes the
    session's ``workers`` and ``region_timeout_s``.  The partition
    schedule and the retry depth are the class constants
    :attr:`partition_threads` and :attr:`max_retry_rounds`.
    """

    #: Region count of the first partition round (Sec. 5.1); each later
    #: round halves it.  It fixes the partition *structure*, so the net
    #: order — and therefore the routing result — is independent of the
    #: worker count.
    partition_threads = 4
    #: Corridor-expansion retries before a net may route anywhere (the
    #: baseline rungs of :func:`~repro.flow.resilience.escalation_ladder`).
    max_retry_rounds = 2

    def __init__(
        self,
        space: RoutingSpace,
        corridors: Optional[Dict[str, RoutingArea]] = None,
        costs: Optional[SearchCosts] = None,
        use_interval_search: bool = True,
        enable_pin_access: bool = True,
        spreading=None,
        fault_injector=None,
        net_deadline_s: Optional[float] = None,
        stage_budget_s: Optional[float] = None,
        session=None,
        workers: int = 1,
        region_timeout_s: Optional[float] = None,
    ) -> None:
        self.space = space
        self.chip = space.chip
        #: Number of real worker processes for the partition rounds
        #: (Sec. 5.1); 1 runs every round in-process.
        self.workers = max(1, int(workers))
        #: Per-region wall-clock deadline the pool supervisor enforces on
        #: workers (None: no deadline; hung workers are then only bounded
        #: by the stage budget).
        self.region_timeout_s = region_timeout_s
        #: Optional callable ``(round_index, result) -> None`` invoked
        #: after each completed partition round; the flow uses it for
        #: round-granular checkpoints.
        self.round_checkpoint = None
        #: Optional :class:`repro.engine.session.RoutingSession`.  When
        #: set, corridors/detours come from the session records, the pin
        #: access planner and reserved access paths persist on the
        #: session across reroutes, and nets ripped up during an ECO pass
        #: are pulled back in from the chip even when outside the given
        #: net subset.
        self.session = session
        if session is not None and corridors is None:
            corridors = session.corridor_map()
        #: Per-net routing areas from global routing (Sec. 4.4); nets
        #: without an entry route in the whole chip.
        self.corridors = corridors if corridors is not None else {}
        #: Per-net detour factors of the global routes (Sec. 4.1).
        self.corridor_detours: Dict[str, float] = (
            session.detour_map() if session is not None else {}
        )
        self.costs = costs if costs is not None else SearchCosts()
        self.use_interval_search = use_interval_search
        self.enable_pin_access = enable_pin_access
        self.fault_injector = fault_injector
        self.net_deadline_s = net_deadline_s
        self.stage_budget_s = stage_budget_s
        self.ladder: List[EscalationRung] = escalation_ladder(
            self.max_retry_rounds
        )
        if session is not None and session.planner is not None:
            self.planner = session.planner
        else:
            self.planner = PinAccessPlanner(space, fault_injector=fault_injector)
            if session is not None:
                session.planner = self.planner
        access_paths = session.access_paths if session is not None else {}
        self.connector = NetConnector(
            space,
            costs=self.costs,
            access_paths=access_paths,
            planner=self.planner,
            use_interval_search=use_interval_search,
            spreading=spreading,
            fault_injector=fault_injector,
        )
        #: Lazily built node-search connector for the isr_fallback rung.
        #: It shares the access paths and planner with the primary
        #: connector but carries no fault injector and keeps the classic
        #: pi_H / pi_P future cost: it is the independent engine that
        #: survives faults in the interval machinery *and* in pi_GR.
        self._fallback: Optional[NetConnector] = None

    def _fallback_connector(self) -> NetConnector:
        if self._fallback is None:
            self._fallback = NetConnector(
                self.space,
                costs=self.costs,
                access_paths=self.connector.access_paths,
                planner=self.planner,
                use_interval_search=False,
            )
            self._fallback.corridor_future_cost = False
        return self._fallback

    # ------------------------------------------------------------------
    # Pin access preprocessing (Sec. 4.3)
    # ------------------------------------------------------------------
    def preprocess_pin_access(self, nets: Sequence[Net]) -> None:
        by_circuit: Dict[int, List] = {}
        for net in nets:
            for pin in net.pins:
                if pin.circuit_id is None:
                    continue
                if pin.name in self.connector.access_paths:
                    # Already reserved (a session reroute reuses the
                    # previous run's catalogue); reserving again would
                    # double-insert the path's shapes.
                    continue
                by_circuit.setdefault(pin.circuit_id, []).append(pin)
        placed = {c.instance_id for c in self.chip.circuits}
        for circuit_id, pins in sorted(by_circuit.items()):
            if circuit_id not in placed:
                continue
            try:
                catalogues = self.planner.circuit_catalogues(pins)
                solution = self.planner.conflict_free_solution(catalogues)
            except Exception:  # noqa: BLE001 - isolation boundary
                # A fault while preprocessing one circuit costs only its
                # reserved access paths; the connector generates dynamic
                # access for those pins during routing instead.
                continue
            if solution is None:
                continue
            for pin_name, path in solution.items():
                self.planner.reserve(path)
                self.connector.access_paths[pin_name] = path

    def _area_for(
        self, net: Net, expansion: Optional[int] = 0
    ) -> Tuple[RoutingArea, float]:
        area = self.corridors.get(net.name)
        if area is None:
            return RoutingArea.everywhere(), 1.0
        detour = self.corridor_detours.get(net.name, 1.0)
        if expansion is None or expansion >= self.max_retry_rounds:
            # Last chance: drop the corridor entirely (Sec. 4.4, "extended
            # routing area").
            return RoutingArea.everywhere(), detour
        if expansion > 0:
            pitch = self.chip.stack[self.chip.stack.bottom].pitch
            area = area.expanded(expansion * 8 * pitch)
        return area, detour

    def _rung_for(self, attempt: int) -> EscalationRung:
        return self.ladder[min(attempt, len(self.ladder) - 1)]

    def _attempt_deadline(
        self, stage_deadline: Optional[Deadline]
    ) -> Optional[Deadline]:
        net_deadline = (
            Deadline(self.net_deadline_s) if self.net_deadline_s is not None else None
        )
        return Deadline.soonest(net_deadline, stage_deadline)

    def _attempt(
        self,
        net: Net,
        attempt: int,
        rung: EscalationRung,
        stage_deadline: Optional[Deadline],
    ):
        """One ``connect_net`` try of ``net`` on ``rung``.

        Returns ``(connection_or_None, error_text_or_None)`` and commits
        wiring into ``self.space`` on success.  The in-process queue and
        the pool's workers both route through here.
        """
        area, detour = self._area_for(net, expansion=rung.corridor_expansion)
        connector = (
            self._fallback_connector() if rung.engine == "isr" else self.connector
        )
        deadline = self._attempt_deadline(stage_deadline)
        try:
            with OBS.trace(
                "droute.net", net=net.name, attempt=attempt, rung=rung.name
            ):
                connection = connector.connect_net(
                    net,
                    area,
                    max_ripup_level=rung.ripup_level,
                    corridor_detour=detour,
                    deadline=deadline,
                    force_off_track_access=rung.force_off_track_access,
                )
        except Exception as error:  # noqa: BLE001 - isolation boundary
            # Per-net isolation: an injected or genuine fault in the
            # search machinery costs one attempt, not the chip.
            return None, f"{type(error).__name__}: {error}"
        return connection, None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, nets: Optional[Sequence[Net]] = None) -> DetailedRoutingResult:
        """Route ``nets`` (default: all) on the Sec. 5.1 schedule.

        The schedule is the same at every worker count.  Critical nets
        route first, then each partition round's nets in
        (region, half-perimeter) order, then one drain of everything
        deferred: retries, escalations and re-queued ripped nets, in the
        order they were appended.  A round goes to the worker pool when
        it has more than one region and the pool is up; workers run the
        round's first attempts only (the baseline rung forbids ripup, so
        a first attempt never disturbs another region's wiring), and the
        merge replays them in region order.  Pooled output is therefore
        bit-identical to in-process output whenever the safety margins
        keep the regions independent; the merge redoes the rare
        violations in-process.
        """
        start = time.time()
        if nets is None:
            nets = self.chip.nets
        result = DetailedRoutingResult(self.chip)
        stage_deadline = (
            Deadline(self.stage_budget_s) if self.stage_budget_s is not None else None
        )
        if self.enable_pin_access:
            with OBS.trace("droute.pin_access", nets=len(nets)):
                self.preprocess_pin_access(nets)
        state = _RunState(nets)
        supervisor = self._pool_supervisor(result)
        critical = sorted(
            (n for n in nets if n.weight > 1.0),
            key=lambda n: (-n.weight, n.half_perimeter()),
        )
        ordinary = [n for n in nets if n.weight <= 1.0]
        sequence = partition_sequence(self.chip, self.partition_threads)
        rounds = assign_nets_to_rounds(self.chip, sequence, ordinary)
        deferred: List[Tuple[Net, int]] = []
        self._route_queue(
            [(net, 0) for net in critical], result, state, stage_deadline, deferred
        )
        for round_index, round_nets in enumerate(rounds):
            ordered = sorted(
                round_nets, key=lambda item: (item[0], item[1].half_perimeter())
            )
            by_region: Dict[int, List[Net]] = {}
            for region, net in ordered:
                by_region.setdefault(region, []).append(net)
            budget_left = stage_deadline is None or not stage_deadline.expired
            if (
                supervisor is not None
                and not supervisor.degraded
                and len(by_region) > 1
                and budget_left
            ):
                round_start = time.time()
                with OBS.trace(
                    "pool.round",
                    round=round_index,
                    regions=len(by_region),
                    nets=len(ordered),
                ):
                    outcomes = supervisor.run_round(
                        round_index, by_region, stage_deadline
                    )
                if OBS.enabled:
                    OBS.count("pool.rounds_parallel")
                    OBS.observe("pool.round_wall_s", time.time() - round_start)
                self._merge_outcomes(
                    by_region, outcomes, result, state, stage_deadline, deferred
                )
            elif ordered:
                if OBS.enabled:
                    OBS.count("pool.rounds_serial")
                self._route_queue(
                    [(net, 0) for _region, net in ordered],
                    result, state, stage_deadline, deferred,
                )
            if self.round_checkpoint is not None:
                self.round_checkpoint(round_index, result)
        self._route_queue(deferred, result, state, stage_deadline, deferred)
        result.wire_length = self.space.total_wire_length()
        result.via_count = self.space.total_via_count()
        result.runtime = time.time() - start
        return result

    def _record_failure(
        self,
        result: DetailedRoutingResult,
        state: _RunState,
        net: Net,
        reason: str,
        open_connections: int = 0,
    ) -> None:
        result.failed.add(net.name)
        result.routed.discard(net.name)
        result.failures[net.name] = NetFailure(
            net.name,
            STAGE_NAME,
            reason,
            attempts=state.attempt_counts.get(net.name, 0),
            rungs_tried=state.rungs_tried.get(net.name, []),
            error=state.last_error.get(net.name),
            open_connections=open_connections,
        )
        OBS.flight_note(
            "resilience.net_failure",
            net=net.name,
            reason=reason,
            attempts=state.attempt_counts.get(net.name, 0),
        )
        if OBS.enabled:
            OBS.count("droute.nets_failed")
            OBS.event(
                "resilience.net_failure",
                net=net.name,
                reason=reason,
                attempts=state.attempt_counts.get(net.name, 0),
                opens=open_connections,
            )

    def _route_queue(
        self,
        queue: List[Tuple[Net, int]],
        result: DetailedRoutingResult,
        state: _RunState,
        stage_deadline: Optional[Deadline],
        deferred: List[Tuple[Net, int]],
    ) -> None:
        """Drain ``queue`` through the escalation ladder.

        Retries and re-queued ripped nets append to ``deferred``, the
        run's one list of later attempts; the final drain passes that
        list as both ``queue`` and ``deferred``.
        """
        while queue:
            if stage_deadline is not None and stage_deadline.expired:
                # Hard budget: everything still queued becomes a
                # structured open instead of silently vanishing.
                result.stage_budget_exhausted = True
                for net, _attempt in queue:
                    if net.name in result.routed or net.name in result.failed:
                        continue
                    self._record_failure(
                        result, state, net, REASON_STAGE_BUDGET, open_connections=1
                    )
                    result.open_connections += 1
                break
            net, attempt = queue.pop(0)
            state.attempt_counts[net.name] = (
                state.attempt_counts.get(net.name, 0) + 1
            )
            if state.attempt_counts[net.name] > len(self.ladder) + 2:
                # Ripup ping-pong guard: a net bounced around this often
                # is declared open rather than looping forever.
                self._record_failure(
                    result, state, net, REASON_UNROUTABLE, open_connections=1
                )
                result.open_connections += 1
                continue
            if attempt > 0:
                result.retries += 1
            rung = self._rung_for(attempt)
            escalated = attempt >= len(self.ladder) - 2 and rung.name != "baseline"
            if escalated:
                result.escalations += 1
            if OBS.enabled:
                if attempt > 0:
                    OBS.count("droute.retries")
                    OBS.event(
                        "resilience.retry",
                        net=net.name, attempt=attempt, rung=rung.name,
                    )
                if escalated:
                    OBS.count("droute.escalations")
                    OBS.event(
                        "resilience.escalation", net=net.name, rung=rung.name
                    )
            state.rungs_tried.setdefault(net.name, [])
            if (
                not state.rungs_tried[net.name]
                or state.rungs_tried[net.name][-1] != rung.name
            ):
                state.rungs_tried[net.name].append(rung.name)
            connection, error = self._attempt(net, attempt, rung, stage_deadline)
            failure_reason: Optional[str] = None
            if error is not None:
                state.last_error[net.name] = error
                failure_reason = REASON_EXCEPTION
            if connection is not None:
                result.stats.merge(connection.stats)
                if connection.ripped_nets:
                    result.ripup_events += len(connection.ripped_nets)
                    if OBS.enabled:
                        OBS.count(
                            "droute.ripup_events", len(connection.ripped_nets)
                        )
                    for ripped_name in sorted(connection.ripped_nets):
                        ripped_net = state.nets_by_name.get(ripped_name)
                        if ripped_net is None and self.session is not None:
                            # ECO pass: a clean net outside the dirty
                            # subset was ripped; pull it into this run so
                            # its wiring is restored, and record the
                            # propagation.
                            ripped_net = self.session.net_or_none(ripped_name)
                            if ripped_net is not None:
                                state.nets_by_name[ripped_name] = ripped_net
                                self.session.mark_ripup_propagated(ripped_name)
                        if ripped_net is None:
                            continue
                        state.ripped_names.add(ripped_name)
                        result.routed.discard(ripped_name)
                        deferred.append(
                            (ripped_net, state.attempt_counts.get(ripped_name, 0))
                        )
                if connection.deadline_expired:
                    state.last_error[net.name] = "soft deadline expired mid-search"
                    failure_reason = REASON_TIMEOUT
                elif connection.success:
                    result.routed.add(net.name)
                    result.failed.discard(net.name)
                    result.failures.pop(net.name, None)
                    if OBS.enabled:
                        OBS.count("droute.nets_routed")
                    if attempt > 0:
                        result.recovered[net.name] = rung.name
                        if OBS.enabled:
                            OBS.event(
                                "resilience.recovery",
                                net=net.name, rung=rung.name,
                            )
                    continue
                else:
                    failure_reason = REASON_UNROUTABLE
            next_attempt = attempt + 1
            if next_attempt < len(self.ladder):
                deferred.append((net, next_attempt))
            else:
                opens = (
                    connection.open_connections
                    if connection is not None and connection.open_connections
                    else 1
                )
                self._record_failure(
                    result, state, net, failure_reason or REASON_UNROUTABLE, opens
                )
                result.open_connections += opens

    # ------------------------------------------------------------------
    # Worker pool (Sec. 5.1 with real worker processes)
    # ------------------------------------------------------------------
    def _pool_supervisor(self, result: DetailedRoutingResult):
        """The run's pool, or None when every round runs in-process."""
        if self.workers == 1:
            return None
        from repro.droute import pool as pool_mod

        if not pool_mod.fork_available():
            result.pool_degraded = True
            result.pool_events.append(
                {"kind": "pool_unavailable", "detail": "fork start method unavailable"}
            )
            if OBS.enabled:
                OBS.count("pool.degraded")
                OBS.event("pool.degraded", reason="no_fork")
            return None
        return pool_mod.PoolSupervisor(
            self, result, workers=self.workers, region_timeout_s=self.region_timeout_s
        )

    def _merge_outcomes(
        self,
        by_region: Dict[int, List[Net]],
        outcomes: Dict[int, Optional[Dict[str, object]]],
        result: DetailedRoutingResult,
        state: _RunState,
        stage_deadline: Optional[Deadline],
        deferred: List[Tuple[Net, int]],
    ) -> None:
        """Fold one round's worker outcomes back into the parent state.

        Regions merge in index order (the in-process routing order).  A
        worker-routed net commits only if its wiring is still DRC-legal
        against everything merged before it; conflicts — possible only
        when the safety margins were too tight — are redone in-process
        immediately, at the net's in-process queue position.
        """
        merged = 0
        conflicts = 0
        with OBS.trace("pool.merge", regions=len(by_region)):
            for region_index in sorted(by_region):
                region_nets = by_region[region_index]
                outcome = outcomes.get(region_index)
                if outcome is None:
                    # The region's worker(s) died beyond the retry budget
                    # (or the pool degraded): route it in-process at its
                    # queue position.
                    self._route_queue(
                        [(net, 0) for net in region_nets],
                        result, state, stage_deadline, deferred,
                    )
                    continue
                result.stats.merge(outcome["stats"])
                state.merge_worker(outcome["attempts"])
                state.last_error.update(outcome["errors"])
                redo: List[Tuple[Net, int]] = []
                for name in outcome["order"]:
                    state.rungs_tried.setdefault(name, [])
                    if (
                        not state.rungs_tried[name]
                        or state.rungs_tried[name][-1] != "baseline"
                    ):
                        state.rungs_tried[name].append("baseline")
                    payload = outcome["routed"].get(name)
                    if payload is None:
                        # Failed first attempt: defer exactly like the
                        # in-process queue's `deferred.append((net, 1))`.
                        deferred.append((state.nets_by_name[name], 1))
                        continue
                    if self._replay_worker_route(name, payload):
                        merged += 1
                        result.routed.add(name)
                    else:
                        conflicts += 1
                        redo.append((state.nets_by_name[name], 0))
                        if OBS.enabled:
                            OBS.event(
                                "pool.merge_conflict",
                                net=name, region=region_index,
                            )
                if OBS.enabled:
                    # Repatriate the worker's telemetry for this region:
                    # span/event records fold into the parent's trace
                    # (and sink), metrics merge kind-appropriately —
                    # counters add, histograms merge their states,
                    # ``resource.*`` gauges keep the process-tree max.
                    OBS.adopt_records(outcome.get("obs_records") or [])
                    OBS.merge_worker_metrics(
                        counters=outcome.get("obs_counters"),
                        gauges=outcome.get("obs_gauges"),
                        histograms=outcome.get("obs_histograms"),
                    )
                if redo:
                    # The worker's route no longer fits: re-search in the
                    # parent.  Attempt counts already include the
                    # worker's try, so pre-decrement to keep the ladder
                    # arithmetic identical to a single in-process attempt.
                    for net, _attempt in redo:
                        state.attempt_counts[net.name] = max(
                            0, state.attempt_counts.get(net.name, 0) - 1
                        )
                    self._route_queue(
                        redo, result, state, stage_deadline, deferred
                    )
        if OBS.enabled:
            OBS.count("pool.nets_merged", merged)
            if conflicts:
                OBS.count("pool.merge_conflicts", conflicts)

    def _replay_worker_route(self, name: str, payload) -> bool:
        """Commit a worker's serialized route if still DRC-legal here."""
        wires, vias = payload
        for type_name, level, layer, x0, y0, x1, y1 in wires:
            stick = StickFigure(layer, x0, y0, x1, y1)
            if not self.space.check_wire(type_name, stick, name).legal:
                return False
        for type_name, level, via_layer, x, y in vias:
            via = ViaInstance(via_layer, x, y)
            if not self.space.check_via(type_name, via, name).legal:
                return False
        for type_name, level, layer, x0, y0, x1, y1 in wires:
            self.space.add_wire(
                name, type_name, StickFigure(layer, x0, y0, x1, y1),
                level, off_track=True,
            )
        for type_name, level, via_layer, x, y in vias:
            self.space.add_via(
                name, type_name, ViaInstance(via_layer, x, y),
                level, off_track=True,
            )
        return True
