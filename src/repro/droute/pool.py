"""Crash-tolerant worker pool for parallel detailed routing (Sec. 5.1).

Each :class:`~repro.droute.partition.PartitionRound` hands its regions
to real ``multiprocessing`` workers forked from the parent, so every
worker starts from the identical round-start snapshot of the
:class:`~repro.droute.space.RoutingSpace` for free (copy-on-write).
Workers run *first attempts only* — the baseline escalation rung forbids
ripup, so a first attempt never disturbs another region's wiring — and
send serialized route deltas back over a queue; the parent merges them
in region-index order (:meth:`repro.droute.router.DetailedRouter.
_merge_outcomes`), which reproduces the in-process net order bit for
bit.  The pool only executes rounds: the schedule (critical nets,
rounds, deferred drain) is the router's at every worker count.

The supervisor assumes workers can die at any instant:

* a worker that exits without its ``exit`` message is a **crash**
  (segfault, OOM kill, or an injected ``kill`` fault,
  :data:`repro.flow.faults.KILLED_EXIT_CODE`);
* a worker that blows its per-region :class:`Deadline` is **hung** and
  is killed;
* a worker that reports a region-level exception **failed** that region
  but keeps running.

Every incident charges the dead region's nets against the fault plan
(:meth:`repro.flow.faults.FaultInjector.charge` — the corpse cannot
report which transient fault killed it), re-enqueues the region on a
fresh worker, and past the retry budget degrades the region — and past
the incident budget the whole pool — to in-process serial execution.
Incidents are recorded as ``pool.*`` events/counters and as entries in
``DetailedRoutingResult.pool_events``.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
from typing import Dict, List, Optional, Sequence

from repro.droute.connect import ConnectionStats
from repro.flow.faults import SITE_WORKER
from repro.flow.resilience import Deadline
from repro.obs import OBS, MemorySink
from repro.obs.resource import ResourceSampler


def fork_available() -> bool:
    """Can this platform fork workers that inherit the parent snapshot?"""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # noqa: BLE001 - platform probing
        return False


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _serialize_route_delta(route, wires_before: int, vias_before: int):
    """Plain-tuple form of the wiring a worker added for one net."""
    wires = [
        (type_name, level, stick.layer, stick.x0, stick.y0, stick.x1, stick.y1)
        for stick, level, type_name in route.wire_items()[wires_before:]
    ]
    vias = [
        (type_name, level, via.via_layer, via.x, via.y)
        for via, level, type_name in route.via_items()[vias_before:]
    ]
    return wires, vias


def _route_region(
    router,
    net_names: Sequence[str],
    fired_base: int,
    stage_deadline: Optional[Deadline] = None,
) -> Dict[str, object]:
    """First-attempt sweep over one region's nets (inside a worker)."""
    chip = router.chip
    injector = router.fault_injector
    stats = ConnectionStats()
    routed: Dict[str, object] = {}
    errors: Dict[str, Optional[str]] = {}
    attempts: Dict[str, int] = {}
    for name in net_names:
        net = chip.net(name)
        if injector is not None:
            # May raise (region fails), stall (supervisor kills on the
            # region deadline), or exit the process (supervisor sees the
            # corpse).
            injector.check(SITE_WORKER, name)
        attempts[name] = 1
        existing = router.space.routes.get(name)
        wires_before = len(existing.wires) if existing is not None else 0
        vias_before = len(existing.vias) if existing is not None else 0
        connection, error = router._attempt(
            net, 0, router.ladder[0], stage_deadline
        )
        if error is not None:
            errors[name] = error
            continue
        stats.merge(connection.stats)
        if connection.deadline_expired:
            errors[name] = "soft deadline expired mid-search"
        elif connection.success:
            if OBS.enabled:
                OBS.count("droute.nets_routed")
            routed[name] = _serialize_route_delta(
                router.space.routes[name], wires_before, vias_before
            )
    return {
        "order": list(net_names),
        "routed": routed,
        "errors": errors,
        "attempts": attempts,
        "stats": stats,
        "faults": injector.state(fired_base) if injector is not None else None,
    }


def _worker_main(
    router, worker_id, tasks, result_queue, obs_enabled,
    stage_deadline=None, trace_ctx=None,
) -> None:
    """Entry point of a forked worker: route assigned regions, report."""
    # The forked child inherited the parent's observer *and its JSONL
    # sink file handle* — writing there would interleave corrupt lines
    # into the parent's trace.  reset() detaches the sink unclosed;
    # keep_epoch keeps the parent's clock epoch so worker span
    # timestamps land on the parent's timeline.  Records buffer in a
    # MemorySink and travel back with each region's outcome, alongside
    # per-region counter/gauge/histogram deltas.  The inherited handle
    # must also be *disowned*: the parent's buffered-but-unflushed
    # records live in the child's copy of the buffer, and interpreter
    # shutdown would flush them into the shared file a second time.
    inherited_sink = getattr(OBS, "_sink", None)
    if inherited_sink is not None and hasattr(inherited_sink, "disinherit"):
        inherited_sink.disinherit()
    OBS.reset(keep_epoch=True)
    sink = MemorySink() if obs_enabled else None
    OBS.configure(enabled=obs_enabled, sink=sink)
    OBS.set_context(
        trace_id=(trace_ctx or {}).get("trace_id"),
        process="worker",
        worker_id=worker_id,
        root_parent_id=(trace_ctx or {}).get("parent_span_id"),
    )
    sampler = ResourceSampler() if obs_enabled else None
    # Session bookkeeping (ripup propagation into ECO runs) is a
    # parent-side concern; the merge re-derives it from the outcome.
    router.session = None
    injector = router.fault_injector
    if injector is not None:
        injector.enter_worker()
    for region_index, net_names in tasks:
        result_queue.put(("begin", worker_id, region_index))
        fired_base = len(injector.fired) if injector is not None else 0
        # Per-region metric scope: ship absolute values as the deltas.
        OBS.counters.clear()
        OBS.gauges.clear()
        OBS.histograms.clear()
        OBS.region = region_index
        try:
            outcome = _route_region(
                router, net_names, fired_base, stage_deadline
            )
        except BaseException as error:  # noqa: BLE001 - isolation boundary
            OBS.flight_note(
                "pool.region_exception",
                region=region_index,
                error=f"{type(error).__name__}: {error}",
            )
            state = (
                injector.state(fired_base) if injector is not None else None
            )
            result_queue.put((
                "failed", worker_id, region_index,
                f"{type(error).__name__}: {error}", state,
                OBS.flight.dump(),
            ))
            continue
        finally:
            OBS.region = None
        if sampler is not None:
            sampler.sample()
        outcome["obs_counters"] = dict(OBS.counters)
        outcome["obs_gauges"] = dict(OBS.gauges)
        outcome["obs_histograms"] = {
            name: histogram.state()
            for name, histogram in OBS.histograms.items()
        }
        outcome["obs_records"] = sink.take() if sink is not None else []
        result_queue.put(("done", worker_id, region_index, outcome))
    result_queue.put(("exit", worker_id))


# ----------------------------------------------------------------------
# Supervisor (parent process)
# ----------------------------------------------------------------------
class _WorkerHandle:
    __slots__ = ("process", "regions", "current", "deadline", "exited", "handled")

    def __init__(self, process, regions: List[int]) -> None:
        self.process = process
        self.regions = regions
        self.current: Optional[int] = None
        self.deadline: Optional[Deadline] = None
        self.exited = False
        #: Set once an incident for this worker has been processed, so a
        #: killed worker is not charged twice.
        self.handled = False


class PoolSupervisor:
    """Forks, watches, and replaces detailed-routing workers.

    One supervisor serves a whole run; workers are forked per round (the
    fork must capture the round-start snapshot, and a replacement forked
    mid-round still sees that snapshot because merging happens only
    after the round completes).
    """

    def __init__(
        self,
        router,
        result,
        workers: int,
        region_timeout_s: Optional[float] = None,
        max_region_retries: int = 1,
        max_incidents: Optional[int] = None,
    ) -> None:
        self.router = router
        self.result = result
        self.workers = max(1, int(workers))
        self.region_timeout_s = region_timeout_s
        #: Re-dispatches of one region to a fresh worker before the
        #: region degrades to in-process serial execution.
        self.max_region_retries = max_region_retries
        #: Incidents (crashes + timeouts + region failures) across the
        #: run before the whole pool degrades to serial.
        self.max_incidents = (
            max_incidents if max_incidents is not None else max(4, 2 * workers)
        )
        self.incidents = 0
        #: Once true, the router stops dispatching rounds to the pool.
        self.degraded = False
        #: Worker ids are unique across the whole run (not per round):
        #: each forked process mints span ids ``w<worker_id>-<seq>``, so
        #: reusing an id across rounds would collide in the merged trace.
        self._next_worker_id = 0
        self._ctx = multiprocessing.get_context("fork")

    # ------------------------------------------------------------------
    def _event(
        self,
        kind: str,
        attach_flight: bool = False,
        extra: Optional[Dict[str, object]] = None,
        **attrs,
    ) -> None:
        """Record a pool incident/event everywhere it needs to land.

        ``attach_flight`` snapshots the *parent's* flight-recorder ring
        into the event (used for crashes/timeouts — the corpse cannot
        report its own); ``extra`` carries payload that belongs in the
        pool-event record but not in the trace event (e.g. the flight
        dump a live worker shipped with its region failure).
        """
        OBS.flight_note("pool." + kind, **attrs)
        record: Dict[str, object] = {"kind": kind}
        record.update(attrs)
        if attach_flight:
            record["flight"] = OBS.flight.dump()
        if extra:
            record.update(extra)
        self.result.pool_events.append(record)
        if OBS.enabled:
            OBS.event("pool." + kind, **attrs)

    def _degrade_pool(self, reason: str) -> None:
        self.degraded = True
        self.result.pool_degraded = True
        self._event("degraded", reason=reason, incidents=self.incidents)
        if OBS.enabled:
            OBS.count("pool.degraded")

    def _charge_faults(self, region_names: Sequence[str]) -> List[str]:
        injector = self.router.fault_injector
        if injector is None:
            return []
        return injector.charge(SITE_WORKER, region_names)

    # ------------------------------------------------------------------
    def run_round(
        self,
        round_index: int,
        by_region: Dict[int, List],
        stage_deadline: Optional[Deadline] = None,
    ) -> Dict[int, Optional[Dict[str, object]]]:
        """Execute one round's regions; returns region -> outcome.

        A ``None`` outcome means the region exhausted its retries (or
        the pool degraded) and must be routed in-process by the caller.
        """
        region_names = {
            region: [net.name for net in nets]
            for region, nets in sorted(by_region.items())
        }
        outcomes: Dict[int, Optional[Dict[str, object]]] = {}
        retries: Dict[int, int] = {region: 0 for region in region_names}
        result_queue = self._ctx.Queue()
        handles: Dict[int, _WorkerHandle] = {}

        # Trace context rides into every fork (including respawns): the
        # current open span — ``pool.round`` — becomes the root parent
        # of all worker spans, so the merged trace forms one tree.
        trace_ctx = {
            "trace_id": OBS.trace_id,
            "parent_span_id": OBS.current_span_id(),
        }

        def spawn(regions: List[int]) -> None:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            process = self._ctx.Process(
                target=_worker_main,
                args=(
                    self.router,
                    worker_id,
                    [(region, region_names[region]) for region in regions],
                    result_queue,
                    OBS.enabled,
                    stage_deadline,
                    trace_ctx,
                ),
                daemon=True,
            )
            process.start()
            handles[worker_id] = _WorkerHandle(process, list(regions))
            if OBS.enabled:
                OBS.count("pool.workers_forked")

        def unresolved(handle: _WorkerHandle) -> List[int]:
            return [r for r in handle.regions if r not in outcomes]

        def incident(
            handle: _WorkerHandle,
            kind: str,
            only_region: Optional[int] = None,
            attach_flight: bool = False,
            extra: Optional[Dict[str, object]] = None,
            **attrs,
        ) -> None:
            """Shared crash/timeout/region-failure bookkeeping.

            ``only_region`` restricts the retry to one region (a live
            worker reported a region-level failure and keeps the rest of
            its assignment); otherwise every unresolved region of the
            dead worker is re-dispatched.
            """
            if only_region is None:
                handle.handled = True
            self.incidents += 1
            if only_region is not None:
                remaining = [only_region]
                region: Optional[int] = only_region
            else:
                remaining = unresolved(handle)
                region = (
                    handle.current
                    if handle.current is not None and handle.current in remaining
                    else (remaining[0] if remaining else None)
                )
            charged: List[str] = []
            if region is not None:
                charged = self._charge_faults(region_names[region])
            self._event(
                kind,
                attach_flight=attach_flight,
                extra=extra,
                round=round_index,
                region=region,
                charged_nets=charged,
                **attrs,
            )
            if self.incidents >= self.max_incidents and not self.degraded:
                self._degrade_pool("incident budget exhausted")
            if self.degraded:
                return
            respawn: List[int] = []
            for r in remaining:
                if r == region:
                    retries[r] += 1
                    if retries[r] > self.max_region_retries:
                        outcomes[r] = None
                        self._event("region_degraded", round=round_index, region=r)
                        if OBS.enabled:
                            OBS.count("pool.regions_degraded")
                        continue
                    if OBS.enabled:
                        OBS.count("pool.region_retries")
                respawn.append(r)
            if respawn:
                spawn(respawn)

        def kill_all() -> None:
            for handle in handles.values():
                if handle.process.is_alive():
                    handle.process.kill()
                handle.handled = True

        # Static round-robin dispatch keeps worker assignment (and the
        # retry bookkeeping) deterministic.
        pending = sorted(region_names)
        count = min(self.workers, len(pending))
        for offset in range(count):
            spawn(pending[offset::count])
        if OBS.enabled:
            OBS.count("pool.regions_dispatched", len(pending))
            OBS.gauge("pool.queue_depth", len(pending))

        while len(outcomes) < len(region_names):
            if stage_deadline is not None and stage_deadline.expired:
                self._event("stage_budget", round=round_index)
                kill_all()
                break
            # Drain everything queued before judging worker health, so a
            # dead worker's last messages are honoured first.
            drained = True
            while drained:
                try:
                    message = result_queue.get(timeout=0.05)
                except queue_mod.Empty:
                    drained = False
                    continue
                except (EOFError, OSError, Exception):  # noqa: B014,BLE001
                    # A worker killed mid-put can leave a corrupt pickle
                    # in the pipe; drop it — the health check below will
                    # account for the worker itself.
                    continue
                kind = message[0]
                if kind == "begin":
                    _, worker_id, region = message
                    handle = handles.get(worker_id)
                    if handle is not None and not handle.handled:
                        handle.current = region
                        handle.deadline = (
                            Deadline(self.region_timeout_s)
                            if self.region_timeout_s is not None
                            else None
                        )
                elif kind == "done":
                    _, worker_id, region, outcome = message
                    handle = handles.get(worker_id)
                    if handle is not None:
                        handle.current = None
                        handle.deadline = None
                    if region not in outcomes:
                        outcomes[region] = outcome
                        injector = self.router.fault_injector
                        if injector is not None and outcome.get("faults"):
                            injector.merge_child_state(outcome["faults"])
                        if OBS.enabled:
                            OBS.count("pool.regions_completed")
                            OBS.gauge(
                                "pool.queue_depth",
                                len(region_names) - len(outcomes),
                            )
                elif kind == "failed":
                    _, worker_id, region, error, fault_state, flight = message
                    handle = handles.get(worker_id)
                    injector = self.router.fault_injector
                    if injector is not None and fault_state:
                        injector.merge_child_state(fault_state)
                    if handle is not None and region not in outcomes:
                        # The worker survives; only this region is hurt.
                        # It shipped its own flight-recorder dump with
                        # the failure message.
                        incident(
                            handle, "region_failure",
                            only_region=region, error=error,
                            extra={"flight": flight} if flight else None,
                        )
                        handle.current = None
                        handle.deadline = None
                elif kind == "exit":
                    _, worker_id = message
                    handle = handles.get(worker_id)
                    if handle is not None:
                        handle.exited = True
            if self.degraded:
                kill_all()
                break
            # Health checks: corpses and hangs.
            for handle in list(handles.values()):
                if handle.handled or handle.exited:
                    continue
                if not handle.process.is_alive():
                    if OBS.enabled:
                        OBS.count("pool.worker_crashes")
                    incident(
                        handle, "worker_crash",
                        attach_flight=True,
                        exitcode=handle.process.exitcode,
                    )
                elif handle.deadline is not None and handle.deadline.expired:
                    handle.process.kill()
                    if OBS.enabled:
                        OBS.count("pool.worker_timeouts")
                    incident(
                        handle, "worker_timeout",
                        attach_flight=True,
                        timeout_s=self.region_timeout_s,
                    )
            if self.degraded:
                kill_all()
                break
            if not any(
                not h.handled and not h.exited and h.process.is_alive()
                for h in handles.values()
            ) and len(outcomes) < len(region_names):
                # No runnable worker left and nothing respawned (every
                # region over budget): fall back to serial for the rest.
                break
        for region in region_names:
            outcomes.setdefault(region, None)
        # Reap: workers are per-round, nothing persists beyond here.
        for handle in handles.values():
            if handle.process.is_alive() and not handle.exited:
                handle.process.join(timeout=1.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=1.0)
        result_queue.close()
        return outcomes

    def close(self) -> None:
        """Workers are per-round; nothing persistent to tear down."""
