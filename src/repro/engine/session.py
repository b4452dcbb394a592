"""The incremental routing session (the engine layer).

A :class:`RoutingSession` owns everything one chip's routing run needs —
the chip, the track plan, the :class:`~repro.droute.space.RoutingSpace`,
the global routing graph — plus one :class:`NetRecord` per net holding
the net's global route, corridor, detour factor, pin-access entries and
routing status.  The flow stages (:class:`~repro.flow.bonnroute.
BonnRouteFlow`, :class:`~repro.groute.router.GlobalRouter`,
:class:`~repro.droute.router.DetailedRouter`) read and write these
records instead of keeping private per-net dicts, which is what makes
incremental rerouting possible:

* :meth:`RoutingSession.apply_changes` absorbs ECO edits
  (:mod:`repro.engine.changes`), marks the touched nets dirty and
  propagates dirtiness to nets whose existing routes conflict with the
  edits (shape-grid ripup queries for geometry, global-edge usage for
  capacity);
* :meth:`RoutingSession.reroute` rips up and re-routes *only* the dirty
  set, warm-starting min-max resource sharing from the previous run's
  prices (the duals already encode where the chip is congested) and
  reusing the track plan, fast grid and pin-access catalogues unchanged.

Following Ahrens et al. (arXiv:2111.06169), incremental detailed routing
is the production workload: a full route happens once, then thousands of
small ECO passes.  The ``engine.*`` spans and counters
(docs/OBSERVABILITY.md) make the incremental win measurable:
``engine.nets_rerouted`` vs the net count, and the ``droute.net`` span
count of an ECO pass vs the full flow's.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.chip.design import Chip
from repro.chip.net import Net
from repro.droute.area import RoutingArea
from repro.engine.changes import (
    AddNet,
    Change,
    MovePin,
    RemoveNet,
    ResizeBlockage,
)
from repro.engine.dirty import (
    DirtyTracker,
    REASON_ADDED,
    REASON_CAPACITY,
    REASON_CONFLICT,
    REASON_EDITED,
    REASON_RIPUP,
)
from repro.droute.space import RoutingSpace
from repro.grid.tracks import build_track_plan
from repro.groute.graph import Edge, GlobalRoute, GlobalRoutingGraph
from repro.obs import OBS

#: Tiles a global route's corridor extends beyond the route's own tiles
#: (Sec. 4.4).
CORRIDOR_MARGIN_TILES = 1

#: Net record statuses.
STATUS_PENDING = "pending"
STATUS_ROUTED = "routed"
STATUS_FAILED = "failed"


class NetRecord:
    """Everything the session knows about one net's routing state."""

    __slots__ = (
        "name",
        "status",
        "is_local",
        "prerouted",
        "global_route",
        "corridor",
        "corridor_detour",
        "access_pins",
        "failure",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.status = STATUS_PENDING
        #: All pins in one global routing tile: skips global routing.
        self.is_local = False
        #: Routed by the single-tile preroute pass (Sec. 2.5).
        self.prerouted = False
        self.global_route: Optional[GlobalRoute] = None
        self.corridor: Optional[RoutingArea] = None
        self.corridor_detour = 1.0
        #: Pin names with reserved access paths (Sec. 4.3).
        self.access_pins: List[str] = []
        #: Structured failure record when status == failed.
        self.failure = None

    def __repr__(self) -> str:
        return f"NetRecord({self.name}, {self.status})"

    def reset_routing(self) -> None:
        """Back to pending: the wiring was ripped out."""
        self.status = STATUS_PENDING
        self.failure = None
        self.access_pins = []

    def as_dict(self) -> Dict[str, object]:
        return {
            "status": self.status,
            "is_local": self.is_local,
            "prerouted": self.prerouted,
            "corridor_detour": self.corridor_detour,
            "access_pins": sorted(self.access_pins),
        }


class EcoReport:
    """Outcome of one apply_changes + reroute pass."""

    def __init__(self) -> None:
        self.nets_total = 0
        self.nets_dirty = 0
        self.dirty_reasons: Dict[str, int] = {}
        self.ripups_propagated = 0
        self.nets_rerouted = 0
        self.nets_failed = 0
        self.runtime_global = 0.0
        self.runtime_detailed = 0.0
        self.runtime_total = 0.0
        self.wire_length = 0
        self.via_count = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "nets_total": self.nets_total,
            "nets_dirty": self.nets_dirty,
            "dirty_reasons": dict(sorted(self.dirty_reasons.items())),
            "ripups_propagated": self.ripups_propagated,
            "nets_rerouted": self.nets_rerouted,
            "nets_failed": self.nets_failed,
            "time_global_s": round(self.runtime_global, 3),
            "time_detailed_s": round(self.runtime_detailed, 3),
            "time_total_s": round(self.runtime_total, 3),
            "netlength": self.wire_length,
            "vias": self.via_count,
        }


class RoutingSession:
    """Owns one chip's routing state across full routes and ECO passes.

    The session is the one owner of the routing settings: ``gr_phases``
    and ``seed`` drive every global router bound to it, and ``workers``
    and ``region_timeout_s`` every detailed router, whether the full
    flow or an ECO reroute builds them.
    """

    def __init__(
        self,
        chip: Chip,
        gr_phases: int = 15,
        seed: Optional[int] = None,
        workers: int = 1,
        region_timeout_s: Optional[float] = None,
    ) -> None:
        self.chip = chip
        self.plan = build_track_plan(chip)
        self.space = RoutingSpace(chip, track_plan=self.plan)
        self.gr_phases = gr_phases
        self.seed = seed
        #: Worker-pool settings of every DetailedRouter bound to this
        #: session (full runs via the flow and ECO reroutes).
        self.workers = max(1, int(workers))
        self.region_timeout_s = region_timeout_s
        #: Sharing phases per ECO pass: warm-started prices converge much
        #: faster than a cold solve, so a fraction of the full phase
        #: count suffices (Sec. 2.3's reuse argument applied to ECOs).
        self.eco_phases = max(4, gr_phases // 3)
        self.records: Dict[str, NetRecord] = {
            net.name: NetRecord(net.name) for net in chip.nets
        }
        self.dirty = DirtyTracker()
        #: Reserved pin-access paths shared by every DetailedRouter bound
        #: to this session (pin name -> AccessPath), so an ECO pass
        #: reuses the catalogue work of the full run.
        self.access_paths: Dict[str, object] = {}
        #: Persistent pin-access planner (set by the first DetailedRouter
        #: bound to the session; its exact-input catalogue memo survives
        #: across reroutes).
        self.planner = None
        #: The global router of the last full run (graph + capacities +
        #: resource model, reused by ECO reroutes until geometry edits
        #: invalidate the capacity estimate).
        self._global_router = None
        self._capacities_stale = False
        #: Final log-prices of the last resource sharing run (the duals
        #: an ECO reroute warm-starts from).
        self.sharing_log_prices: Dict[object, float] = {}
        #: Tile graph for edge-level dirtiness queries (shared with the
        #: global router when one is attached).
        self._graph: Optional[GlobalRoutingGraph] = None

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------
    def record(self, net_name: str) -> NetRecord:
        rec = self.records.get(net_name)
        if rec is None:
            rec = NetRecord(net_name)
            self.records[net_name] = rec
        return rec

    def _net_for_change(self, net_name: str) -> Net:
        try:
            return self.chip.net(net_name)
        except KeyError:
            raise KeyError(
                f"ECO change names unknown net {net_name!r}; chip has "
                f"{len(self.chip.nets)} nets"
            ) from None

    def net_or_none(self, net_name: str) -> Optional[Net]:
        try:
            return self.chip.net(net_name)
        except KeyError:
            return None

    @property
    def graph(self) -> GlobalRoutingGraph:
        if self._global_router is not None:
            return self._global_router.graph
        if self._graph is None:
            self._graph = GlobalRoutingGraph(self.chip)
        return self._graph

    def attach_global_router(self, router) -> None:
        """Called by :class:`GlobalRouter` when constructed with a session."""
        self._global_router = router
        self._capacities_stale = False

    def store_sharing_prices(self, prices: Dict[object, float]) -> None:
        """Keep the final duals of a sharing run for ECO warm starts."""
        self.sharing_log_prices = {
            resource: math.log(price)
            for resource, price in prices.items()
            if price > 0.0
        }

    # ------------------------------------------------------------------
    # Stage ingestion (full-flow writes)
    # ------------------------------------------------------------------
    def local_corridor(self, net: Net) -> RoutingArea:
        """Whole-stack corridor around a local net's bounding box."""
        box = net.bounding_box().expanded(2 * self.graph.tile_size)
        clipped = box.intersection(self.chip.die) or self.chip.die
        return RoutingArea.from_boxes(
            [(z, clipped) for z in self.chip.stack.indices]
        )

    def ingest_global(self, global_result) -> None:
        """Write a global routing result into the per-net records."""
        for name, route in global_result.routes.items():
            rec = self.record(name)
            rec.global_route = route
            rec.is_local = False
            rec.corridor = global_result.corridor(name, CORRIDOR_MARGIN_TILES)
            rec.corridor_detour = global_result.corridor_detour(name)
        for name in global_result.local_nets:
            rec = self.record(name)
            rec.is_local = True
            rec.global_route = None
            net = self.net_or_none(name)
            if net is not None:
                rec.corridor = self.local_corridor(net)
            rec.corridor_detour = 1.0

    def set_prerouted(self, names: Sequence[str]) -> None:
        for name in names:
            rec = self.record(name)
            rec.prerouted = True
            rec.status = STATUS_ROUTED

    def ingest_detailed(self, detailed_result) -> None:
        """Write a detailed routing result into the per-net records.

        A net the run routed is no longer dirty, even when it entered
        the run through ripup propagation rather than the given subset.
        """
        for name in detailed_result.routed:
            self.record(name).status = STATUS_ROUTED
            self.dirty.discard(name)
        for name in detailed_result.failed:
            rec = self.record(name)
            rec.status = STATUS_FAILED
            rec.failure = detailed_result.failures.get(name)

    # -- read views for stages that want plain dicts --------------------
    def corridor_map(self) -> Dict[str, RoutingArea]:
        return {
            name: rec.corridor
            for name, rec in self.records.items()
            if rec.corridor is not None
        }

    def detour_map(self) -> Dict[str, float]:
        return {
            name: rec.corridor_detour
            for name, rec in self.records.items()
            if rec.corridor is not None
        }

    def routed_names(self) -> Set[str]:
        return {
            name
            for name, rec in self.records.items()
            if rec.status == STATUS_ROUTED
        }

    # ------------------------------------------------------------------
    # Full route
    # ------------------------------------------------------------------
    def route(self, **flow_kwargs):
        """Run the full BonnRoute flow against this session.

        Convenience wrapper: builds a
        :class:`~repro.flow.bonnroute.BonnRouteFlow` bound to this
        session (import deferred to avoid the flow <-> engine cycle).
        Every stage reads its routing settings from this session.
        """
        from repro.flow.bonnroute import BonnRouteFlow

        return BonnRouteFlow(self.chip, session=self, **flow_kwargs).run()

    # ------------------------------------------------------------------
    # ECO changes
    # ------------------------------------------------------------------
    def apply_changes(self, changes: Sequence[Change]) -> int:
        """Apply ECO edits in place; returns the number of dirty nets.

        Direct edits mark their net dirty; conflict propagation (shape
        grid for geometry, global-edge usage for capacity) marks every
        net whose existing route the edit invalidates.
        """
        with OBS.trace("engine.apply_changes", changes=len(changes)):
            before = len(self.dirty)
            for change in changes:
                if isinstance(change, AddNet):
                    self._apply_add_net(change)
                elif isinstance(change, RemoveNet):
                    self._apply_remove_net(change)
                elif isinstance(change, MovePin):
                    self._apply_move_pin(change)
                elif isinstance(change, ResizeBlockage):
                    self._apply_resize_blockage(change)
                else:
                    raise ValueError(f"unknown change {change!r}")
            newly_dirty = len(self.dirty) - before
            if OBS.enabled:
                OBS.count("engine.changes_applied", len(changes))
                OBS.count("engine.nets_dirty", newly_dirty)
            return len(self.dirty)

    def _mark_conflicts(self, shapes: Sequence[Tuple[int, object]]) -> None:
        """Dirty every net with removable wiring near the given shapes."""
        conflicts: Set[str] = set()
        for layer, rect in shapes:
            conflicts |= self.space.conflicting_nets(layer, rect)
        for name in sorted(conflicts):
            if name not in self.records:
                continue
            if self.dirty.mark(name, REASON_CONFLICT, propagated=True):
                if OBS.enabled:
                    OBS.count("engine.ripups_propagated")

    def _apply_add_net(self, change: AddNet) -> None:
        net = change.net
        self.chip.add_net(net)
        shapes = [
            (layer, rect)
            for pin in net.pins
            for layer, rect in pin.shapes
            if self.chip.stack.has_layer(layer)
        ]
        self.space.reinsert_pin_shapes(net.name, shapes)
        rec = self.record(net.name)
        rec.is_local = self.graph.is_local_net(net)
        self.dirty.mark(net.name, REASON_ADDED)
        # A new pin may land on existing wiring: that wiring must move.
        self._mark_conflicts(shapes)

    def _apply_remove_net(self, change: RemoveNet) -> None:
        name = change.net_name
        self._net_for_change(name)  # KeyError before any mutation if unknown
        self._rip(name)
        # _rip leaves an empty NetRoute record behind (fine for nets
        # about to be rerouted); a removed net must vanish entirely so
        # the routes file carries no stale entry for it.
        self.space.routes.pop(name, None)
        self.space.remove_pin_shapes_temporarily(name)
        self.chip.remove_net(name)
        self.records.pop(name, None)
        self.dirty.discard(name)

    def _apply_move_pin(self, change: MovePin) -> None:
        net = self._net_for_change(change.net_name)
        pin = next((p for p in net.pins if p.name == change.pin_name), None)
        if pin is None:
            raise KeyError(
                f"net {change.net_name} has no pin {change.pin_name!r}; "
                f"pins are {[p.name for p in net.pins]}"
            )
        # Remove all the net's pin shapes, translate the one pin, put
        # everything back (the space primitives work net-at-a-time).
        self.space.remove_pin_shapes_temporarily(net.name)
        pin.shapes = [
            (layer, rect.translated(change.dx, change.dy))
            for layer, rect in pin.shapes
        ]
        # The pin left its circuit's footprint: the cached per-circuit
        # access catalogue no longer applies to it.
        pin.circuit_id = None
        all_shapes = [
            (layer, rect)
            for p in net.pins
            for layer, rect in p.shapes
            if self.chip.stack.has_layer(layer)
        ]
        self.space.reinsert_pin_shapes(net.name, all_shapes)
        rec = self.record(net.name)
        rec.is_local = self.graph.is_local_net(net)
        self.dirty.mark(net.name, REASON_EDITED)
        moved_shapes = [
            (layer, rect)
            for layer, rect in pin.shapes
            if self.chip.stack.has_layer(layer)
        ]
        self._mark_conflicts(moved_shapes)

    def _apply_resize_blockage(self, change: ResizeBlockage) -> None:
        try:
            blockage = self.chip.blockages[change.index]
        except IndexError:
            raise IndexError(
                f"no blockage #{change.index}; chip has "
                f"{len(self.chip.blockages)}"
            ) from None
        old_rect = blockage.rect
        new_rect = change.new_rect(old_rect)
        blockage.rect = new_rect
        self.space.replace_blockage_shape(blockage.layer, old_rect, new_rect)
        # Geometry conflicts: routed wiring inside the new extent.
        self._mark_conflicts([(blockage.layer, new_rect)])
        # Capacity conflicts: global routes through tiles the blockage
        # now covers may no longer fit; re-route them too.
        self._mark_capacity_conflicts(blockage.layer, new_rect)
        self._capacities_stale = True

    def _mark_capacity_conflicts(self, layer: int, rect) -> None:
        if not self.chip.stack.has_layer(layer):
            return
        graph = self.graph
        tx_lo, ty_lo = graph.tile_of_point(rect.x_lo, rect.y_lo)
        tx_hi, ty_hi = graph.tile_of_point(rect.x_hi, rect.y_hi)
        affected: Set[Edge] = set()
        for tx in range(tx_lo, tx_hi + 1):
            for ty in range(ty_lo, ty_hi + 1):
                node = (tx, ty, layer)
                for _other, edge in graph.neighbors(node):
                    affected.add(edge)
        if not affected:
            return
        for name, rec in sorted(self.records.items()):
            route = rec.global_route
            if route is None or not (route.edges & affected):
                continue
            if self.dirty.mark(name, REASON_CAPACITY, propagated=True):
                if OBS.enabled:
                    OBS.count("engine.ripups_propagated")

    def mark_ripup_propagated(self, net_name: str) -> None:
        """A clean net was ripped while rerouting the dirty set."""
        if self.dirty.mark(net_name, REASON_RIPUP, propagated=True):
            if OBS.enabled:
                OBS.count("engine.ripups_propagated")
                OBS.count("engine.nets_dirty")
        rec = self.records.get(net_name)
        if rec is not None:
            rec.reset_routing()

    # ------------------------------------------------------------------
    # Ripup
    # ------------------------------------------------------------------
    def _rip(self, net_name: str) -> None:
        """Remove a net's wiring and its stale reserved access paths."""
        if net_name in self.space.routes:
            self.space.remove_net_route(net_name)
        stale = [
            pin_name
            for pin_name, access in self.access_paths.items()
            if getattr(access, "net_name", None) == net_name
        ]
        for pin_name in stale:
            del self.access_paths[pin_name]
        rec = self.records.get(net_name)
        if rec is not None:
            rec.reset_routing()

    # ------------------------------------------------------------------
    # Incremental reroute
    # ------------------------------------------------------------------
    def _eco_global_router(self):
        """The reusable global router (rebuilt only when capacities went
        stale, e.g. after a blockage resize)."""
        from repro.groute.router import GlobalRouter

        if self._global_router is None or self._capacities_stale:
            self._global_router = GlobalRouter(
                self.chip, phases=self.gr_phases, seed=self.seed, session=self
            )
            self._capacities_stale = False
        return self._global_router

    def _frozen_global_routes(self, dirty: Set[str]) -> Dict[str, GlobalRoute]:
        return {
            name: rec.global_route
            for name, rec in self.records.items()
            if rec.global_route is not None and name not in dirty
        }

    def reroute(self, cleanup: bool = False) -> EcoReport:
        """Rip up and re-route the dirty set only.

        Warm-starts resource sharing from the previous duals, keeps the
        frozen nets' routes as fixed load during rounding repair, and
        reuses the track plan, fast grid and pin-access catalogues.
        With ``cleanup`` the local DRC cleanup finisher runs afterwards.
        """
        from repro.droute.router import DetailedRouter

        report = EcoReport()
        report.nets_total = len(self.chip.nets)
        start = time.time()
        with OBS.trace("engine.reroute", dirty=len(self.dirty)):
            dirty_names = {
                name for name in self.dirty.names() if name in self.records
            }
            report.nets_dirty = len(dirty_names)
            report.dirty_reasons = self.dirty.reasons_histogram()
            for name in sorted(dirty_names):
                self._rip(name)

            dirty_nets = [
                self.chip.net(name)
                for name in sorted(dirty_names)
                if self.net_or_none(name) is not None
            ]

            # -- global stage: dirty non-local nets only ----------------
            global_start = time.time()
            router = self._eco_global_router()
            routable = []
            for net in dirty_nets:
                rec = self.record(net.name)
                rec.is_local = router.graph.is_local_net(net)
                if rec.is_local:
                    rec.corridor = self.local_corridor(net)
                    rec.corridor_detour = 1.0
                    rec.global_route = None
                else:
                    routable.append(net)
            if routable:
                frozen = self._frozen_global_routes(dirty_names)
                eco_result = router.run_incremental(
                    routable,
                    warm_start=self.sharing_log_prices,
                    phases=self.eco_phases,
                    frozen_routes=frozen,
                )
                self.ingest_global(eco_result)
            report.runtime_global = time.time() - global_start

            # -- detailed stage: the dirty set, session-ordered ---------
            detailed_start = time.time()
            detailed = DetailedRouter(
                self.space,
                session=self,
                workers=self.workers,
                region_timeout_s=self.region_timeout_s,
            )
            result = detailed.run(dirty_nets)
            report.ripups_propagated = len(self.dirty.propagated_names())
            self.ingest_detailed(result)
            report.runtime_detailed = time.time() - detailed_start
            rerouted = result.routed | result.failed
            report.nets_rerouted = len(rerouted)
            report.nets_failed = len(result.failed)
            if OBS.enabled:
                OBS.count("engine.nets_rerouted", len(rerouted))

            if cleanup:
                from repro.baseline.cleanup import DrcCleanup

                DrcCleanup(self.space).run()

            self.dirty.clear()
        report.wire_length = self.space.total_wire_length()
        report.via_count = self.space.total_via_count()
        report.runtime_total = time.time() - start
        return report

    # ------------------------------------------------------------------
    # Checkpoint payload (io/checkpoint.py schema v2)
    # ------------------------------------------------------------------
    def session_state(self) -> Dict[str, object]:
        """JSON-serializable per-net record + dirty state."""
        return {
            "records": {
                name: rec.as_dict() for name, rec in sorted(self.records.items())
            },
            "dirty": sorted(self.dirty.names()),
            "dirty_reasons": {
                name: self.dirty.reason(name)
                for name in sorted(self.dirty.names())
            },
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore records/dirty flags from a checkpoint's session payload.

        Corridors and global routes are rebuilt by the caller (the flow
        re-ingests the checkpointed global result); this restores the
        scalar per-net state the records carry beyond it.
        """
        for name, data in (state.get("records") or {}).items():
            rec = self.record(name)
            rec.status = str(data.get("status", STATUS_PENDING))
            rec.is_local = bool(data.get("is_local", False))
            rec.prerouted = bool(data.get("prerouted", False))
            rec.corridor_detour = float(data.get("corridor_detour", 1.0))
            rec.access_pins = list(data.get("access_pins", ()))
        reasons = state.get("dirty_reasons") or {}
        for name in state.get("dirty") or ():
            self.dirty.mark(name, reasons.get(name, REASON_EDITED))
