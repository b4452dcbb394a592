"""Local DRC cleanup (Sec. 5.2 / 5.3).

Both flows of Table I end with this pass: the "BR+ISR" flow hands
BonnRoute's wiring to it, and the plain "ISR" flow uses it as its own
finisher.  Only local changes are made:

* **min_segment / min_area**: stub extensions where legally possible
  (the fixes BonnRoute itself tries to avoid needing, Sec. 5.2 item 2);
* **spacing**: the cheaper offender (less wiring ripped) is removed and
  rerouted inside a small window around the violation;
* remaining violations are reported (the error column of Table I).

As in the paper, the cleanup often takes longer than BonnRoute itself
despite touching only local windows (Sec. 5.3).

**Replayed reroutes.**  A spacing reroute rips the victim and connects
it again inside its window.  After the rip, ``connect_net`` reads only
the other nets' wiring and the fixed shapes, the window, and the
connector's ripup history; the victim's old wiring is gone.  So when
the same victim is rerouted in the same window and no fix has changed
the space since that reroute last ran, it would rebuild exactly the
wiring already there.  :class:`DrcCleanup` then returns the stored
outcome instead of rerunning it (counted as ``cleanup.reroutes_replayed``).
A replayed reroute counts in the report as the run it repeats.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.drc.checker import DrcChecker, DrcReport, Violation
from repro.droute.area import RoutingArea
from repro.droute.connect import NetConnector
from repro.droute.pinaccess import PinAccessPlanner
from repro.droute.samenet import _try_extend
from repro.droute.space import RoutingSpace
from repro.geometry.rect import Rect
from repro.obs import OBS


class CleanupReport:
    """Fix counts of one :meth:`DrcCleanup.run`.

    A replayed spacing reroute counts in ``fixed_spacing`` and
    ``rerouted_nets`` exactly as the run it repeats.
    """

    def __init__(self) -> None:
        self.fixed_min_segment = 0
        self.fixed_min_area = 0
        self.fixed_spacing = 0
        self.rerouted_nets = 0
        self.remaining_errors = 0
        self.runtime = 0.0
        self.final_report: Optional[DrcReport] = None

    def summary(self) -> Dict[str, float]:
        return {
            "fixed_min_segment": self.fixed_min_segment,
            "fixed_min_area": self.fixed_min_area,
            "fixed_spacing": self.fixed_spacing,
            "rerouted_nets": self.rerouted_nets,
            "remaining_errors": self.remaining_errors,
            "runtime": self.runtime,
        }


class DrcCleanup:
    """Violation-driven local repair over a routed space."""

    def __init__(
        self,
        space: RoutingSpace,
        max_passes: int = 2,
    ) -> None:
        self.space = space
        self.chip = space.chip
        self.max_passes = max_passes
        self.planner = PinAccessPlanner(space)
        self.connector = NetConnector(space, planner=self.planner)
        #: Fixes that changed the space so far in this run.
        self._edits = 0
        #: (victim, window) -> (edit count after that reroute, success).
        self._reroutes: Dict[Tuple[str, Rect], Tuple[int, bool]] = {}

    # ------------------------------------------------------------------
    # Individual fixes
    # ------------------------------------------------------------------
    def _fix_min_segment(self, violation: Violation) -> bool:
        net_name = violation.nets[0]
        route = self.space.routes.get(net_name)
        if route is None:
            return False
        tau = self.chip.rules.same_net_rules(violation.layer).min_segment_length
        for stick, _level, type_name in route.wire_items():
            if stick.layer != violation.layer or stick.is_point:
                continue
            if stick.length >= tau:
                continue
            if not stick.as_rect().intersects(violation.rect):
                continue
            extended = _try_extend(self.space, net_name, type_name, stick, tau)
            if extended is not None and extended != stick:
                self.space.remove_wire(net_name, stick)
                self.space.add_wire(net_name, type_name, extended)
                self._edits += 1
                return True
        return False

    def _fix_min_area(self, violation: Violation) -> bool:
        """Grow the polygon with a stub wire along the preferred axis."""
        net_name = violation.nets[0]
        route = self.space.routes.get(net_name)
        if route is None:
            return False
        same_net = self.chip.rules.same_net_rules(violation.layer)
        deficit_length = max(
            same_net.min_area // max(self.chip.stack[violation.layer].min_width, 1),
            same_net.min_segment_length,
        )
        for stick, _level, type_name in route.wire_items():
            if stick.layer != violation.layer:
                continue
            if not stick.as_rect().intersects(violation.rect):
                continue
            extended = _try_extend(
                self.space, net_name, type_name, stick,
                stick.length + deficit_length,
            )
            if extended is not None and extended != stick:
                self.space.remove_wire(net_name, stick)
                self.space.add_wire(net_name, type_name, extended)
                self._edits += 1
                return True
        return False

    def _fix_spacing(self, violation: Violation, nets_by_name) -> bool:
        """Rip the lighter offender and reroute it in a local window."""
        candidates = [name for name in violation.nets if name is not None]
        if not candidates:
            return False
        candidates.sort(
            key=lambda name: self.space.routes[name].wire_length
            if name in self.space.routes
            else 0
        )
        victim = candidates[0]
        net = nets_by_name.get(victim)
        if net is None or victim not in self.space.routes:
            return False
        # Local change only: reroute within a window around the violation,
        # widened by the net's own bounding box so its pins stay reachable.
        window = violation.rect.expanded(16 * self.chip.stack[1].pitch)
        window = window.hull(net.bounding_box().expanded(8 * self.chip.stack[1].pitch))
        clipped = window.intersection(self.chip.die) or self.chip.die
        key = (victim, clipped)
        replayed = self._replay(key)
        if replayed is not None:
            if OBS.enabled:
                OBS.count("cleanup.reroutes_replayed")
            return replayed
        before = self._wiring(victim)
        history = sum(self.connector.ripup_history.values())
        self.connector.rip_net(victim)
        area = RoutingArea.from_boxes(
            [(z, clipped) for z in self.chip.stack.indices]
        )
        connection = self.connector.connect_net(net, area, max_ripup_level=-2)
        # Ripped nets or a grown ripup history change the inputs of later
        # reroutes beyond the victim's own wiring: never memoised.
        side_effects = bool(connection.ripped_nets) or (
            sum(self.connector.ripup_history.values()) != history
        )
        # The items carry ripup levels, so dropped reserved access wiring
        # counts as a change.
        if side_effects or self._wiring(victim) != before:
            self._edits += 1
        if not side_effects:
            self._reroutes[key] = (self._edits, connection.success)
        return connection.success

    def _wiring(self, net_name: str):
        route = self.space.routes[net_name]
        return route.wire_items(), route.via_items()

    def _replay(self, key: Tuple[str, Rect]) -> Optional[bool]:
        """The stored success of reroute ``key`` if nothing changed the
        space since it last ran, else ``None``."""
        entry = self._reroutes.get(key)
        if entry is not None and entry[0] == self._edits:
            return entry[1]
        return None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> CleanupReport:
        start = time.time()
        report = CleanupReport()
        self._edits = 0
        self._reroutes = {}
        nets_by_name = {net.name: net for net in self.chip.nets}
        for _pass in range(self.max_passes):
            checker = DrcChecker(self.space)
            drc = checker.run(opens=False)
            if not drc.violations:
                break
            progressed = False
            for violation in drc.violations:
                if violation.kind == "min_segment":
                    if self._fix_min_segment(violation):
                        report.fixed_min_segment += 1
                        progressed = True
                elif violation.kind == "min_area":
                    if self._fix_min_area(violation):
                        report.fixed_min_area += 1
                        progressed = True
                elif violation.kind == "spacing":
                    if self._fix_spacing(violation, nets_by_name):
                        report.fixed_spacing += 1
                        report.rerouted_nets += 1
                        progressed = True
            if not progressed:
                break
        final = DrcChecker(self.space).run()
        report.final_report = final
        report.remaining_errors = final.error_count
        report.runtime = time.time() - start
        return report
