"""Off-track pin access (Sec. 4.3, Fig. 7).

Most pins are not aligned with the track grid.  For each pin we build a
*catalogue* of DRC-clean tau-feasible access paths (via the blockage grid
of Sec. 3.8) connecting the pin to on-track points within a small radius.
Per circuit, one primary access path per pin is chosen such that the set
forms a *conflict-free solution* - pairwise DRC-clean - using a
branch-and-bound enumeration ("destructive bounding") that scores
solutions by endpoint spreading, blocked tracks, feasible on-track
continuations and length.  Chosen paths are reserved in the routing space
before routing starts so later wires cannot invalidate them.

Catalogue builds are memoized on their exact inputs: the pin, the
radius and every shape the build can read.  A hit replays what a
rebuild would produce, so re-routed nets over unchanged geometry skip
the blockage-grid searches without changing any result.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.chip.net import Pin
from repro.droute.route import ViaInstance
from repro.droute.space import RoutingSpace
from repro.obs import OBS
from repro.geometry.l1 import rect_l2_gap, run_length
from repro.geometry.rect import Rect
from repro.grid.blockgrid import (
    BlockageGrid,
    blockage_grid_coordinates,
    usable_obstacles,
)
from repro.grid.shapegrid import RipupLevel
from repro.grid.trackgraph import Vertex
from repro.tech.wiring import StickFigure


class AccessPath:
    """One off-track connection from a pin to an on-track endpoint."""

    __slots__ = (
        "pin_name", "net_name", "layer", "points", "via", "endpoint",
        "length", "blockers",
    )

    def __init__(
        self,
        pin_name: str,
        net_name: str,
        layer: int,
        points: List[Tuple[int, int]],
        via: Optional[ViaInstance],
        endpoint: Vertex,
        length: int,
        blockers: Optional[Set[str]] = None,
    ) -> None:
        self.pin_name = pin_name
        self.net_name = net_name
        #: Layer the polyline runs on (the pin's layer).
        self.layer = layer
        #: Polyline from the pin to the endpoint's (x, y).
        self.points = points
        #: Optional via lifting the endpoint to the layer above.
        self.via = via
        #: Track-graph vertex where on-track routing continues.
        self.endpoint = endpoint
        self.length = length
        #: Foreign nets whose wiring must be ripped out before this path
        #: is legal (fallback jumpers over removable reservations).
        self.blockers: Set[str] = blockers or set()

    def __repr__(self) -> str:
        return f"AccessPath({self.pin_name} -> {self.endpoint}, len={self.length})"

    def sticks(self) -> List[StickFigure]:
        out = []
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            out.append(StickFigure(self.layer, x0, y0, x1, y1))
        if not out and self.points:
            x, y = self.points[0]
            out.append(StickFigure(self.layer, x, y, x, y))
        return out

    def shapes(self, space: RoutingSpace, wire_type_name: str) -> List[Tuple[int, Rect]]:
        """Metal rectangles (wiring layers only) the path induces."""
        wire_type = space.chip.wire_type(wire_type_name)
        shapes = []
        for stick in self.sticks():
            rect, _cls, _kind = wire_type.wire_shape(stick, space.chip.stack)
            shapes.append((stick.layer, rect))
        if self.via is not None:
            model = wire_type.via_model(self.via.via_layer)
            for kind, layer, rect, _cls, _sk in model.shapes(
                self.via.x, self.via.y, self.via.via_layer
            ):
                if kind == "wiring":
                    shapes.append((layer, rect))
        return shapes


class PinAccessPlanner:
    """Catalogue construction + conflict-free selection + reservation."""

    #: Catalogue-memo entry budget; the memo drops its least recently
    #: used entry beyond it.
    memo_capacity = 4096
    #: Wire type every access path is built with.
    wire_type_name = "default"
    #: Catalogue search radius around a pin, in pitches of its layer
    #: (:meth:`build_catalogue` may be asked for a wider one).
    radius_pitches = 4

    def __init__(
        self,
        space: RoutingSpace,
        max_endpoints: int = 10,
        max_paths: int = 6,
        fault_injector=None,
    ) -> None:
        self.space = space
        self.max_endpoints = max_endpoints
        self.max_paths = max_paths
        #: Optional :class:`repro.flow.faults.FaultInjector` probed at the
        #: "pin_access" site (deterministic fault-injection harness).
        self.fault_injector = fault_injector
        #: Exact-input memo for :meth:`build_catalogue`: key = (pin,
        #: radius, all shape-grid geometry any of its checks can read).
        #: Identical inputs make the blockage-grid Dijkstras and via
        #: checks deterministic, so replaying the cached result is
        #: bit-identical to rebuilding — it only skips the work.  The
        #: store is an LRU bounded at :attr:`memo_capacity` entries
        #: (``pinaccess.evictions`` counts the drops); eviction can only
        #: cost a rebuild, never change its result.
        self._catalogue_memo: "OrderedDict[Tuple, List[AccessPath]]" = OrderedDict()

    # ------------------------------------------------------------------
    # Catalogue construction
    # ------------------------------------------------------------------
    def _obstacles_near(self, pin: Pin, layer: int, window: Rect) -> List[Rect]:
        """Foreign shapes near the pin, expanded by wire clearance."""
        chip = self.space.chip
        wire_type = chip.wire_type(self.wire_type_name)
        model = wire_type.preferred_model(layer)
        wire_width = model.shape_class.rule_width
        rule = chip.rules.spacing_rule(layer)
        net_name = pin.net.name if pin.net is not None else None
        obstacles = []
        for entry in self.space.shape_grid.query("wiring", layer, window):
            if entry.net == net_name:
                continue
            run = max(entry.rect.width, entry.rect.height)
            # Centerline clearance: half width + spacing + the pessimistic
            # line-end extension the final metal will carry (Fig. 2).
            clearance = (
                wire_width // 2
                + rule.spacing(wire_width, entry.rule_width, run)
                + model.line_end_extension
            )
            obstacles.append(entry.rect.expanded(clearance))
        return obstacles

    def _endpoint_candidates(self, pin: Pin, window: Rect) -> List[Vertex]:
        graph = self.space.graph
        layers = []
        pin_layer = pin.layers[0]
        layers.append(pin_layer)
        if graph.stack.has_layer(pin_layer + 1):
            layers.append(pin_layer + 1)
        cx, cy = pin.reference_point()
        candidates: List[Tuple[int, Vertex]] = []
        for z in layers:
            for vertex in graph.vertices_in_rect(
                z, window.x_lo, window.y_lo, window.x_hi, window.y_hi
            ):
                x, y, _ = graph.position(vertex)
                candidates.append((abs(x - cx) + abs(y - cy), vertex))
        candidates.sort()
        return [v for _, v in candidates[: self.max_endpoints]]

    def _catalogue_fingerprint(self, pin: Pin, window: Rect, tau: int) -> Tuple:
        """Every shape-grid entry a catalogue build can read.

        Covers the obstacle window plus the interaction reach of the
        endpoint via checks on the pin layer and its neighbours; two
        builds with equal fingerprints see identical geometry, so their
        results are identical.
        """
        chip = self.space.chip
        stack = chip.stack
        pin_layer = pin.layers[0]
        entries = []
        for layer in (pin_layer - 1, pin_layer, pin_layer + 1):
            if not stack.has_layer(layer):
                continue
            reach = (
                tau
                + chip.rules.max_interaction_distance(layer)
                + 2 * stack[layer].pitch
            )
            for entry in self.space.shape_grid.query(
                "wiring", layer, window.expanded(reach)
            ):
                r = entry.rect
                entries.append((
                    "wiring", layer, r.x_lo, r.y_lo, r.x_hi, r.y_hi,
                    entry.net, str(entry.shape_kind), entry.ripup_level,
                    entry.rule_width,
                ))
        for via_layer in (pin_layer - 1, pin_layer):
            if via_layer not in stack.via_layers():
                continue
            reach = tau + 4 * stack[via_layer].pitch
            for entry in self.space.shape_grid.query(
                "via", via_layer, window.expanded(reach)
            ):
                r = entry.rect
                entries.append((
                    "via", via_layer, r.x_lo, r.y_lo, r.x_hi, r.y_hi,
                    entry.net, str(entry.shape_kind), entry.ripup_level,
                    entry.rule_width,
                ))
        return tuple(sorted(entries, key=repr))

    @staticmethod
    def _copy_path(path: AccessPath) -> AccessPath:
        return AccessPath(
            path.pin_name, path.net_name, path.layer, list(path.points),
            path.via, path.endpoint, path.length, set(path.blockers),
        )

    def build_catalogue(
        self, pin: Pin, radius_pitches: Optional[int] = None
    ) -> List[AccessPath]:
        """DRC-clean tau-feasible access paths for one pin.

        One blockage-grid query runs per distinct endpoint position
        ``(x, y)``: endpoints at one position on the pin layer and the
        layer above share its result and differ only in the via check.
        Positions whose grids come out identical share one grid, and
        the grid resumes one Dijkstra from the pin for all of them.
        Builds are memoized on (pin, radius, neighbourhood geometry):
        the grid searches dominate the planner's cost, and re-routed
        nets usually ask for the same pin over unchanged geometry.  A
        hit replays copies of the cached paths — exactly what a rebuild
        would produce.
        """
        if self.fault_injector is not None:
            net_name = pin.net.name if pin.net is not None else None
            self.fault_injector.check("pin_access", net=net_name)
        chip = self.space.chip
        pin_layer = pin.layers[0]
        pitch = chip.stack[pin_layer].pitch
        radius = (radius_pitches or self.radius_pitches) * pitch
        bbox = pin.bounding_box()
        window = bbox.expanded(radius)
        tau = chip.rules.same_net_rules(pin_layer).min_segment_length
        memo_key = (
            pin.name, radius, self._catalogue_fingerprint(pin, window, tau)
        )
        cached = self._catalogue_memo.get(memo_key)
        if cached is not None:
            self._catalogue_memo.move_to_end(memo_key)
            if OBS.enabled:
                OBS.count("pinaccess.catalogue_memo_hits")
            return [self._copy_path(p) for p in cached]
        if OBS.enabled:
            OBS.count("pinaccess.catalogues_built")
        grid_box = window.expanded(tau)
        obstacles = usable_obstacles(
            self._obstacles_near(pin, pin_layer, grid_box), grid_box
        )
        endpoints = self._endpoint_candidates(pin, window)
        if not endpoints:
            return []
        net_name = pin.net.name if pin.net is not None else ""
        source = pin.reference_point()
        graph = self.space.graph
        paths: List[AccessPath] = []
        wire_type = chip.wire_type(self.wire_type_name)
        # A search's inputs (obstacles, tau, window, source, (x, y)) do
        # not depend on the endpoint's layer.  Endpoints whose Alg. 3
        # coordinates come out equal get the same grid, so they share
        # its resumable search from ``source``.
        grids: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], BlockageGrid] = {}
        searched: Dict[Tuple[int, int], Optional[Tuple]] = {}
        for endpoint in endpoints:
            ex, ey, ez = graph.position(endpoint)
            if (ex, ey) not in searched:
                if OBS.enabled:
                    OBS.count("pinaccess.grid_searches")
                xs, ys = blockage_grid_coordinates(
                    obstacles, [source, (ex, ey)], tau, grid_box
                )
                grid_key = (tuple(xs), tuple(ys))
                grid = grids.get(grid_key)
                if grid is None:
                    if OBS.enabled:
                        OBS.count("pinaccess.grid_builds")
                    grid = grids[grid_key] = BlockageGrid(
                        obstacles, tau, grid_box, coordinates=(xs, ys)
                    )
                searched[(ex, ey)] = grid.shortest_path([source], [(ex, ey)])
            result = searched[(ex, ey)]
            if result is None:
                continue
            length, points = result
            via: Optional[ViaInstance] = None
            if ez == pin_layer + 1:
                if not wire_type.has_via_layer(pin_layer):
                    continue
                via = ViaInstance(pin_layer, ex, ey)
                check = self.space.check_via(self.wire_type_name, via, net_name)
                if not check.legal:
                    continue
            paths.append(
                AccessPath(pin.name, net_name, pin_layer, points, via, endpoint, length)
            )
            if len(paths) >= self.max_paths:
                break
        paths.sort(key=lambda p: p.length)
        while len(self._catalogue_memo) >= self.memo_capacity:
            self._catalogue_memo.popitem(last=False)
            if OBS.enabled:
                OBS.count("pinaccess.evictions")
        self._catalogue_memo[memo_key] = [self._copy_path(p) for p in paths]
        return paths

    def jumper_fallback(self, pin: Pin, require_legal: bool = True) -> List[AccessPath]:
        """Last-resort pin access: a short L-shaped jumper to the nearest
        usable vertices, ignoring tau (the same-net postprocess and the
        external DRC cleanup handle the residue, Sec. 5.2).

        With ``require_legal=False`` even diff-net-violating jumpers are
        returned: conceding a violation to the cleanup step beats leaving
        the pin open (the error counts of Table I include both).
        """
        chip = self.space.chip
        pin_layer = pin.layers[0]
        pitch = chip.stack[pin_layer].pitch
        window = pin.bounding_box().expanded(6 * pitch)
        endpoints = self._endpoint_candidates(pin, window)
        net_name = pin.net.name if pin.net is not None else ""
        cx, cy = pin.reference_point()
        graph = self.space.graph
        wire_type = chip.wire_type(self.wire_type_name)
        paths: List[AccessPath] = []
        rippable: List[AccessPath] = []
        conceded: List[AccessPath] = []
        for endpoint in endpoints:
            ex, ey, ez = graph.position(endpoint)
            for corner in ((ex, cy), (cx, ey)):
                points = [(cx, cy), corner, (ex, ey)]
                sticks = [
                    StickFigure(pin_layer, a[0], a[1], b[0], b[1])
                    for a, b in zip(points, points[1:])
                    if a != b
                ]
                checks = [
                    self.space.check_wire(self.wire_type_name, stick, net_name)
                    for stick in sticks
                ]
                via: Optional[ViaInstance] = None
                if ez == pin_layer + 1:
                    if not wire_type.has_via_layer(pin_layer):
                        continue
                    via = ViaInstance(pin_layer, ex, ey)
                    checks.append(
                        self.space.check_via(self.wire_type_name, via, net_name)
                    )
                legal = all(c.legal for c in checks)
                if require_legal and not legal:
                    continue
                blockers: Set[str] = set()
                hits_fixed = any(
                    not c.legal and c.max_ripup_needed < 0 for c in checks
                )
                if not legal and not hits_fixed:
                    # Jumpers over removable wiring: the connector rips
                    # the blocker nets instead of conceding a violation.
                    for c in checks:
                        blockers |= c.blockers
                    blockers.discard(net_name)
                length = abs(ex - cx) + abs(ey - cy)
                path = AccessPath(
                    pin.name, net_name, pin_layer, points, via, endpoint,
                    length, blockers,
                )
                if legal:
                    paths.append(path)
                elif hits_fixed:
                    conceded.append(path)
                else:
                    rippable.append(path)
                break
            if len(paths) >= 2:
                break
        if paths:
            return paths
        if rippable:
            return rippable[:2]
        # Very last resort: concede a violation to the DRC cleanup rather
        # than leaving the pin open (both enter Table I's error count).
        return conceded[:1]

    def circuit_catalogues(self, pins: Sequence[Pin]) -> Dict[str, List[AccessPath]]:
        """Catalogues for all pins of one placed circuit, in pin order."""
        return {pin.name: self.build_catalogue(pin) for pin in pins}

    # ------------------------------------------------------------------
    # Conflict-free selection (destructive bounding)
    # ------------------------------------------------------------------
    def paths_conflict(self, a: AccessPath, b: AccessPath) -> bool:
        """Pairwise diff-net DRC check between two access paths."""
        if a.net_name == b.net_name:
            return False
        shapes_a = a.shapes(self.space, self.wire_type_name)
        shapes_b = b.shapes(self.space, self.wire_type_name)
        rules = self.space.chip.rules
        for layer_a, rect_a in shapes_a:
            for layer_b, rect_b in shapes_b:
                if layer_a != layer_b:
                    continue
                rule = rules.spacing_rule(layer_a)
                width = min(rect_a.width, rect_a.height)
                width_b = min(rect_b.width, rect_b.height)
                required = rule.spacing(width, width_b, run_length(rect_a, rect_b))
                if rect_l2_gap(rect_a, rect_b) < required:
                    return True
        return False

    def _score(self, chosen: Sequence[AccessPath]) -> float:
        """Lower is better: length, endpoint crowding, blocked tracks,
        missing continuations (the Sec. 4.3 criteria)."""
        total = sum(p.length for p in chosen)
        crowding = 0.0
        for i, a in enumerate(chosen):
            ax, ay, _ = self.space.graph.position(a.endpoint)
            for b in chosen[i + 1:]:
                bx, by, _ = self.space.graph.position(b.endpoint)
                d = abs(ax - bx) + abs(ay - by)
                pitch = self.space.chip.stack[1].pitch
                if d < 2 * pitch:
                    crowding += (2 * pitch - d)
        continuation_penalty = 0.0
        for path in chosen:
            usable_directions = 0
            for shape_type in ("wire", "jog"):
                if self.space.fast_grid.vertex_usable(
                    self.wire_type_name, path.endpoint, shape_type
                ):
                    usable_directions += 1
            continuation_penalty += (2 - usable_directions) * 100
        blocked = 0
        for path in chosen:
            blocked += max(0, len(path.points) - 2) * 50  # bends block tracks
        return total + 2.0 * crowding + continuation_penalty + blocked

    #: Score penalty for leaving a pin without a reserved access path:
    #: dominates every geometric score term, so the branch-and-bound
    #: maximizes pin coverage first and only then optimizes quality.
    UNASSIGNED_PENALTY = 1_000_000.0

    def conflict_free_solution(
        self, catalogues: Dict[str, List[AccessPath]]
    ) -> Optional[Dict[str, AccessPath]]:
        """Branch-and-bound over one path per pin, pairwise conflict-free.

        Every pin additionally has the "unassigned" option at a penalty
        dominating all geometric terms, so the enumeration finds a
        maximum-coverage conflict-free solution and, among those, the
        best-scored one (destructive bounding prunes the search).
        Fig. 7's greedy failure mode cannot occur: whenever a full
        conflict-free solution exists, it is found.
        """
        pin_names = sorted(catalogues, key=lambda name: len(catalogues[name]))
        if not pin_names or all(not catalogues[name] for name in pin_names):
            return None
        best: List[Optional[Dict[str, AccessPath]]] = [None]
        best_score = [float("inf")]

        def lower_bound(chosen: List[Optional[AccessPath]], index: int) -> float:
            value = sum(
                self.UNASSIGNED_PENALTY if path is None else path.length
                for path in chosen
            )
            for name in pin_names[index:]:
                options = catalogues[name]
                value += min(p.length for p in options) if options else (
                    self.UNASSIGNED_PENALTY
                )
            return value

        def recurse(index: int, chosen: List[Optional[AccessPath]]) -> None:
            if lower_bound(chosen, index) >= best_score[0]:
                return  # destructive bounding
            if index == len(pin_names):
                assigned = [p for p in chosen if p is not None]
                score = self._score(assigned) + self.UNASSIGNED_PENALTY * (
                    len(chosen) - len(assigned)
                )
                if score < best_score[0]:
                    best_score[0] = score
                    best[0] = {
                        name: path
                        for name, path in zip(pin_names, chosen)
                        if path is not None
                    }
                return
            name = pin_names[index]
            for path in catalogues[name]:
                if any(
                    self.paths_conflict(path, other)
                    for other in chosen
                    if other is not None
                ):
                    continue
                chosen.append(path)
                recurse(index + 1, chosen)
                chosen.pop()
            # The unassigned branch (explored last: it can never beat a
            # same-prefix assignment on score).
            chosen.append(None)
            recurse(index + 1, chosen)
            chosen.pop()

        recurse(0, [])
        return best[0] if best[0] else None

    # ------------------------------------------------------------------
    # Reservation (Sec. 4.3: add primary paths before routing starts)
    # ------------------------------------------------------------------
    def reserve(self, path: AccessPath) -> None:
        if OBS.enabled:
            OBS.count("pinaccess.paths_reserved")
        for stick in path.sticks():
            self.space.add_wire(
                path.net_name,
                self.wire_type_name,
                stick,
                ripup_level=int(RipupLevel.RESERVED),
                off_track=True,
            )
        if path.via is not None:
            self.space.add_via(
                path.net_name,
                self.wire_type_name,
                path.via,
                ripup_level=int(RipupLevel.RESERVED),
                off_track=True,
            )
