"""Connecting nets (Sec. 4.4).

The connector iteratively picks a connected component of a not yet fully
routed net as the source, builds the source vertex set S (on-track
connection vertices of the component plus endpoints of off-track access
paths), the target set T from the other components, temporarily removes
the net's own shapes from routing space, and runs the on-track path
search restricted to the routing area.  Found paths are postprocessed for
same-net rules and committed; on failure a ripup sequence allows the
search to cross foreign wiring at increasing penalties, and the affected
nets are returned to the caller for rerouting.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.chip.net import Net, Pin
from repro.droute.area import RoutingArea
from repro.droute.future_cost import (
    FutureCostGR,
    FutureCostH,
    FutureCostP,
    SearchCosts,
)
from repro.droute.intervals import GraphView
from repro.droute.pathsearch import (
    SearchResult,
    interval_path_search,
    node_path_search,
    path_to_moves,
)
from repro.obs import OBS
from repro.droute.pinaccess import AccessPath
from repro.droute.route import ViaInstance
from repro.droute.samenet import postprocess_path
from repro.droute.space import RoutingSpace, effective_via_type, effective_wire_type
from repro.flow.resilience import DeadlineExceeded
from repro.grid.shapegrid import RipupLevel
from repro.grid.trackgraph import Vertex
from repro.tech.wiring import StickFigure
from repro.util.unionfind import UnionFind

#: Use pi_P when the GR corridor detour reaches this factor over the l1
#: distance (Sec. 4.1: "only if the global routing for this connection
#: already contains a large detour").
DETOUR_THRESHOLD = 1.8


class ConnectionStats:
    """Counters for one net's routing."""

    def __init__(self) -> None:
        self.searches = 0
        self.failed_searches = 0
        self.ripup_searches = 0
        self.labels = 0
        self.used_pi_p = 0
        self.used_pi_gr = 0

    def merge(self, other: "ConnectionStats") -> None:
        self.searches += other.searches
        self.failed_searches += other.failed_searches
        self.ripup_searches += other.ripup_searches
        self.labels += other.labels
        self.used_pi_p += other.used_pi_p
        self.used_pi_gr += other.used_pi_gr


class ConnectionResult:
    def __init__(self, net_name: str) -> None:
        self.net_name = net_name
        self.success = False
        self.open_connections = 0
        self.ripped_nets: Set[str] = set()
        self.stats = ConnectionStats()
        #: Set when a soft deadline expired mid-search; no new wiring was
        #: committed for this net (the routing space stays consistent).
        self.deadline_expired = False

    def __repr__(self) -> str:
        return (
            f"ConnectionResult({self.net_name}, success={self.success}, "
            f"opens={self.open_connections}, ripped={sorted(self.ripped_nets)})"
        )


class NetConnector:
    """Routes one net at a time over a shared :class:`RoutingSpace`."""

    #: Steer corridor-restricted searches with the corridor future cost
    #: pi_GR (arXiv:2111.06169) instead of the classic pi_H / pi_P choice.
    #: The ISR fallback connector turns it off to keep its baseline
    #: independent of pi_GR.
    corridor_future_cost = True

    def __init__(
        self,
        space: RoutingSpace,
        costs: Optional[SearchCosts] = None,
        access_paths: Optional[Dict[str, AccessPath]] = None,
        planner=None,
        use_interval_search: bool = True,
        spreading=None,
        fault_injector=None,
    ) -> None:
        self.space = space
        self.costs = costs if costs is not None else SearchCosts()
        #: Primary (reserved) access path per pin name (Sec. 4.3).
        self.access_paths = access_paths if access_paths is not None else {}
        #: Pin access planner for dynamically generated paths (Sec. 4.4:
        #: "we dynamically generate new access paths").
        self.planner = planner
        self.use_interval_search = use_interval_search
        #: Base cost of crossing foreign wiring: 20 bottom-layer pitches.
        self.ripup_base_penalty = 20 * space.chip.stack[space.chip.stack.bottom].pitch
        #: Per-vertex ripup history: penalties grow on reuse (Sec. 4.2).
        self.ripup_history: Dict[Vertex, int] = {}
        #: Optional WireSpreading model: extra costs on keep-free
        #: intervals (Sec. 4.2).
        self.spreading = spreading
        #: Optional FaultInjector checked at the path-search boundary.
        self.fault_injector = fault_injector

    # ------------------------------------------------------------------
    # Component connection vertices
    # ------------------------------------------------------------------
    def _pin_vertices(self, pin: Pin) -> Set[Vertex]:
        """On-track vertices where the pin can be contacted directly."""
        graph = self.space.graph
        out: Set[Vertex] = set()
        for layer, rect in pin.shapes:
            if not graph.stack.has_layer(layer):
                continue
            out.update(
                graph.vertices_in_rect(layer, rect.x_lo, rect.y_lo, rect.x_hi, rect.y_hi)
            )
        access = self.access_paths.get(pin.name)
        if access is not None and self._access_still_valid(access):
            out.add(access.endpoint)
        return out

    def _access_still_valid(self, access: AccessPath) -> bool:
        """Re-check a reserved access path against later-routed nets.

        The paper re-validates reserved paths "for diff-net rule
        violations to earlier routed nets" before using them (Sec. 4.4);
        a stale endpoint would let the search connect through blocked
        metal.
        """
        # Access paths are always built with the standard wire type
        # (escape wiring, Sec. 4.3).
        for stick in access.sticks():
            if not self.space.check_wire("default", stick, access.net_name).legal:
                return False
        if access.via is not None:
            if not self.space.check_via(
                "default", access.via, access.net_name
            ).legal:
                return False
        return True

    def _stick_vertices(self, stick: StickFigure) -> Set[Vertex]:
        graph = self.space.graph
        rect = stick.as_rect()
        if not graph.stack.has_layer(stick.layer):
            return set()
        return set(
            graph.vertices_in_rect(
                stick.layer, rect.x_lo, rect.y_lo, rect.x_hi, rect.y_hi
            )
        )

    def _via_vertices(self, via: ViaInstance) -> Set[Vertex]:
        graph = self.space.graph
        out = set()
        for z in (via.via_layer, via.via_layer + 1):
            vertex = graph.vertex_at(via.x, via.y, z)
            if vertex is not None:
                out.add(vertex)
        return out

    # ------------------------------------------------------------------
    # Path conversion
    # ------------------------------------------------------------------
    def _path_to_route_items(
        self, vertices: Sequence[Vertex]
    ) -> Tuple[List[StickFigure], List[ViaInstance]]:
        graph = self.space.graph
        sticks: List[StickFigure] = []
        vias: List[ViaInstance] = []
        moves = path_to_moves(graph, vertices)
        # Compress runs of wire moves on the same track into single sticks.
        index = 0
        while index < len(moves):
            kind, v, w = moves[index]
            if kind == "via":
                x, y, _ = graph.position(v)
                vias.append(ViaInstance(min(v[0], w[0]), x, y))
                index += 1
                continue
            # Merge consecutive same-kind moves along the same line.
            start = v
            end = w
            while index + 1 < len(moves):
                nkind, nv, nw = moves[index + 1]
                if nkind != kind or nv != end:
                    break
                same_line = (
                    (nv[0] == end[0] and nv[1] == end[1] and kind == "wire")
                    or (nv[0] == end[0] and nv[2] == end[2] and kind == "jog")
                )
                if not same_line:
                    break
                end = nw
                index += 1
            x0, y0, z0 = graph.position(start)
            x1, y1, _z1 = graph.position(end)
            sticks.append(StickFigure(z0, x0, y0, x1, y1))
            index += 1
        return sticks, vias

    # ------------------------------------------------------------------
    # One source-target connection
    # ------------------------------------------------------------------
    def _search(
        self,
        net: Net,
        sources: Set[Vertex],
        targets: Set[Vertex],
        area: RoutingArea,
        ripup_level: int,
        use_pi_p: bool,
        stats: ConnectionStats,
        deadline=None,
    ) -> Optional[SearchResult]:
        if self.fault_injector is not None:
            self.fault_injector.check("path_search", net=net.name)
        view = GraphView(
            self.space,
            net.wire_type,
            area,
            ripup_level=ripup_level,
            forced_vertices=set(sources) | set(targets),
            ripup_history=self.ripup_history,
            ripup_base_penalty=self.ripup_base_penalty,
            spreading_penalty=(
                self.spreading.interval_penalty if self.spreading else None
            ),
        )
        target_list = sorted(targets)
        if self.corridor_future_cost and area.boxes is not None:
            # The corridor-tightened bound (arXiv:2111.06169): cheap
            # enough to build for every corridor-restricted connection,
            # and it dominates both classic bounds, so the pi_P detour
            # gate becomes moot on this path.  Passing the view reuses
            # its interval decomposition as the open-vertex set (every
            # blockage and foreign wire accounted for), and the sources
            # bound the backward sweep.
            pi = FutureCostGR(
                self.space.graph, target_list, self.costs, view,
                stop_vertices=sources,
            )
            stats.used_pi_gr += 1
            if OBS.enabled:
                OBS.count("pathsearch.kernel.pi_gr_searches")
        elif use_pi_p:
            large = [
                (layer, rect)
                for layer, rect, _owner in self.space.chip.obstruction_shapes()
            ]
            pi = FutureCostP(self.space.graph, target_list, self.costs, area, large)
            stats.used_pi_p += 1
        else:
            pi = FutureCostH(self.space.graph, target_list, self.costs)
        search = interval_path_search if self.use_interval_search else node_path_search
        stats.searches += 1
        result = search(
            view, {s: 0 for s in sources}, targets, self.costs, pi,
            deadline=deadline,
        )
        if result is not None:
            stats.labels += result.stats.labels_pushed
        else:
            stats.failed_searches += 1
        return result

    def rip_net(self, net_name: str) -> None:
        """Remove a net's wiring *and* forget its reserved access paths.

        A ripped reservation must not keep feeding stale endpoints into
        later S/T constructions; the rerouted net regenerates access
        dynamically (Sec. 4.4).
        """
        self.space.remove_net_route(net_name)
        stale = [
            pin_name
            for pin_name, access in self.access_paths.items()
            if access.net_name == net_name
        ]
        for pin_name in stale:
            del self.access_paths[pin_name]

    def _blockers_of_path(
        self, net: Net, sticks: Sequence[StickFigure], vias: Sequence[ViaInstance]
    ) -> Set[str]:
        blockers: Set[str] = set()
        chip = self.space.chip
        for stick in sticks:
            type_name = effective_wire_type(chip, net.wire_type, stick.layer)
            if type_name is None:
                continue
            check = self.space.check_wire(type_name, stick, net.name)
            blockers.update(check.blockers)
        for via in vias:
            type_name = effective_via_type(chip, net.wire_type, via.via_layer)
            if type_name is None:
                continue
            check = self.space.check_via(type_name, via, net.name)
            blockers.update(check.blockers)
        blockers.discard(net.name)
        return blockers

    # ------------------------------------------------------------------
    # Full net connection
    # ------------------------------------------------------------------
    def connect_net(
        self,
        net: Net,
        area: Optional[RoutingArea] = None,
        max_ripup_level: int = -2,
        corridor_detour: float = 1.0,
        deadline=None,
        force_off_track_access: bool = False,
    ) -> ConnectionResult:
        """Connect all pins of ``net`` inside ``area``.

        ``max_ripup_level``: -2 forbids ripup; otherwise the deepest
        foreign ripup level the searches may cross.  ``corridor_detour``
        is the GR corridor's detour factor, used to pick pi_P over pi_H.
        ``deadline`` aborts searches mid-run without committing any new
        wiring; ``force_off_track_access`` generates off-track access
        paths even for pins with on-track vertices (escalation rung b).
        """
        result = ConnectionResult(net.name)
        if area is None:
            area = RoutingArea.everywhere()
        use_pi_p = corridor_detour >= DETOUR_THRESHOLD

        # Component bookkeeping: pins grouped by what is already connected.
        vertex_sets: Dict[int, Set[Vertex]] = {
            i: self._pin_vertices(pin) for i, pin in enumerate(net.pins)
        }
        # Pre-existing route wiring (e.g. a track-assignment segment or a
        # partially ripped route) forms additional components that must be
        # tied in, or it would end up floating.
        existing = self.space.routes.get(net.name)
        member_count = len(net.pins)
        if existing is not None:
            for stick in existing.wires:
                vertices = self._stick_vertices(stick)
                if vertices:
                    vertex_sets[member_count] = vertices
                    member_count += 1
            for via in existing.vias:
                vertices = self._via_vertices(via)
                if vertices:
                    vertex_sets[member_count] = vertices
                    member_count += 1
        components = UnionFind(range(member_count))
        # Dynamically generated access paths for pins without reserved
        # access: their endpoints join S/T, and the chosen path is
        # committed once a search actually connects through it.
        dynamic_access: Dict[Vertex, AccessPath] = {}
        if self.planner is not None:
            for i, pin in enumerate(net.pins):
                if vertex_sets[i] and not force_off_track_access:
                    continue
                paths = self.planner.build_catalogue(pin)
                if not paths:
                    paths = self.planner.build_catalogue(
                        pin, radius_pitches=2 * self.planner.radius_pitches
                    )
                if not paths:
                    paths = self.planner.jumper_fallback(pin)
                if not paths:
                    # Concede a violating jumper to the DRC cleanup step
                    # rather than leaving the pin open (Sec. 5.2).
                    paths = self.planner.jumper_fallback(pin, require_legal=False)
                for path in paths:
                    dynamic_access[path.endpoint] = path
                    vertex_sets[i].add(path.endpoint)
        # Existing route pieces (reserved access paths) belong to their
        # pin's component; the main route is built fresh here.
        token = self.space.suspend_net(net.name)
        try:
            new_sticks_all: List[Tuple[StickFigure, bool]] = []
            new_vias_all: List[Tuple[ViaInstance, bool]] = []
            failed_sources: Set[int] = set()
            try:
                self._connect_components(
                    net, area, max_ripup_level, use_pi_p, deadline,
                    vertex_sets, member_count, components, dynamic_access,
                    failed_sources, new_sticks_all, new_vias_all, result,
                    guard_limit=member_count * 3,
                )
            except DeadlineExceeded:
                # Abort without committing anything found so far: the
                # space holds no half-inserted wires (searches never
                # mutate it), and ripped victims are reported so the
                # router requeues them.
                result.deadline_expired = True
                new_sticks_all.clear()
                new_vias_all.clear()
            result.success = components.component_count == 1
            if not result.success:
                result.open_connections = max(
                    result.open_connections, components.component_count - 1
                )
        finally:
            self.space.restore_net(token)
        if result.deadline_expired:
            return result
        level = (
            int(RipupLevel.CRITICAL) if net.weight > 1.0 else int(RipupLevel.NORMAL)
        )
        chip = self.space.chip
        for stick, off_track in new_sticks_all:
            type_name = (
                effective_wire_type(chip, net.wire_type, stick.layer)
                or net.wire_type
            )
            self.space.add_wire(net.name, type_name, stick, level, off_track=off_track)
        for via, off_track in new_vias_all:
            type_name = (
                effective_via_type(chip, net.wire_type, via.via_layer)
                or net.wire_type
            )
            self.space.add_via(net.name, type_name, via, level, off_track=off_track)
        return result

    def _connect_components(
        self,
        net: Net,
        area: RoutingArea,
        max_ripup_level: int,
        use_pi_p: bool,
        deadline,
        vertex_sets: Dict[int, Set[Vertex]],
        member_count: int,
        components: UnionFind,
        dynamic_access: Dict[Vertex, "AccessPath"],
        failed_sources: Set[int],
        new_sticks_all: List[Tuple[StickFigure, bool]],
        new_vias_all: List[Tuple[ViaInstance, bool]],
        result: ConnectionResult,
        guard_limit: int,
    ) -> None:
        """The source/target iteration of Sec. 4.4 (extracted so a
        deadline can abort it as one unit)."""
        guard = 0
        while components.component_count > 1 and guard <= guard_limit:
            if deadline is not None:
                deadline.check()
            guard += 1
            comp_vertices: Dict[int, Set[Vertex]] = {}
            for i in range(member_count):
                root = components.find(i)
                in_area = {
                    v for v in vertex_sets[i]
                    if area.contains_vertex(self.space.graph, v)
                }
                comp_vertices.setdefault(root, set()).update(in_area)
            viable = sorted(r for r, vs in comp_vertices.items() if vs)
            if len(viable) < 2:
                # At most one component is reachable at all: the rest
                # stay open (counted below).
                result.open_connections = components.component_count - 1
                break
            candidates = [r for r in viable if r not in failed_sources]
            if not candidates:
                result.open_connections = components.component_count - 1
                break
            source_root = candidates[0]
            sources = comp_vertices[source_root]
            target_map: Dict[Vertex, int] = {}
            for i in range(member_count):
                root = components.find(i)
                if root == source_root or root not in viable:
                    continue
                for vertex in vertex_sets[i]:
                    if area.contains_vertex(self.space.graph, vertex):
                        target_map[vertex] = i
            targets = set(target_map)
            search_result = self._search(
                net, sources, targets, area, -2, use_pi_p, result.stats,
                deadline=deadline,
            )
            ripped_this_path: Set[str] = set()
            if search_result is None and max_ripup_level >= 0:
                result.stats.ripup_searches += 1
                search_result = self._search(
                    net, sources, targets, area, max_ripup_level,
                    use_pi_p, result.stats, deadline=deadline,
                )
            if search_result is None:
                # This component cannot reach the others; try another
                # source before giving up.
                failed_sources.add(source_root)
                continue
            sticks, vias = self._path_to_route_items(search_result.vertices)
            for vertex in search_result.ripup_vertices:
                self.ripup_history[vertex] = self.ripup_history.get(vertex, 0) + 1
            blockers = self._blockers_of_path(net, sticks, vias)
            for blocker in sorted(blockers):
                self.rip_net(blocker)
                ripped_this_path.add(blocker)
            result.ripped_nets |= ripped_this_path
            sticks = postprocess_path(
                self.space, net.name,
                lambda z: effective_wire_type(self.space.chip, net.wire_type, z)
                or net.wire_type,
                sticks,
            )
            # New shapes are committed only after the whole net is
            # done (and its suspended shapes restored), so the net's
            # own fresh wiring never blocks its remaining searches.
            new_sticks_all.extend((stick, False) for stick in sticks)
            new_vias_all.extend((via, False) for via in vias)
            # Commit dynamically generated access paths the search
            # actually connected through (Sec. 4.4).
            for endpoint_vertex in (
                search_result.vertices[0],
                search_result.vertices[-1],
            ):
                access = dynamic_access.pop(endpoint_vertex, None)
                if access is None:
                    continue
                # Fallback jumpers over removable foreign wiring rip
                # that wiring out; the router requeues those nets.
                for blocker in sorted(access.blockers):
                    if blocker == net.name:
                        continue
                    self.rip_net(blocker)
                    result.ripped_nets.add(blocker)
                new_sticks_all.extend(
                    (stick, True) for stick in access.sticks()
                )
                if access.via is not None:
                    new_vias_all.append((access.via, True))
            # Merge components: the reached target belongs to one pin.
            reached = search_result.vertices[-1]
            target_pin = target_map.get(reached)
            if target_pin is None:
                # Bulk-processed run endpoint: find any target vertex
                # on the final path.
                for vertex in reversed(search_result.vertices):
                    if vertex in target_map:
                        target_pin = target_map[vertex]
                        break
            if target_pin is None:
                result.open_connections = components.component_count - 1
                break
            source_pin = next(
                i for i in range(member_count)
                if components.find(i) == source_root
            )
            components.union(source_pin, target_pin)
            failed_sources.clear()  # a merge changes reachability
            # The new path's vertices join the merged component.
            merged_root = components.find(source_pin)
            path_vertices = set(search_result.vertices)
            for i in range(member_count):
                if components.find(i) == merged_root:
                    vertex_sets[i] |= path_vertices
