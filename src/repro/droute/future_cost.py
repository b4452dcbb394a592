"""Future costs for the on-track path search (Sec. 4.1).

A future cost pi is a consistent potential: c_pi((v, w)) = c((v, w)) -
pi(v) + pi(w) >= 0 for every edge and pi(t) = 0 for every target.  Then
pi(v) lower-bounds the distance from v to the target set, and Dijkstra on
the reduced costs labels far fewer vertices.

* ``FutureCostH`` (Hetzel): l1 distance to the targets' bounding
  rectangles plus the cheapest via chain to a target layer.  Independent
  of the graph's blockage structure.
* ``FutureCostP`` (Peyer et al.): shortest-path distances in a coarse
  supergraph that keeps large blockages, always >= pi_H; used when the
  global route already contains a large detour.
* ``FutureCostGR`` (after Ahrens-Henke-Rabenstein-Vygen,
  arXiv:2111.06169): exact backward distances over the forward search's
  own graph view - the net's global-routing corridor with every blockage
  and foreign wire accounted for.  The search is restricted to that view
  anyway, so the distances are a valid - and much tighter - lower bound
  whenever the corridor bends, jogs cost more than preferred-direction
  wire, or a blockage forces a detour; and because the backward sweep
  stops at the first settled source, it is cheap enough to build for
  *every* corridor-restricted connection, not only the heavily detoured
  ones that justify pi_P.

Admissibility argument for pi_GR: it is computed as exact shortest-path
distances from the target set in a supergraph G' of the search graph G:
the same open vertices, every edge between two of them (whether or not
G may use it), each at G's cost - base cost plus the entry penalty of
the interval the forward step moves into.  Exact distances in a
supergraph lower-bound distances in the graph, and are consistent:
dist'(v) <= c'(v,w) + dist'(w) <= c(v,w) + dist'(w).  pi_H never
exceeds dist': it lower-bounds distances in the full track graph at base
cost, and G' is a subgraph of it with costs at least the base costs
(penalties are non-negative).  So a known dist' is returned as is, and
max(pi_H, bound) only fills in vertices beyond a truncated sweep.
A vertex G' cannot reach the targets from is disconnected in G too, so
UNREACHABLE is a proof there, not merely a penalty as with pi_P.

>>> from repro.chip.generator import ChipSpec, generate_chip
>>> from repro.droute.space import RoutingSpace
>>> space = RoutingSpace(generate_chip(
...     ChipSpec("fcdoc", rows=1, row_width_cells=3, net_count=2, seed=7)))
>>> graph = space.graph
>>> z = graph.stack.bottom + 1
>>> t = (z, 1, 4)
>>> pi_h = FutureCostH(graph, [t], SearchCosts())
>>> pi_h(t)
0
>>> from repro.droute.area import RoutingArea
>>> from repro.droute.intervals import GraphView
>>> s = (z, 0, 0)
>>> view = GraphView(space, "default", RoutingArea.everywhere(),
...                  forced_vertices={s, t})
>>> pi_gr = FutureCostGR(graph, [t], SearchCosts(), view)
>>> pi_gr(t)
0
>>> pi_gr(s) >= pi_h(s)  # the search-graph bound dominates plain l1
True
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.droute.area import RoutingArea
from repro.geometry.rect import Rect
from repro.grid.trackgraph import TrackGraph, Vertex
from repro.tech.layers import Direction
from repro.util.heap import AddressableHeap


UNREACHABLE = 1 << 50


class SearchCosts:
    """Edge cost parameters of the track-graph metric (Sec. 4.1).

    Wires in preferred direction cost their l1 length; jogs cost
    ``jog_factor`` times their length (beta_z); a via costs ``via_cost``
    (gamma).  One jog factor and one via cost serve every layer of the
    example technology.
    """

    def __init__(self, jog_factor: int = 2, via_cost: int = 160) -> None:
        if jog_factor < 1:
            raise ValueError("jog factor below 1 breaks the l1 lower bound")
        if via_cost < 0:
            raise ValueError("via cost must be non-negative")
        self.jog_factor = jog_factor
        self.via_cost = via_cost

    def jog(self, layer: int, length: int) -> int:
        return self.jog_factor * length

    def wire(self, layer: int, length: int) -> int:
        return length

    def via(self, via_layer: int) -> int:
        return self.via_cost

    def edge_cost(self, kind: str, layer_or_via: int, length: int) -> int:
        if kind == "wire":
            return self.wire(layer_or_via, length)
        if kind == "jog":
            return self.jog(layer_or_via, length)
        return self.via(layer_or_via)


class FutureCostH:
    """pi_H: l1 distance to target rectangles + cheapest via chain.

    The wire part is the minimum l1 distance from the vertex to any
    target box; the via part the minimum via-chain cost from its layer
    to a layer containing targets.  Computation is O(|T_rect|) per
    query; with the small target-rect counts of routing connections this
    matches the paper's point-location bound in practice.  Queries read
    the vertex position straight from the graph's track and cross lists.
    """

    def __init__(
        self,
        graph: TrackGraph,
        targets: Iterable[Vertex],
        costs: SearchCosts,
    ) -> None:
        self.graph = graph
        self.costs = costs
        self.target_rects: List[Rect] = []
        target_layers = set()
        for vertex in targets:
            x, y, z = graph.position(vertex)
            self.target_rects.append(Rect(x, y, x, y))
            target_layers.add(z)
        if not self.target_rects:
            raise ValueError("future cost needs at least one target")
        self.target_rects = _coalesce_rects(self.target_rects)
        self._boxes = tuple(rect.as_tuple() for rect in self.target_rects)
        self._lb_via = self._via_lower_bounds(target_layers)
        self._horizontal = {
            z: graph.stack.direction(z) is Direction.HORIZONTAL
            for z in graph.stack.indices
        }
        self._tracks = graph.tracks
        self._crosses = graph.crosses

    def _via_lower_bounds(self, target_layers) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for z in self.graph.stack.indices:
            best = None
            for zt in target_layers:
                lo, hi = min(z, zt), max(z, zt)
                chain = sum(self.costs.via(v) for v in range(lo, hi))
                best = chain if best is None else min(best, chain)
            out[z] = best if best is not None else 0
        return out

    def __call__(self, vertex: Vertex) -> int:
        z, t, c = vertex
        if self._horizontal[z]:
            x = self._crosses[z][c]
            y = self._tracks[z][t]
        else:
            x = self._tracks[z][t]
            y = self._crosses[z][c]
        best = UNREACHABLE
        for x_lo, y_lo, x_hi, y_hi in self._boxes:
            d = x_lo - x if x < x_lo else (x - x_hi if x > x_hi else 0)
            d += y_lo - y if y < y_lo else (y - y_hi if y > y_hi else 0)
            if d < best:
                best = d
        return best + self._lb_via[z]


def _coalesce_rects(rects: List[Rect]) -> List[Rect]:
    """Merge target point-rects that touch into fewer boxes (keeps the
    lower bound valid: a bigger box only lowers distances)."""
    rects = sorted(rects, key=lambda r: (r.y_lo, r.x_lo))
    merged: List[Rect] = []
    for rect in rects:
        if merged and merged[-1].expanded(1).intersects(rect):
            merged[-1] = merged[-1].hull(rect)
        else:
            merged.append(rect)
    return merged


class FutureCostP:
    """pi_P: blockage-aware future cost (Peyer et al. [2009]).

    Computes exact backward distances from the target set in a
    *supergraph* G' of the search graph: the same track graph and edge
    costs, but with only the *large* blockages kept (obstacles whose
    smaller dimension is below 4 bottom-layer pitches are ignored).
    Every edge of the real search graph exists in G' with equal cost, so
    dist_{G'}(v, T) is a consistent potential with dist_{G'} <= dist_G,
    and by construction pi_P >= pi_H would hold if G' had no extra
    freedom - we return max(pi_H, dist_{G'}) to guarantee it.

    As the paper notes, computing pi_P costs a full (cheap-usability)
    Dijkstra over the routing area, so it is only worth it for
    connections whose global route already contains a large detour.
    """

    def __init__(
        self,
        graph: TrackGraph,
        targets: Sequence[Vertex],
        costs: SearchCosts,
        area: RoutingArea,
        large_blockages: Sequence[Tuple[int, Rect]],
    ) -> None:
        self.graph = graph
        self.pi_h = FutureCostH(graph, targets, costs)
        self.costs = costs
        self._blocked = _large_blockage_map(
            large_blockages, 4 * graph.stack[graph.stack.bottom].pitch
        )
        self._dist: Dict[Vertex, int] = {}
        self._build(targets, area)

    def _vertex_open(self, vertex: Vertex, area: RoutingArea) -> bool:
        x, y, z = self.graph.position(vertex)
        if not area.contains(x, y, z):
            return False
        for rect in self._blocked.get(z, ()):
            # Interior containment: wires may run on blockage borders.
            if rect.x_lo < x < rect.x_hi and rect.y_lo < y < rect.y_hi:
                return False
        return True

    def _build(self, targets: Sequence[Vertex], area: RoutingArea) -> None:
        graph = self.graph
        heap = AddressableHeap()
        dist = self._dist
        for vertex in targets:
            dist[vertex] = 0
            heap.push(vertex, 0)
        while heap:
            vertex, d = heap.pop()
            if d > dist.get(vertex, UNREACHABLE):
                continue
            z, _t, _c = vertex
            for neighbour, kind, length in graph.neighbors(vertex):
                if not self._vertex_open(neighbour, area):
                    continue
                layer_or_via = min(z, neighbour[0]) if kind == "via" else z
                nd = d + self.costs.edge_cost(kind, layer_or_via, length)
                if nd < dist.get(neighbour, UNREACHABLE):
                    dist[neighbour] = nd
                    heap.push(neighbour, nd)

    def __call__(self, vertex: Vertex) -> int:
        h = self.pi_h(vertex)
        d = self._dist.get(vertex)
        if d is None:
            # Not reachable even ignoring small blockages: the real search
            # cannot reach the targets from here either.
            return UNREACHABLE
        return max(h, d)


def _large_blockage_map(
    large_blockages: Sequence[Tuple[int, Rect]], threshold: int
) -> Dict[int, List[Rect]]:
    out: Dict[int, List[Rect]] = {}
    for layer, rect in large_blockages:
        if min(rect.width, rect.height) >= threshold:
            out.setdefault(layer, []).append(rect)
    return out


class FutureCostGR:
    """pi_GR: exact backward distances over the forward search's graph
    (arXiv:2111.06169 direction).

    ``view`` is the :class:`~repro.droute.intervals.GraphView` the
    forward search runs on.  Its interval decomposition is the exact
    open-vertex set (area-restricted and usability-filtered at vertex
    granularity) and carries the interval entry penalties the forward
    metric charges.  Openness is probed on demand through the view's
    lazy per-track cache, which the forward search shares; through it
    both sweeps also share the space's cross-search ``IntervalCache``.

    The backward Dijkstra runs from the targets with a plain C heap over
    ``(d, vertex)`` entries and stops at the first settled vertex of
    ``stop_vertices`` (the sources).  It works on flat tables: the
    view's per-track interval maps, the graph's via partner tables and
    the two cost constants, with the wire, jog and via relaxations
    written out.  A known distance is returned as is: pi_H lower-bounds
    full-graph distances, which lower-bound the supergraph distance, so
    it never exceeds it.  An open vertex beyond the truncation frontier
    gets ``max(pi_H, frontier)``.  See the module docstring for
    admissibility.
    """

    #: The backward sweep covers exactly the forward search's vertex
    #: set, so UNREACHABLE proves disconnection and the search may prune
    #: such labels instead of exhausting the frontier.
    unreachable_is_proof = True

    def __init__(
        self,
        graph: TrackGraph,
        targets: Sequence[Vertex],
        costs: SearchCosts,
        view,
        stop_vertices: Iterable[Vertex] = (),
    ) -> None:
        self.graph = graph
        self.pi_h = FutureCostH(graph, targets, costs)
        self.costs = costs
        self._dist: Dict[Vertex, int] = {}
        #: Truncation bound: when the backward Dijkstra stopped early
        #: (a stop vertex settled), open vertices without a distance are
        #: at distance >= this, so max(pi_H, bound) stays admissible.
        self._truncated_at: Optional[int] = None
        self._view = view
        self._build_view(targets, view, stop_vertices)

    def _build_view(
        self,
        targets: Sequence[Vertex],
        view,
        stop_vertices: Iterable[Vertex],
    ) -> None:
        """Backward Dijkstra over the view's open vertices.

        Edge costs match the forward metric exactly where both graphs
        have the edge: base cost plus the entry penalty of the interval
        the *forward* step moves into (the popped vertex's interval,
        seen backward).  Edge usability is ignored - a supergraph - so
        distances stay lower bounds; penalties are charged identically,
        so the bound is tight even on spreading- or ripup-penalised
        terrain.

        Tracks are decomposed lazily, in ``TrackGraph.neighbors`` order
        (wire, jog, via; lower side first), which fixes the view's
        interval numbering.
        """
        graph = self.graph
        tracks = graph.tracks
        crosses = graph.crosses
        via_down = {z: graph.via_tables.get((z, z - 1)) for z in tracks}
        via_up = {z: graph.via_tables.get((z, z + 1)) for z in tracks}
        jog_factor = self.costs.jog_factor
        via_cost = self.costs.via_cost
        track_maps = view._track_maps
        intervals = view._intervals
        build_track = view.track_intervals
        dist = self._dist
        get = dist.get
        push = heapq.heappush
        pop = heapq.heappop
        #: Truncate at the *first* settled source: every vertex within
        #: that backward radius - in particular the whole optimal path
        #: from the nearest source - already has its exact distance, and
        #: the sweep stays as small as the forward search region.
        stop_set = set(stop_vertices)
        heap: List[Tuple[int, Vertex]] = []
        for vertex in targets:
            dist[vertex] = 0
            heap.append((0, vertex))
        heapq.heapify(heap)
        while heap:
            d, vertex = pop(heap)
            if d > get(vertex, UNREACHABLE):
                continue
            if vertex in stop_set:
                # Every vertex with a label below d is settled; a label
                # equal to d is exact too (its true distance is >= d).
                # Larger tentative labels may overestimate - drop them
                # so queries fall through to the truncation bound.
                self._truncated_at = d
                self._dist = {v: dv for v, dv in dist.items() if dv <= d}
                return
            z, t, c = vertex
            cmap = track_maps.get((z, t))
            if cmap is None:
                build_track(z, t)
                cmap = track_maps[(z, t)]
            own = cmap[c]
            # The forward step into the popped vertex's interval pays its
            # penalty; a jog or via always enters from another track.
            penalty = intervals[own].penalty if own >= 0 else 0
            line = crosses[z]
            if c > 0:
                n = cmap[c - 1]
                if n >= 0:
                    nd = d + line[c] - line[c - 1]
                    if n != own:
                        nd += penalty
                    neighbour = (z, t, c - 1)
                    if nd < get(neighbour, UNREACHABLE):
                        dist[neighbour] = nd
                        push(heap, (nd, neighbour))
            if c + 1 < len(line):
                n = cmap[c + 1]
                if n >= 0:
                    nd = d + line[c + 1] - line[c]
                    if n != own:
                        nd += penalty
                    neighbour = (z, t, c + 1)
                    if nd < get(neighbour, UNREACHABLE):
                        dist[neighbour] = nd
                        push(heap, (nd, neighbour))
            line = tracks[z]
            if t > 0:
                nmap = track_maps.get((z, t - 1))
                if nmap is None:
                    build_track(z, t - 1)
                    nmap = track_maps[(z, t - 1)]
                if nmap[c] >= 0:
                    nd = d + jog_factor * (line[t] - line[t - 1]) + penalty
                    neighbour = (z, t - 1, c)
                    if nd < get(neighbour, UNREACHABLE):
                        dist[neighbour] = nd
                        push(heap, (nd, neighbour))
            if t + 1 < len(line):
                nmap = track_maps.get((z, t + 1))
                if nmap is None:
                    build_track(z, t + 1)
                    nmap = track_maps[(z, t + 1)]
                if nmap[c] >= 0:
                    nd = d + jog_factor * (line[t + 1] - line[t]) + penalty
                    neighbour = (z, t + 1, c)
                    if nd < get(neighbour, UNREACHABLE):
                        dist[neighbour] = nd
                        push(heap, (nd, neighbour))
            nd = d + via_cost + penalty
            table = via_down[z]
            if table is not None:
                pt = table[0][c]
                pc = table[1][t]
                if pt is not None and pc is not None:
                    nmap = track_maps.get((z - 1, pt))
                    if nmap is None:
                        build_track(z - 1, pt)
                        nmap = track_maps[(z - 1, pt)]
                    neighbour = (z - 1, pt, pc)
                    if nmap[pc] >= 0 and nd < get(neighbour, UNREACHABLE):
                        dist[neighbour] = nd
                        push(heap, (nd, neighbour))
            table = via_up[z]
            if table is not None:
                pt = table[0][c]
                pc = table[1][t]
                if pt is not None and pc is not None:
                    nmap = track_maps.get((z + 1, pt))
                    if nmap is None:
                        build_track(z + 1, pt)
                        nmap = track_maps[(z + 1, pt)]
                    neighbour = (z + 1, pt, pc)
                    if nmap[pc] >= 0 and nd < get(neighbour, UNREACHABLE):
                        dist[neighbour] = nd
                        push(heap, (nd, neighbour))

    def __call__(self, vertex: Vertex) -> int:
        d = self._dist.get(vertex)
        if d is not None:
            return d
        if (
            self._truncated_at is not None
            and self._view.interval_at(vertex) is not None
        ):
            # Open but beyond the truncation frontier:
            # dist' >= the frontier bound, still a valid lower bound.
            return max(self.pi_h(vertex), self._truncated_at)
        return UNREACHABLE
