"""On-track shortest path search (Sec. 4.1, Algorithm 4).

Two search procedures over the same :class:`GraphView`:

* :func:`interval_path_search` - the interval-based goal-oriented
  Dijkstra of Hetzel [1998] / Peyer et al. [2009].  Queue events are
  *labels* anchored at interval vertices; when a label is settled, the
  whole zero-reduced-cost run it induces inside its interval is processed
  in bulk (the J_I(delta) frontier of Algorithm 4), and one lazy
  continuation label per climbing direction keeps the remaining interval
  vertices implicit.  Vertices whose distance never reaches the frontier
  before termination are never touched - the source of the paper's >= 6x
  speed-up over node labelling.
* :func:`node_path_search` - the classical one-vertex-per-label Dijkstra
  used as the correctness reference and the ablation baseline.

Both use a future cost (potential) pi with pi(t) = 0 on targets and
reduced edge costs c_pi >= 0; both return the same optimal costs.

Both procedures keep their labels in one heap frontier: a C ``heapq``
binary heap with lazy deletion and dict-backed labels.

Label semantics: a label is ``(vertex, d)`` where ``d`` is the reduced
distance ``dist(s, v) + pi(v)`` (plus source offsets and interval
penalties).  Ties are broken FIFO by insertion order, so a search is
deterministic: the same instance always returns the identical vertex
path (``tests/pathsearch_golden.json`` pins those paths down).  The
interval search returns the node search's optimal cost:

>>> from repro.chip.generator import ChipSpec, generate_chip
>>> from repro.droute.area import RoutingArea
>>> from repro.droute.future_cost import FutureCostH, SearchCosts
>>> from repro.droute.intervals import GraphView
>>> from repro.droute.space import RoutingSpace
>>> space = RoutingSpace(generate_chip(
...     ChipSpec("doc", rows=1, row_width_cells=3, net_count=2, seed=7)))
>>> z = space.graph.stack.bottom + 1
>>> s, t = (z, 0, 0), (z, 1, 4)
>>> costs, pi = SearchCosts(), FutureCostH(space.graph, [t], SearchCosts())
>>> view = GraphView(space, "default", RoutingArea.everywhere(),
...                  forced_vertices={s, t})
>>> a = interval_path_search(view, {s: 0}, {t}, costs, pi)
>>> b = node_path_search(view, {s: 0}, {t}, costs, pi)
>>> a.cost == b.cost
True
>>> a.stats.pops < b.stats.pops
True
>>> a.vertices[0] == s and a.vertices[-1] == t
True
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.droute.future_cost import UNREACHABLE, SearchCosts
from repro.droute.intervals import GraphView, SearchInterval
from repro.grid.trackgraph import Vertex
from repro.obs import OBS

INFINITY = 1 << 60

#: A soft deadline is polled once per this many queue pops: frequent
#: enough that an expiring search stops promptly, rare enough that the
#: clock read never shows up in profiles.
DEADLINE_CHECK_STRIDE = 64


class SearchStats:
    """Instrumentation for the interval-vs-node comparison (Sec. 4.1)."""

    __slots__ = (
        "labels_pushed",
        "vertices_processed",
        "pops",
        "interval_runs",
        "stale_pops",
    )

    def __init__(self) -> None:
        self.labels_pushed = 0
        self.vertices_processed = 0
        self.pops = 0
        #: Zero-reduced-cost runs processed in bulk (interval search only);
        #: each run settles ``vertices_processed / interval_runs`` vertices
        #: per heap pop on average — the Fig. 6 labelling economy.
        self.interval_runs = 0
        #: Queue entries discarded because a better label for the same
        #: vertex was pushed later (the frontier replaces decrease-key with
        #: lazy deletion; ``pops`` counts only the fruitful pops).
        self.stale_pops = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "labels_pushed": self.labels_pushed,
            "vertices_processed": self.vertices_processed,
            "pops": self.pops,
            "interval_runs": self.interval_runs,
            "stale_pops": self.stale_pops,
        }


class _HeapFrontier:
    """The queue and label store of one search: C heapq + dict labels.

    Entries are ``(priority, seq, vertex)``; ``seq`` is the global
    insertion counter, so equal-priority labels pop FIFO.  A better label
    for an already-queued vertex is pushed anew and the old entry is
    skipped on pop (lazy deletion instead of decrease-key).
    """

    __slots__ = ("_dist", "_parent", "_processed", "_heap", "_seq", "stale_pops")

    def __init__(self) -> None:
        self._dist: Dict[Vertex, int] = {}
        self._parent: Dict[Vertex, Optional[Vertex]] = {}
        self._processed: Set[Vertex] = set()
        self._heap: List[Tuple[int, int, Vertex]] = []
        self._seq = 0
        self.stale_pops = 0

    def improve(self, vertex: Vertex, d: int, parent: Optional[Vertex]) -> bool:
        """Record the label if ``d`` beats the current distance (no enqueue)."""
        if d >= self._dist.get(vertex, INFINITY):
            return False
        self._dist[vertex] = d
        self._parent[vertex] = parent
        return True

    def push(self, vertex: Vertex, d: int) -> None:
        heapq.heappush(self._heap, (d, self._seq, vertex))
        self._seq += 1

    def pop(self) -> Optional[Tuple[Vertex, int]]:
        """The minimum live label, FIFO among equal priorities."""
        heap = self._heap
        dist = self._dist
        processed = self._processed
        while heap:
            d, _seq, vertex = heapq.heappop(heap)
            if vertex in processed or d > dist.get(vertex, INFINITY):
                self.stale_pops += 1
                continue
            return vertex, d
        return None

    def is_processed(self, vertex: Vertex) -> bool:
        return vertex in self._processed

    def mark_processed(self, vertex: Vertex) -> None:
        self._processed.add(vertex)

    def reconstruct(self, target: Vertex) -> List[Vertex]:
        path = [target]
        vertex = target
        while True:
            prev = self._parent[vertex]
            if prev is None:
                break
            path.append(prev)
            vertex = prev
        path.reverse()
        return path


def _publish(stats: SearchStats, engine: str) -> None:
    """Fold one search's stats into the global registry (Sec. 4.1 counters).

    Called once per search so the hot loops stay free of observability
    branches; the whole function is behind the caller's ``OBS.enabled``
    check.
    """
    OBS.count("pathsearch.searches")
    OBS.count(f"pathsearch.{engine}_searches")
    OBS.count("pathsearch.labels_pushed", stats.labels_pushed)
    OBS.count("pathsearch.heap_pops", stats.pops)
    OBS.count("pathsearch.vertices_processed", stats.vertices_processed)
    OBS.count("pathsearch.interval_runs", stats.interval_runs)
    OBS.observe("pathsearch.labels_per_search", stats.labels_pushed)
    OBS.count("pathsearch.kernel.stale_pops", stats.stale_pops)


class SearchResult:
    """A shortest S-T path in the search graph."""

    __slots__ = ("cost", "vertices", "stats", "ripup_vertices")

    def __init__(
        self,
        cost: int,
        vertices: List[Vertex],
        stats: SearchStats,
        ripup_vertices: List[Vertex],
    ) -> None:
        #: Total cost including jog/via penalties and ripup penalties.
        self.cost = cost
        #: Vertex sequence from a source to a target.
        self.vertices = vertices
        self.stats = stats
        #: Vertices on the path that require ripping out foreign wiring.
        self.ripup_vertices = ripup_vertices

    def __repr__(self) -> str:
        return f"SearchResult(cost={self.cost}, {len(self.vertices)} vertices)"


def _collect_ripups(view: GraphView, vertices: Sequence[Vertex]) -> List[Vertex]:
    out = []
    for vertex in vertices:
        interval = view.interval_at(vertex)
        if interval is not None and interval.needs_ripup:
            out.append(vertex)
    return out


def interval_path_search(
    view: GraphView,
    sources: Dict[Vertex, int],
    targets: Set[Vertex],
    costs: SearchCosts,
    pi: Callable[[Vertex], int],
    deadline=None,
) -> Optional[SearchResult]:
    """Shortest path by interval labelling (Algorithm 4).

    ``sources`` maps source vertices to non-negative start offsets;
    ``targets`` is the target vertex set (pi must vanish there).
    ``deadline`` (a :class:`repro.flow.resilience.Deadline`) is polled
    every few pops; expiry raises ``DeadlineExceeded`` mid-search, which
    is safe because the search never mutates the routing space.
    """
    graph = view.graph
    stats = SearchStats()
    frontier = _HeapFrontier()
    #: A pi that *proves* disconnection (pi_GR in view mode) lets the
    #: search drop labels at UNREACHABLE priority instead of exhausting
    #: the frontier when no path exists.
    prune = getattr(pi, "unreachable_is_proof", False)

    def push(vertex: Vertex, d: int, prev: Optional[Vertex]) -> None:
        if prune and d >= UNREACHABLE:
            return
        if frontier.improve(vertex, d, prev):
            frontier.push(vertex, d)
            stats.labels_pushed += 1

    for source, offset in sources.items():
        interval = view.interval_at(source)
        if interval is None:
            continue
        push(source, offset + pi(source) + interval.penalty, None)

    #: The four cross-edge families out of an on-track vertex: jogs to the
    #: two adjacent tracks, vias to the two adjacent layers.
    _CROSS_DIRECTIONS = (("jog", -1), ("jog", 1), ("via", -1), ("via", 1))

    def cross_neighbour(vertex: Vertex, kind: str, sign: int):
        """The (neighbour, edge_cost) in one cross direction, or None."""
        z, t, c = vertex
        if kind == "jog":
            nt = t + sign
            tracks = graph.tracks[z]
            if nt < 0 or nt >= len(tracks):
                return None
            length = abs(tracks[nt] - tracks[t])
            return ((z, nt, c), costs.jog(z, length))
        partner = graph.via_partner(vertex, z + sign)
        if partner is None:
            return None
        return (partner, costs.via(min(z, z + sign)))

    def relax_run_cross_edges(
        run: List[Tuple[Vertex, int]], interval: SearchInterval
    ) -> None:
        """Relax one edge per (neighbouring interval, usability run).

        This is line 13 of Algorithm 4: for each neighbouring interval the
        edge from the pi-maximum frontier vertex is relaxed; the remaining
        parallel entries are covered exactly by the within-interval label
        function because the frontier run has reduced cost 0 (pi slope -1),
        which cancels against travel inside the neighbour.  A change of
        jog/via usability along the run starts a new relaxation (the
        property-(ii) splits of Sec. 4.1).
        """
        for kind, sign in _CROSS_DIRECTIONS:
            previous_key = None
            for vertex, vertex_dist in run:
                edge = cross_neighbour(vertex, kind, sign)
                if edge is None:
                    previous_key = None
                    continue
                neighbour, cost = edge
                n_interval = view.interval_at(neighbour)
                if n_interval is None or not view.edge_usable(vertex, neighbour, kind):
                    previous_key = None
                    continue
                key = n_interval.index
                if key == previous_key:
                    continue
                previous_key = key
                nd = vertex_dist + cost - pi(vertex) + pi(neighbour)
                if n_interval is not interval:
                    nd += n_interval.penalty
                push(neighbour, nd, vertex)
        # Wire edges across interval boundaries: they exist when two
        # intervals are adjacent on the same track (e.g. a ripup
        # singleton splitting an ordinary run, Sec. 4.2).
        for vertex, vertex_dist in run:
            z, t, c = vertex
            for nc in (c - 1, c + 1):
                if nc in interval:
                    continue
                if nc < 0 or nc >= len(graph.crosses[z]):
                    continue
                neighbour = (z, t, nc)
                n_interval = view.interval_at(neighbour)
                if n_interval is None:
                    continue
                if not view.edge_usable(vertex, neighbour, "wire"):
                    continue
                step = abs(graph.crosses[z][nc] - graph.crosses[z][c])
                nd = (
                    vertex_dist + costs.wire(z, step)
                    - pi(vertex) + pi(neighbour) + n_interval.penalty
                )
                push(neighbour, nd, vertex)

    best: Optional[Tuple[Vertex, int]] = None
    while True:
        popped = frontier.pop()
        if popped is None:
            break
        vertex, d = popped
        stats.pops += 1
        if deadline is not None and stats.pops % DEADLINE_CHECK_STRIDE == 0:
            deadline.check()
        interval = view.interval_at(vertex)
        if interval is None:
            continue
        # Bulk-collect the zero-reduced-cost run induced by this label,
        # i.e. the frontier J_I(delta) of Algorithm 4.  pi is 1-Lipschitz,
        # so the run extends in at most one direction from the anchor.
        run: List[Tuple[Vertex, int]] = [(vertex, d)]
        stats.interval_runs += 1
        for direction in (-1, 1):
            z, t, c = vertex
            prev = vertex
            nc = c + direction
            nd = d
            while interval.c_lo <= nc <= interval.c_hi:
                nxt = (z, t, nc)
                step = abs(
                    graph.crosses[z][nc] - graph.crosses[z][nc - direction]
                )
                rc = step - pi(prev) + pi(nxt)
                if not view.edge_usable(prev, nxt, "wire"):
                    break
                nd = nd + rc
                if prune and nd >= UNREACHABLE:
                    break
                if frontier.is_processed(nxt) or not frontier.improve(nxt, nd, prev):
                    break
                if rc == 0:
                    run.append((nxt, nd))
                    prev = nxt
                    nc += direction
                    continue
                # Climbing direction: one lazy continuation label.
                frontier.push(nxt, nd)
                stats.labels_pushed += 1
                break
        hit: Optional[Tuple[Vertex, int]] = None
        for run_vertex, run_dist in run:
            frontier.mark_processed(run_vertex)
            stats.vertices_processed += 1
            if run_vertex in targets:
                hit = (run_vertex, run_dist)
                break
        if hit is not None:
            best = hit
            break
        relax_run_cross_edges(run, interval)
    stats.stale_pops = frontier.stale_pops
    if OBS.enabled:
        _publish(stats, "interval")
    if best is None:
        return None
    target, cost = best
    path = frontier.reconstruct(target)
    return SearchResult(cost, path, stats, _collect_ripups(view, path))


def node_path_search(
    view: GraphView,
    sources: Dict[Vertex, int],
    targets: Set[Vertex],
    costs: SearchCosts,
    pi: Callable[[Vertex], int],
    deadline=None,
) -> Optional[SearchResult]:
    """Classical node-labelling Dijkstra (the ablation baseline)."""
    graph = view.graph
    stats = SearchStats()
    frontier = _HeapFrontier()
    prune = getattr(pi, "unreachable_is_proof", False)

    def push(vertex: Vertex, d: int, prev: Optional[Vertex]) -> None:
        if prune and d >= UNREACHABLE:
            return
        if frontier.improve(vertex, d, prev):
            frontier.push(vertex, d)
            stats.labels_pushed += 1

    for source, offset in sources.items():
        interval = view.interval_at(source)
        if interval is None:
            continue
        push(source, offset + pi(source) + interval.penalty, None)

    while True:
        popped = frontier.pop()
        if popped is None:
            break
        vertex, d = popped
        stats.pops += 1
        if deadline is not None and stats.pops % DEADLINE_CHECK_STRIDE == 0:
            deadline.check()
        frontier.mark_processed(vertex)
        stats.vertices_processed += 1
        if vertex in targets:
            stats.stale_pops = frontier.stale_pops
            if OBS.enabled:
                _publish(stats, "node")
            path = frontier.reconstruct(vertex)
            return SearchResult(d, path, stats, _collect_ripups(view, path))
        z, t, c = vertex
        pi_v = pi(vertex)
        current = view.interval_at(vertex)
        for neighbour, kind, length in graph.neighbors(vertex):
            n_interval = view.interval_at(neighbour)
            if n_interval is None:
                continue
            if not view.edge_usable(vertex, neighbour, kind):
                continue
            layer_or_via = min(z, neighbour[0]) if kind == "via" else z
            cost = costs.edge_cost(kind, layer_or_via, length)
            nd = d + cost - pi_v + pi(neighbour)
            if n_interval is not current:
                nd += n_interval.penalty
            push(neighbour, nd, vertex)
    stats.stale_pops = frontier.stale_pops
    if OBS.enabled:
        _publish(stats, "node")
    return None


def path_to_moves(
    graph, vertices: Sequence[Vertex]
) -> List[Tuple[str, Vertex, Vertex]]:
    """Classify consecutive path steps as wire / jog / via moves."""
    moves = []
    for v, w in zip(vertices, vertices[1:]):
        if v[0] != w[0]:
            moves.append(("via", v, w))
        elif v[1] != w[1]:
            moves.append(("jog", v, w))
        else:
            moves.append(("wire", v, w))
    return moves
