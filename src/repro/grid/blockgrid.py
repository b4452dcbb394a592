"""Blockage grid for off-track wiring (Sec. 3.8, Algorithm 3, Thm 3.2).

Supports shortest *tau-feasible* rectilinear paths: every segment must be
at least ``tau`` long (the minimum-segment-length requirement most
same-net rules map to, Nieberg [2011]) and must not cross the interior of
any obstacle.

Construction follows Algorithm 3: starting from the Hanan coordinates of
the obstacle borders plus the terminals, additional lines at multiples of
tau are inserted wherever consecutive coordinates are closer than 4 tau.
Theorem 3.2 (Massberg & Nieberg) guarantees a shortest tau-feasible path
exists with all bend points on this grid.

The search runs on the *path-preserving digraph*: up to four copies of
each grid vertex, one per incoming direction; straight continuation arcs
are free-form, but a bend must first traverse a "long arc" to the nearest
vertex at distance >= tau perpendicular to the incoming direction, so no
short segment can ever follow a bend.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry.hanan import refine_with_pitch
from repro.geometry.rect import Rect
from repro.util.heap import StateHeap

Point = Tuple[int, int]

#: Direction encodings: +x, -x, +y, -y.
EAST, WEST, NORTH, SOUTH = 0, 1, 2, 3

#: Distance of a search state no arc has reached yet.
_UNREACHED = 1 << 62


def usable_obstacles(obstacles: Sequence[Rect], bbox: Rect) -> List[Rect]:
    """The obstacles a grid over ``bbox`` rasterizes: those with an
    interior that meet the window."""
    return [r for r in obstacles if r.area > 0 and r.intersects(bbox)]


def blockage_grid_coordinates(
    obstacles: Sequence[Rect],
    terminals: Sequence[Point],
    tau: int,
    bbox: Rect,
) -> Tuple[List[int], List[int]]:
    """Algorithm 3 in both axes: refined x- and y-coordinate lists."""
    xs = {bbox.x_lo, bbox.x_hi}
    ys = {bbox.y_lo, bbox.y_hi}
    for rect in obstacles:
        xs.update((rect.x_lo, rect.x_hi))
        ys.update((rect.y_lo, rect.y_hi))
    for x, y in terminals:
        xs.add(x)
        ys.add(y)
    xs_refined = [x for x in refine_with_pitch(sorted(xs), tau) if bbox.x_lo <= x <= bbox.x_hi]
    ys_refined = [y for y in refine_with_pitch(sorted(ys), tau) if bbox.y_lo <= y <= bbox.y_hi]
    return xs_refined, ys_refined


class BlockageGrid:
    """Single-layer tau-feasible shortest path search.

    Grid vertex ``(i, j)`` sits at ``(xs[i], ys[j])`` and has the flat
    index ``v = i * ny + j``; a search state is ``v * 4 + direction``
    (the direction the state was entered in).  Obstacles are rasterized
    once per grid into three flat ``bytearray`` masks (1 = blocked):

    * ``_h_blocked[j * nx + i]``: the horizontal edge (i, j)-(i + 1, j);
    * ``_v_blocked[i * ny + j]``: the vertical edge (i, j)-(i, j + 1);
    * ``_vertex_blocked[v]``: vertex strictly inside an obstacle.

    Each row's horizontal edges and each column's vertical edges are
    contiguous, so a long arc is clear iff its slice holds no 1.
    """

    def __init__(
        self,
        obstacles: Sequence[Rect],
        tau: int,
        bbox: Rect,
        terminals: Sequence[Point] = (),
        coordinates: Optional[Tuple[List[int], List[int]]] = None,
    ) -> None:
        """``coordinates``, when given, is the grid's ``(xs, ys)`` as
        :func:`blockage_grid_coordinates` returned it for
        ``usable_obstacles(obstacles, bbox)`` and the terminals; it
        replaces ``terminals``."""
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = tau
        self.bbox = bbox
        self.obstacles = usable_obstacles(obstacles, bbox)
        if coordinates is None:
            coordinates = blockage_grid_coordinates(
                self.obstacles, terminals, tau, bbox
            )
        self.xs, self.ys = coordinates
        self._x_index = {x: i for i, x in enumerate(self.xs)}
        self._y_index = {y: j for j, y in enumerate(self.ys)}
        self._build_blocked_edges()
        self._build_long_arcs()
        #: One resumable search per source-vertex sequence.
        self._searches: Dict[Tuple[int, ...], _Search] = {}

    # ------------------------------------------------------------------
    # Geometry preprocessing
    # ------------------------------------------------------------------
    def _build_blocked_edges(self) -> None:
        """Mark grid edges whose open interior crosses an obstacle interior."""
        xs, ys = self.xs, self.ys
        nx, ny = len(xs), len(ys)
        h_blocked = bytearray(nx * ny)
        v_blocked = bytearray(nx * ny)
        vertex_blocked = bytearray(nx * ny)
        for rect in self.obstacles:
            # A horizontal line at y crosses the interior iff y is strictly
            # between the rect's y borders; the edge's open x-span must
            # overlap the rect's open x-span.  Slices never run past a
            # row (or column), so assignment keeps the masks' sizes.
            j_lo = bisect.bisect_right(ys, rect.y_lo)
            j_hi = bisect.bisect_left(ys, rect.y_hi)
            i_lo = bisect.bisect_left(xs, rect.x_lo)
            i_hi = bisect.bisect_left(xs, rect.x_hi)
            ones = b"\x01" * (i_hi - i_lo)
            for row in range(j_lo * nx, j_hi * nx, nx):
                h_blocked[row + i_lo:row + i_hi] = ones
            i_lo_v = bisect.bisect_right(xs, rect.x_lo)
            i_hi_v = bisect.bisect_left(xs, rect.x_hi)
            j_lo_v = bisect.bisect_left(ys, rect.y_lo)
            j_hi_v = bisect.bisect_left(ys, rect.y_hi)
            edges = b"\x01" * (j_hi_v - j_lo_v)
            inside = b"\x01" * (j_hi - j_lo)
            for col in range(i_lo_v * ny, i_hi_v * ny, ny):
                v_blocked[col + j_lo_v:col + j_hi_v] = edges
                # Vertices strictly inside an obstacle are unusable.
                vertex_blocked[col + j_lo:col + j_hi] = inside
        self._h_blocked = h_blocked
        self._v_blocked = v_blocked
        self._vertex_blocked = vertex_blocked

    def _build_long_arcs(self) -> None:
        """Per coordinate, the index of the nearest coordinate at distance
        >= tau in each direction: the far end of a long arc, before its
        run is checked for blockage.  ``len(xs)`` / ``len(ys)`` (east,
        north) or -1 (west, south) when there is none."""
        xs, ys, tau = self.xs, self.ys, self.tau
        self._east = [bisect.bisect_left(xs, x + tau) for x in xs]
        self._west = [bisect.bisect_right(xs, x - tau) - 1 for x in xs]
        self._north = [bisect.bisect_left(ys, y + tau) for y in ys]
        self._south = [bisect.bisect_right(ys, y - tau) - 1 for y in ys]

    def lattice_moves(self, i: int, j: int) -> List[Tuple[Tuple[int, int], int]]:
        """Unit moves ``((i', j'), length)`` from vertex (i, j) to its
        grid neighbours over clear edges, skipping blocked vertices: the
        tau = 1 lattice the path-preserving digraph refines."""
        xs, ys = self.xs, self.ys
        nx, ny = len(xs), len(ys)
        moves = []
        if i + 1 < nx and not self._h_blocked[j * nx + i]:
            moves.append(((i + 1, j), xs[i + 1] - xs[i]))
        if i > 0 and not self._h_blocked[j * nx + i - 1]:
            moves.append(((i - 1, j), xs[i] - xs[i - 1]))
        if j + 1 < ny and not self._v_blocked[i * ny + j]:
            moves.append(((i, j + 1), ys[j + 1] - ys[j]))
        if j > 0 and not self._v_blocked[i * ny + j - 1]:
            moves.append(((i, j - 1), ys[j] - ys[j - 1]))
        return [
            (cell, length) for cell, length in moves
            if not self._vertex_blocked[cell[0] * ny + cell[1]]
        ]

    # ------------------------------------------------------------------
    # Shortest path
    # ------------------------------------------------------------------
    def shortest_path(
        self, sources: Sequence[Point], targets: Sequence[Point]
    ) -> Optional[Tuple[int, List[Point]]]:
        """Shortest tau-feasible path from any source to any target.

        Returns (length, polyline of grid points including endpoints), or
        None when no tau-feasible connection exists.  All terminals must
        lie on grid coordinates (they do when passed to the constructor).

        Among equally short paths the one whose final state the heap
        pops first wins, so the heap's exact sequence of comparisons is
        part of the result (see :class:`repro.util.heap.StateHeap`).

        The grid keeps one search per source sequence and resumes it on
        the next query from the same sources: with non-negative lengths
        the pop sequence does not depend on the targets, which only
        decide when to stop, and a popped state's ``dist`` and
        ``parent`` never change.  So the answer is the earliest-popped
        target vertex, whether that pop happened in this query or in an
        earlier one.  Targets that all lie strictly inside obstacles
        return None at once: no arc enters such a vertex.
        """
        ny = len(self.ys)
        x_index, y_index = self._x_index, self._y_index
        target_vertices = set()
        for x, y in targets:
            i = x_index.get(x)
            j = y_index.get(y)
            if i is None or j is None:
                raise ValueError(f"target ({x}, {y}) not on the blockage grid")
            target_vertices.add(i * ny + j)
        if not target_vertices:
            return None
        source_vertices = []
        for x, y in sources:
            i = x_index.get(x)
            j = y_index.get(y)
            if i is None or j is None:
                raise ValueError(f"source ({x}, {y}) not on the blockage grid")
            v = i * ny + j
            if v in target_vertices:
                return (0, [(x, y)])
            source_vertices.append(v)
        if all(self._vertex_blocked[v] for v in target_vertices):
            return None
        key = tuple(source_vertices)
        search = self._searches.get(key)
        if search is None:
            search = self._searches[key] = self._start_search(source_vertices)
        first_pops = search.first_pops
        hits = [first_pops[v] for v in target_vertices if v in first_pops]
        if hits:
            final_state = min(hits)[1]
        else:
            final_state = self._resume(search, target_vertices)
            if final_state < 0:
                return None
        return self._path_to(search, final_state)

    def _start_search(self, source_vertices: Sequence[int]) -> _Search:
        """A search with the first segments out of every source queued:
        a long arc in each direction (E, W, N, S)."""
        xs, ys = self.xs, self.ys
        nx, ny = len(xs), len(ys)
        h_blocked = self._h_blocked
        v_blocked = self._v_blocked
        vertex_blocked = self._vertex_blocked
        east, west, north, south = self._east, self._west, self._north, self._south
        search = _Search(4 * nx * ny)
        dist, parent = search.dist, search.parent
        push = search.heap.push
        for v in source_vertices:
            i, j = divmod(v, ny)
            row = j * nx
            arcs = []
            k = east[i]
            if k < nx and 1 not in h_blocked[row + i:row + k]:
                arcs.append(((k * ny + j) * 4 + EAST, xs[k] - xs[i]))
            k = west[i]
            if k >= 0 and 1 not in h_blocked[row + k:row + i]:
                arcs.append(((k * ny + j) * 4 + WEST, xs[i] - xs[k]))
            k = north[j]
            if k < ny and 1 not in v_blocked[v:v + k - j]:
                arcs.append(((v + k - j) * 4 + NORTH, ys[k] - ys[j]))
            k = south[j]
            if k >= 0 and 1 not in v_blocked[v - j + k:v]:
                arcs.append(((v - j + k) * 4 + SOUTH, ys[j] - ys[k]))
            for nstate, length in arcs:
                old = dist[nstate]
                if not vertex_blocked[nstate >> 2] and length < old:
                    dist[nstate] = length
                    parent[nstate] = -1 - v
                    push(nstate, length, old != _UNREACHED)
        return search

    def _resume(self, search: _Search, target_vertices) -> int:
        """Continue ``search`` until it first pops a state at a target
        vertex; return that state, or -1 once the frontier is exhausted.

        Each iteration relaxes the state popped before it, so the state
        that stops the search stays pending and is relaxed when the next
        query resumes.
        """
        xs, ys = self.xs, self.ys
        nx, ny = len(xs), len(ys)
        h_blocked = self._h_blocked
        v_blocked = self._v_blocked
        vertex_blocked = self._vertex_blocked
        east, west, north, south = self._east, self._west, self._north, self._south
        dist, parent, first_pops = search.dist, search.parent, search.first_pops
        heap = search.heap
        push, pop = heap.push, heap.pop
        state = search.pending
        d = dist[state] if state >= 0 else 0
        while True:
            if state >= 0:
                v = state >> 2
                i, j = divmod(v, ny)
                row = j * nx
                # Straight continuation (one edge on in the same
                # direction), then the bends: long arcs perpendicular to
                # the incoming direction, N then S after a horizontal
                # state, E then W after a vertical one.
                arcs = []
                if state & 2 == 0:
                    if state & 1 == 0:
                        if i + 1 < nx and not h_blocked[row + i]:
                            arcs.append((state + 4 * ny, xs[i + 1] - xs[i]))
                    elif i > 0 and not h_blocked[row + i - 1]:
                        arcs.append((state - 4 * ny, xs[i] - xs[i - 1]))
                    k = north[j]
                    if k < ny and 1 not in v_blocked[v:v + k - j]:
                        arcs.append(((v + k - j) * 4 + NORTH, ys[k] - ys[j]))
                    k = south[j]
                    if k >= 0 and 1 not in v_blocked[v - j + k:v]:
                        arcs.append(((v - j + k) * 4 + SOUTH, ys[j] - ys[k]))
                else:
                    if state & 1 == 0:
                        if j + 1 < ny and not v_blocked[v]:
                            arcs.append((state + 4, ys[j + 1] - ys[j]))
                    elif j > 0 and not v_blocked[v - 1]:
                        arcs.append((state - 4, ys[j] - ys[j - 1]))
                    k = east[i]
                    if k < nx and 1 not in h_blocked[row + i:row + k]:
                        arcs.append(((k * ny + j) * 4 + EAST, xs[k] - xs[i]))
                    k = west[i]
                    if k >= 0 and 1 not in h_blocked[row + k:row + i]:
                        arcs.append(((k * ny + j) * 4 + WEST, xs[i] - xs[k]))
                for nstate, length in arcs:
                    if vertex_blocked[nstate >> 2]:
                        continue
                    nd = d + length
                    old = dist[nstate]
                    if nd < old:
                        dist[nstate] = nd
                        parent[nstate] = state
                        push(nstate, nd, old != _UNREACHED)
            if not heap.items:
                search.pending = -1
                return -1
            state, d = pop()
            v = state >> 2
            if v not in first_pops:
                first_pops[v] = (len(first_pops), state)
                if v in target_vertices:
                    search.pending = state
                    return state

    def _path_to(self, search: _Search, final_state: int) -> Tuple[int, List[Point]]:
        """(length, simplified polyline) of a popped state, back to its
        source vertex."""
        xs, ys = self.xs, self.ys
        ny = len(ys)
        parent = search.parent
        points: List[Point] = []
        state = final_state
        while True:
            i, j = divmod(state >> 2, ny)
            points.append((xs[i], ys[j]))
            state = parent[state]
            if state < 0:
                i, j = divmod(-1 - state, ny)
                points.append((xs[i], ys[j]))
                break
        points.reverse()
        return (search.dist[final_state], _simplify(points))


class _Search:
    """The resumable state of one search from a fixed source sequence."""

    __slots__ = ("dist", "parent", "heap", "first_pops", "pending")

    def __init__(self, size: int) -> None:
        self.dist = [_UNREACHED] * size
        #: parent[state]: the predecessor state, or ``-1 - v`` when the
        #: state is a long arc straight out of source vertex v.
        self.parent = [0] * size
        self.heap = StateHeap()
        #: vertex -> (pop rank, state) of the first state popped there.
        self.first_pops: Dict[int, Tuple[int, int]] = {}
        #: The state popped last but not yet relaxed, or -1.
        self.pending = -1


def _simplify(points: List[Point]) -> List[Point]:
    """Drop collinear intermediate points from a polyline."""
    if len(points) <= 2:
        return points
    simplified = [points[0]]
    for idx in range(1, len(points) - 1):
        x0, y0 = points[idx - 1]
        x1, y1 = points[idx]
        x2, y2 = points[idx + 1]
        if (x0 == x1 == x2) or (y0 == y1 == y2):
            continue
        simplified.append(points[idx])
    simplified.append(points[-1])
    return simplified


def path_segments(points: Sequence[Point]) -> List[Tuple[Point, Point]]:
    """Consecutive point pairs of a simplified polyline."""
    return list(zip(points, points[1:]))


def min_segment_length(points: Sequence[Point]) -> int:
    """Shortest segment of a polyline (infinite for a single point)."""
    segments = path_segments(points)
    if not segments:
        return 1 << 60
    return min(
        abs(a[0] - b[0]) + abs(a[1] - b[1]) for a, b in segments
    )
