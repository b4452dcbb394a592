"""Rectilinear Steiner minimum tree lengths (the FLUTE stand-in).

* :func:`exact_steiner_length` - Dreyfus-Wagner dynamic programming on
  the Hanan grid, exact for small terminal counts (the paper uses exact
  lengths for nets with at most 9 terminals, Sec. 5.3);
* :func:`heuristic_steiner_length` - greedy Hanan-point insertion over
  the rectilinear MST (Kahng-Robins style), used for larger nets;
* :func:`steiner_length` - the dispatcher with an LRU cache, matching
  the paper's <= 9 / > 9 split.

Hanan [1966]: an RSMT always exists on the grid induced by the terminal
coordinates, so the DP over Hanan grid vertices is exact.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import List, Sequence, Tuple

Point = Tuple[int, int]

#: Exact solving bound; above it the heuristic takes over (paper: 9).
EXACT_TERMINAL_LIMIT = 9


def _l1(a: Point, b: Point) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def rectilinear_mst_length(points: Sequence[Point]) -> int:
    """Length of a rectilinear (l1) minimum spanning tree (Prim)."""
    unique = list(dict.fromkeys(points))
    if len(unique) <= 1:
        return 0
    in_tree = [False] * len(unique)
    best = [1 << 60] * len(unique)
    best[0] = 0
    total = 0
    for _ in range(len(unique)):
        u = min(
            (i for i in range(len(unique)) if not in_tree[i]),
            key=lambda i: best[i],
        )
        in_tree[u] = True
        total += best[u]
        for v in range(len(unique)):
            if not in_tree[v]:
                d = _l1(unique[u], unique[v])
                if d < best[v]:
                    best[v] = d
    return total


def _hanan_graph(points: Sequence[Point]):
    xs = sorted({p[0] for p in points})
    ys = sorted({p[1] for p in points})
    nodes = [(x, y) for x in xs for y in ys]
    index = {node: i for i, node in enumerate(nodes)}
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in nodes]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            a = index[(x, y)]
            if i + 1 < len(xs):
                b = index[(xs[i + 1], y)]
                w = xs[i + 1] - x
                adjacency[a].append((b, w))
                adjacency[b].append((a, w))
            if j + 1 < len(ys):
                b = index[(x, ys[j + 1])]
                w = ys[j + 1] - y
                adjacency[a].append((b, w))
                adjacency[b].append((a, w))
    return nodes, index, adjacency


def exact_steiner_length(points: Sequence[Point]) -> int:
    """Exact RSMT length by Dreyfus-Wagner DP on the Hanan grid.

    Exponential in the terminal count; intended for
    <= ``EXACT_TERMINAL_LIMIT`` terminals.
    """
    terminals = list(dict.fromkeys(points))
    if len(terminals) <= 1:
        return 0
    if len(terminals) == 2:
        return _l1(terminals[0], terminals[1])
    nodes, index, adjacency = _hanan_graph(terminals)
    n = len(nodes)
    terminal_ids = [index[t] for t in terminals]
    root = terminal_ids[-1]
    others = terminal_ids[:-1]
    k = len(others)
    INF = 1 << 60
    # dp[mask][v]: min cost of a tree spanning terminal subset ``mask``
    # plus vertex v.
    dp = [[INF] * n for _ in range(1 << k)]
    for i, t in enumerate(others):
        dp[1 << i][t] = 0

    def dijkstra_relax(row: List[int]) -> None:
        heap = [(cost, v) for v, cost in enumerate(row) if cost < INF]
        heapq.heapify(heap)
        while heap:
            cost, v = heapq.heappop(heap)
            if cost > row[v]:
                continue
            for w, weight in adjacency[v]:
                nd = cost + weight
                if nd < row[w]:
                    row[w] = nd
                    heapq.heappush(heap, (nd, w))

    for mask in range(1, 1 << k):
        row = dp[mask]
        # Merge sub-trees at a common vertex.
        submask = (mask - 1) & mask
        while submask:
            other = mask ^ submask
            if submask < other:
                sub_row = dp[submask]
                other_row = dp[other]
                for v in range(n):
                    combined = sub_row[v] + other_row[v]
                    if combined < row[v]:
                        row[v] = combined
            submask = (submask - 1) & mask
        # Extend by shortest paths.
        dijkstra_relax(row)
    return dp[(1 << k) - 1][root]


def heuristic_steiner_length(points: Sequence[Point]) -> int:
    """Greedy Hanan-point insertion over the rectilinear MST.

    Iteratively adds the Hanan grid point that shrinks the MST the most
    (Kahng-Robins); stops at a local optimum.  Ratio well below the
    1.5 MST bound in practice.
    """
    terminals = list(dict.fromkeys(points))
    if len(terminals) <= 2:
        return rectilinear_mst_length(terminals)
    current = list(terminals)
    current_length = rectilinear_mst_length(current)
    xs = sorted({p[0] for p in terminals})
    ys = sorted({p[1] for p in terminals})
    candidates = [
        (x, y) for x in xs for y in ys if (x, y) not in set(terminals)
    ]
    improved = True
    added: List[Point] = []
    while improved and len(added) < len(terminals) - 2:
        improved = False
        best_candidate = None
        best_length = current_length
        for candidate in candidates:
            if candidate in added:
                continue
            length = rectilinear_mst_length(current + [candidate])
            if length < best_length:
                best_length = length
                best_candidate = candidate
        if best_candidate is not None:
            current.append(best_candidate)
            added.append(best_candidate)
            current_length = best_length
            improved = True
    return current_length


@lru_cache(maxsize=4096)
def _steiner_length_cached(points: Tuple[Point, ...]) -> int:
    if len(points) <= EXACT_TERMINAL_LIMIT:
        return exact_steiner_length(points)
    return heuristic_steiner_length(points)


def steiner_length(points: Sequence[Point]) -> int:
    """Steiner length baseline: exact for <= 9 terminals, heuristic above.

    This is the denominator of the scenic-net detour statistics (Table I)
    and the baseline of Tables II and III.
    """
    return _steiner_length_cached(tuple(sorted(dict.fromkeys(points))))
