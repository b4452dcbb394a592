"""Hanan grids.

Hanan [1966] showed that a rectilinear Steiner minimum tree over a terminal
set always exists on the grid induced by the terminals' coordinates.  The
blockage grid of Sec. 3.8 starts from the Hanan grid of the obstacle corner
coordinates and refines it; the exact small-net Steiner solver in
``repro.steiner`` searches on the terminal Hanan grid directly.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.geometry.rect import Rect


def hanan_coordinates(
    points: Sequence[Tuple[int, int]], rects: Sequence[Rect] = ()
) -> Tuple[List[int], List[int]]:
    """Sorted deduplicated x- and y-coordinate lists of the Hanan grid.

    The grid is induced by the given points plus all rectangle border
    coordinates (obstacle corners contribute grid lines, Sec. 3.8).
    """
    xs = {p[0] for p in points}
    ys = {p[1] for p in points}
    for rect in rects:
        xs.update((rect.x_lo, rect.x_hi))
        ys.update((rect.y_lo, rect.y_hi))
    return sorted(xs), sorted(ys)


def hanan_grid_points(
    points: Sequence[Tuple[int, int]], rects: Sequence[Rect] = ()
) -> List[Tuple[int, int]]:
    """All crossing points of the Hanan grid, row-major order."""
    xs, ys = hanan_coordinates(points, rects)
    return [(x, y) for x in xs for y in ys]


def refine_with_pitch(
    coords: Sequence[int], tau: int, window: int = 4
) -> List[int]:
    """Add multiples of ``tau`` between coordinates closer than window*tau.

    This is the coordinate-refinement rule of Algorithm 3
    (``Blockage_Grid_Vertical``): wherever two consecutive original
    coordinates are closer than ``4 tau`` to one another, offsets at
    multiples of tau are inserted around them so that a shortest
    tau-feasible path can always snap to grid (Theorem 3.2).  The expansion
    stops once a gap of at least ``window * tau`` is reached on each side.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    base = sorted(set(coords))
    out = set(base)
    threshold = window * tau
    for idx, x in enumerate(base):
        # Expand left while predecessor gaps stay below the threshold.
        lo = idx
        while lo > 0 and base[lo] - base[lo - 1] < threshold:
            lo -= 1
        hi = idx
        while hi + 1 < len(base) and base[hi + 1] - base[hi] < threshold:
            hi += 1
        span_lo = base[lo] - 2 * tau
        span_hi = base[hi] + 2 * tau
        k = -((x - span_lo) // tau)
        while x + k * tau <= span_hi:
            candidate = x + k * tau
            if candidate >= span_lo:
                out.add(candidate)
            k += 1
    return sorted(out)
