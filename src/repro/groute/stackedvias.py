"""Stacked-via capacity preprocessing (Sec. 2.5).

A stacked via from layer l to l+2 also consumes space on layer l+1, so it
reduces the capacity available to through-wires on that layer.  The
expected reduction is *sublinear* in the number of stacked vias: BonnRoute
precomputes, for k stacked vias of size p placed in a normalized region,
the expected maximum number of selected vertices per column when counting
the ways to choose k disjoint sets of p consecutive x-vertices in a 2D
lattice under a per-column limit.

This module implements that counting exactly by dynamic programming over
the lattice rows and derives the expected column load, exposed as
:func:`capacity_reduction`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple


def _row_placements(columns: int, p: int) -> List[Tuple[int, ...]]:
    """All ways to place disjoint p-long runs in one row of ``columns``.

    Returned as column-load vectors (1 where a run covers the column).
    Rows are independent; the per-row run count is implicit in the
    vectors.
    """
    starts = list(range(columns - p + 1))
    placements: List[Tuple[int, ...]] = []

    def recurse(start_index: int, load: List[int]) -> None:
        placements.append(tuple(load))
        for s in range(start_index, columns - p + 1):
            if all(load[s + i] == 0 for i in range(p)):
                for i in range(p):
                    load[s + i] = 1
                recurse(s + p, load)
                for i in range(p):
                    load[s + i] = 0

    recurse(0, [0] * columns)
    return placements


def enumerate_column_loads(
    columns: int, rows: int, k: int, p: int, max_per_column: int
) -> Dict[Tuple[int, ...], int]:
    """Count selections of k disjoint p-runs over a rows x columns lattice.

    Returns a map from the aggregate column-load vector to the number of
    selections realizing it, honouring ``max_per_column``.  This is the
    counting step of Sec. 2.5.
    """
    per_row = _row_placements(columns, p)
    by_count: Dict[int, List[Tuple[int, ...]]] = {}
    for load in per_row:
        count = sum(load) // p
        by_count.setdefault(count, []).append(load)

    results: Dict[Tuple[int, ...], int] = {}

    def recurse(row: int, remaining: int, load: Tuple[int, ...]) -> None:
        if remaining == 0:
            results[load] = results.get(load, 0) + 1
            return
        if row == rows:
            return
        budget = rows - row - 1  # rows after this one
        for count, loads in by_count.items():
            if count > remaining:
                continue
            # Feasibility prune: remaining runs must fit in later rows.
            if remaining - count > budget * (columns // p):
                continue
            for row_load in loads:
                new_load = tuple(
                    a + b for a, b in zip(load, row_load)
                )
                if max(new_load) > max_per_column:
                    continue
                recurse(row + 1, remaining - count, new_load)

    recurse(0, k, tuple([0] * columns))
    return results


def expected_max_column_load(
    columns: int, rows: int, k: int, p: int, max_per_column: int
) -> float:
    """E[max column load] over uniformly random feasible selections.

    The paper takes this as "a rough approximation of the reduction of
    the capacity caused by k disjoint stacked vias placed uniformly at
    random within the given region".
    """
    loads = enumerate_column_loads(columns, rows, k, p, max_per_column)
    total = sum(loads.values())
    if total == 0:
        return float(max_per_column)
    weighted = sum(max(load) * count for load, count in loads.items())
    return weighted / total


#: Normalized lattice for the preprocessing table (Sec. 2.5 computes the
#: counting for "a normalized region size" once, not per tile).
_NORM_COLUMNS = 5
_NORM_ROWS = 4
_NORM_MAX_PER_COLUMN = 3
_NORM_K_LIMIT = 6


@lru_cache(maxsize=256)
def capacity_reduction(
    k: int,
    p: int = 1,
    columns: int = _NORM_COLUMNS,
    rows: int = _NORM_ROWS,
    max_per_column: int = _NORM_MAX_PER_COLUMN,
) -> float:
    """Capacity reduction (in track units) caused by k stacked vias.

    Sublinear in k: doubling the stacked vias does not double the blocked
    tracks because random placements overlap columns.  Exact enumeration
    runs on the normalized lattice up to ``_NORM_K_LIMIT`` stacks; beyond
    that the expected maximum column load has effectively saturated at
    the per-column limit, so the table value saturates too.
    """
    if k <= 0:
        return 0.0
    limit = min(_NORM_K_LIMIT, rows * (columns // max(p, 1)))
    if k > limit:
        return expected_max_column_load(columns, rows, limit, p, max_per_column)
    return expected_max_column_load(columns, rows, k, p, max_per_column)
