"""Closed integer intervals [lo, hi].

Intervals are the unifying currency of BonnRoute's data structures: the
shape grid stores runs of identical cell configurations as intervals
(Sec. 3.3), the fast grid stores runs of identical legality words
(Sec. 3.6), and the on-track path search labels whole intervals of track
graph vertices at once (Sec. 4.1).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple


class Interval:
    """Closed interval of integers ``[lo, hi]`` with ``lo <= hi``."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:
        return f"Interval({self.lo}, {self.hi})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __contains__(self, x: int) -> bool:
        return self.lo <= x <= self.hi

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    @property
    def length(self) -> int:
        """Geometric length (hi - lo); zero for a single point."""
        return self.hi - self.lo

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def intersection(self, other: "Interval") -> Optional["Interval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def expanded(self, amount: int) -> "Interval":
        return Interval(self.lo - amount, self.hi + amount)

    def subtract(self, other: "Interval") -> List["Interval"]:
        """self minus other, as zero, one, or two intervals."""
        if not self.intersects(other):
            return [Interval(self.lo, self.hi)]
        pieces: List[Interval] = []
        if self.lo < other.lo:
            pieces.append(Interval(self.lo, other.lo - 1))
        if other.hi < self.hi:
            pieces.append(Interval(other.hi + 1, self.hi))
        return pieces


def merge_intervals(intervals: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Union of closed intervals, as a sorted list of disjoint (lo, hi).

    Adjacent intervals (hi + 1 == next lo) are coalesced, matching the
    discrete-vertex semantics used by the fast grid.
    """
    items = sorted(intervals)
    merged: List[Tuple[int, int]] = []
    for lo, hi in items:
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def total_covered_length(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total geometric length of the union of the given closed intervals."""
    return sum(hi - lo for lo, hi in merge_intervals(intervals))
