"""Axis-parallel integer rectangles.

Rectangles are closed: ``(x_lo, y_lo, x_hi, y_hi)`` contains both corner
coordinates.  Degenerate rectangles (zero width or height) are legal and
represent stick figures (Sec. 3.2) before they are bloated by a wire model.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple


class Rect:
    """Closed axis-parallel rectangle with integer coordinates."""

    __slots__ = ("x_lo", "y_lo", "x_hi", "y_hi")

    def __init__(self, x_lo: int, y_lo: int, x_hi: int, y_hi: int) -> None:
        if x_lo > x_hi or y_lo > y_hi:
            raise ValueError(f"empty rect ({x_lo}, {y_lo}, {x_hi}, {y_hi})")
        self.x_lo = x_lo
        self.y_lo = y_lo
        self.x_hi = x_hi
        self.y_hi = y_hi

    def __repr__(self) -> str:
        return f"Rect({self.x_lo}, {self.y_lo}, {self.x_hi}, {self.y_hi})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rect)
            and self.x_lo == other.x_lo
            and self.y_lo == other.y_lo
            and self.x_hi == other.x_hi
            and self.y_hi == other.y_hi
        )

    def __hash__(self) -> int:
        return hash((self.x_lo, self.y_lo, self.x_hi, self.y_hi))

    @property
    def width(self) -> int:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> int:
        return self.y_hi - self.y_lo

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def center(self) -> Tuple[int, int]:
        return ((self.x_lo + self.x_hi) // 2, (self.y_lo + self.y_hi) // 2)

    def contains_point(self, x: int, y: int) -> bool:
        return self.x_lo <= x <= self.x_hi and self.y_lo <= y <= self.y_hi

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.x_lo <= other.x_lo
            and self.y_lo <= other.y_lo
            and other.x_hi <= self.x_hi
            and other.y_hi <= self.y_hi
        )

    def intersects(self, other: "Rect") -> bool:
        """True if the closed rectangles share at least a point."""
        return (
            self.x_lo <= other.x_hi
            and other.x_lo <= self.x_hi
            and self.y_lo <= other.y_hi
            and other.y_lo <= self.y_hi
        )

    def intersects_open(self, other: "Rect") -> bool:
        """True if the rectangle *interiors* overlap (positive area)."""
        return (
            self.x_lo < other.x_hi
            and other.x_lo < self.x_hi
            and self.y_lo < other.y_hi
            and other.y_lo < self.y_hi
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        x_lo = max(self.x_lo, other.x_lo)
        y_lo = max(self.y_lo, other.y_lo)
        x_hi = min(self.x_hi, other.x_hi)
        y_hi = min(self.y_hi, other.y_hi)
        if x_lo > x_hi or y_lo > y_hi:
            return None
        return Rect(x_lo, y_lo, x_hi, y_hi)

    def hull(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.x_lo, other.x_lo),
            min(self.y_lo, other.y_lo),
            max(self.x_hi, other.x_hi),
            max(self.y_hi, other.y_hi),
        )

    def expanded(self, dx: int, dy: Optional[int] = None) -> "Rect":
        """Rectangle bloated by dx horizontally and dy (default dx) vertically.

        This is the Minkowski sum with a (2dx x 2dy) box: the standard way
        diff-net minimum distances are folded into obstacles in shape-based
        routing (Sec. 1.2).
        """
        if dy is None:
            dy = dx
        return Rect(self.x_lo - dx, self.y_lo - dy, self.x_hi + dx, self.y_hi + dy)

    def translated(self, dx: int, dy: int) -> "Rect":
        return Rect(self.x_lo + dx, self.y_lo + dy, self.x_hi + dx, self.y_hi + dy)

    def minkowski_sum(self, other: "Rect") -> "Rect":
        """Minkowski sum with ``other`` (e.g. stick figure + wire model)."""
        return Rect(
            self.x_lo + other.x_lo,
            self.y_lo + other.y_lo,
            self.x_hi + other.x_hi,
            self.y_hi + other.y_hi,
        )

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.x_lo, self.y_lo, self.x_hi, self.y_hi)

    @staticmethod
    def from_points(x0: int, y0: int, x1: int, y1: int) -> "Rect":
        """Rectangle spanned by two corner points in any order."""
        return Rect(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))

    @staticmethod
    def bounding(rects: Iterable["Rect"]) -> "Rect":
        it = iter(rects)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("bounding box of no rectangles") from None
        x_lo, y_lo, x_hi, y_hi = first.as_tuple()
        for rect in it:
            x_lo = min(x_lo, rect.x_lo)
            y_lo = min(y_lo, rect.y_lo)
            x_hi = max(x_hi, rect.x_hi)
            y_hi = max(y_hi, rect.y_hi)
        return Rect(x_lo, y_lo, x_hi, y_hi)


def subtract_rect(base: Rect, hole: Rect) -> List[Rect]:
    """``base`` minus the *interior overlap* with ``hole``, as <= 4 rects.

    The pieces have disjoint interiors and cover base \\ hole exactly.
    Degenerate slivers (zero area) are kept only if base itself is
    degenerate.
    """
    clip = base.intersection(hole)
    if clip is None or not base.intersects_open(hole):
        return [base]
    pieces: List[Rect] = []
    if base.y_lo < clip.y_lo:
        pieces.append(Rect(base.x_lo, base.y_lo, base.x_hi, clip.y_lo))
    if clip.y_hi < base.y_hi:
        pieces.append(Rect(base.x_lo, clip.y_hi, base.x_hi, base.y_hi))
    if base.x_lo < clip.x_lo:
        pieces.append(Rect(base.x_lo, clip.y_lo, clip.x_lo, clip.y_hi))
    if clip.x_hi < base.x_hi:
        pieces.append(Rect(clip.x_hi, clip.y_lo, base.x_hi, clip.y_hi))
    return pieces
