"""Routing areas: the vertex subsets path searches are restricted to.

The net connection procedure (Sec. 4.4) restricts each on-track path
search to the union of the global routing tiles its corridor passes
through (plus neighbouring layers).  A routing area is a per-layer set of
rectangles; ``None`` means the whole chip.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry.rect import Rect
from repro.grid.trackgraph import TrackGraph, Vertex


class RoutingArea:
    """Union of per-layer rectangles restricting a path search."""

    def __init__(self, boxes: Optional[Dict[int, List[Rect]]] = None) -> None:
        #: layer -> list of rectangles; None = unrestricted.
        self.boxes = boxes

    @staticmethod
    def everywhere() -> "RoutingArea":
        return RoutingArea(None)

    @staticmethod
    def from_boxes(boxes: Sequence[Tuple[int, Rect]]) -> "RoutingArea":
        per_layer: Dict[int, List[Rect]] = {}
        for layer, rect in boxes:
            per_layer.setdefault(layer, []).append(rect)
        return RoutingArea(per_layer)

    def expanded(self, amount: int) -> "RoutingArea":
        if self.boxes is None:
            return self
        return RoutingArea(
            {
                layer: [rect.expanded(amount) for rect in rects]
                for layer, rects in self.boxes.items()
            }
        )

    def contains(self, x: int, y: int, z: int) -> bool:
        if self.boxes is None:
            return True
        rects = self.boxes.get(z)
        if not rects:
            return False
        return any(rect.contains_point(x, y) for rect in rects)

    def contains_vertex(self, graph: TrackGraph, vertex: Vertex) -> bool:
        x, y, z = graph.position(vertex)
        return self.contains(x, y, z)

    def cross_ranges(self, graph: TrackGraph, z: int, t: int) -> List[Tuple[int, int]]:
        """Closed cross-index ranges of track (z, t) inside the area."""
        if self.boxes is None:
            count = len(graph.crosses[z])
            return [(0, count - 1)] if count else []
        rects = self.boxes.get(z)
        if not rects:
            return []
        track_coord = graph.tracks[z][t]
        horizontal = graph.stack.direction(z).value == "horizontal"
        ranges: List[Tuple[int, int]] = []
        for rect in rects:
            if horizontal:
                if not (rect.y_lo <= track_coord <= rect.y_hi):
                    continue
                indices = graph.crosses_in_range(z, rect.x_lo, rect.x_hi)
            else:
                if not (rect.x_lo <= track_coord <= rect.x_hi):
                    continue
                indices = graph.crosses_in_range(z, rect.y_lo, rect.y_hi)
            if indices:
                ranges.append((indices[0], indices[-1]))
        if not ranges:
            return []
        ranges.sort()
        merged = [ranges[0]]
        for lo, hi in ranges[1:]:
            if lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return merged
