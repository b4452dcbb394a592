"""The track graph (Sec. 3.5).

The intersection points of routing tracks with tracks projected from the
neighbouring wiring layers define the vertices.  Two vertices are adjacent
if two of their coordinates are equal and the connecting straight line
meets no other vertex or wiring layer: consecutive vertices along a track
(preferred direction), vertices on adjacent tracks at the same cross
coordinate (jogs), and coinciding positions on adjacent layers (vias).

Vertices are addressed as ``(z, t, c)``: wiring layer z, track index t
(into the layer's sorted track list), cross index c (into the layer's
sorted cross-coordinate list).  On a horizontal layer the track coordinate
is y and the cross coordinate is x; on a vertical layer vice versa.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.grid.tracks import TrackPlan
from repro.tech.layers import Direction, LayerStack

Vertex = Tuple[int, int, int]  # (layer z, track index t, cross index c)


class TrackGraph:
    """Indexable track graph over a :class:`TrackPlan`."""

    def __init__(self, stack: LayerStack, plan: TrackPlan) -> None:
        self.stack = stack
        self.tracks: Dict[int, List[int]] = {
            z: list(plan.layer_tracks(z)) for z in stack.indices
        }
        # Cross coordinates of layer z: the union of the track coordinates
        # of the adjacent layers (their tracks run orthogonally, so they
        # project to points along z's tracks).
        self.crosses: Dict[int, List[int]] = {}
        for z in stack.indices:
            coords = set()
            for neighbour in (z - 1, z + 1):
                if stack.has_layer(neighbour):
                    coords.update(self.tracks[neighbour])
            self.crosses[z] = sorted(coords)
        self._track_index: Dict[int, Dict[int, int]] = {
            z: {coord: i for i, coord in enumerate(self.tracks[z])}
            for z in stack.indices
        }
        self._cross_index: Dict[int, Dict[int, int]] = {
            z: {coord: i for i, coord in enumerate(self.crosses[z])}
            for z in stack.indices
        }
        # Via partner tables: (z, z +- 1) -> (t_of_c, c_of_t).  Adjacent
        # layers are orthogonal, so the partner of (z, t, c) is
        # (z +- 1, t_of_c[c], c_of_t[t]); None marks a coordinate with no
        # track or cross on the other layer.
        self.via_tables: Dict[
            Tuple[int, int], Tuple[List[Optional[int]], List[Optional[int]]]
        ] = {}
        for z in stack.indices:
            for other in (z - 1, z + 1):
                if stack.has_layer(other):
                    self.via_tables[(z, other)] = (
                        [self._track_index[other].get(x) for x in self.crosses[z]],
                        [self._cross_index[other].get(x) for x in self.tracks[z]],
                    )

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------
    def position(self, vertex: Vertex) -> Tuple[int, int, int]:
        """Physical (x, y, z) of a vertex."""
        z, t, c = vertex
        track = self.tracks[z][t]
        cross = self.crosses[z][c]
        if self.stack.direction(z) is Direction.HORIZONTAL:
            return (cross, track, z)
        return (track, cross, z)

    def vertex_at(self, x: int, y: int, z: int) -> Optional[Vertex]:
        """Vertex at exact physical coordinates, or None."""
        if self.stack.direction(z) is Direction.HORIZONTAL:
            track, cross = y, x
        else:
            track, cross = x, y
        t = self._track_index[z].get(track)
        c = self._cross_index[z].get(cross)
        if t is None or c is None:
            return None
        return (z, t, c)

    def is_vertex(self, vertex: Vertex) -> bool:
        z, t, c = vertex
        return (
            self.stack.has_layer(z)
            and 0 <= t < len(self.tracks[z])
            and 0 <= c < len(self.crosses[z])
        )

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def neighbors(self, vertex: Vertex) -> Iterator[Tuple[Vertex, str, int]]:
        """Yield (neighbour, kind, l1_length) for kind in wire/jog/via."""
        z, t, c = vertex
        crosses = self.crosses[z]
        tracks = self.tracks[z]
        if c > 0:
            yield ((z, t, c - 1), "wire", crosses[c] - crosses[c - 1])
        if c + 1 < len(crosses):
            yield ((z, t, c + 1), "wire", crosses[c + 1] - crosses[c])
        if t > 0:
            yield ((z, t - 1, c), "jog", tracks[t] - tracks[t - 1])
        if t + 1 < len(tracks):
            yield ((z, t + 1, c), "jog", tracks[t + 1] - tracks[t])
        for other in (z - 1, z + 1):
            via = self.via_partner(vertex, other)
            if via is not None:
                yield (via, "via", 0)

    def via_partner(self, vertex: Vertex, other_layer: int) -> Optional[Vertex]:
        """The vertex straight above/below on the adjacent ``other_layer``,
        if any."""
        z, t, c = vertex
        tables = self.via_tables.get((z, other_layer))
        if tables is None:
            return None
        pt = tables[0][c]
        pc = tables[1][t]
        if pt is None or pc is None:
            return None
        return (other_layer, pt, pc)

    # ------------------------------------------------------------------
    # Locating vertices near geometry (for S/T construction)
    # ------------------------------------------------------------------
    def tracks_in_range(self, z: int, lo: int, hi: int) -> List[int]:
        """Track indices whose coordinate lies in [lo, hi]."""
        coords = self.tracks[z]
        start = bisect.bisect_left(coords, lo)
        end = bisect.bisect_right(coords, hi)
        return list(range(start, end))

    def crosses_in_range(self, z: int, lo: int, hi: int) -> List[int]:
        coords = self.crosses[z]
        start = bisect.bisect_left(coords, lo)
        end = bisect.bisect_right(coords, hi)
        return list(range(start, end))

    def vertices_in_rect(
        self, z: int, x_lo: int, y_lo: int, x_hi: int, y_hi: int
    ) -> List[Vertex]:
        """All vertices of layer z inside the closed rectangle."""
        if self.stack.direction(z) is Direction.HORIZONTAL:
            track_range = self.tracks_in_range(z, y_lo, y_hi)
            cross_range = self.crosses_in_range(z, x_lo, x_hi)
        else:
            track_range = self.tracks_in_range(z, x_lo, x_hi)
            cross_range = self.crosses_in_range(z, y_lo, y_hi)
        return [(z, t, c) for t in track_range for c in cross_range]

    def nearest_vertex(self, x: int, y: int, z: int) -> Optional[Vertex]:
        """Vertex of layer z closest (l1) to the point, or None if empty."""
        tracks = self.tracks[z]
        crosses = self.crosses[z]
        if not tracks or not crosses:
            return None
        if self.stack.direction(z) is Direction.HORIZONTAL:
            track_coord, cross_coord = y, x
        else:
            track_coord, cross_coord = x, y
        t = _nearest_index(tracks, track_coord)
        c = _nearest_index(crosses, cross_coord)
        return (z, t, c)


def _nearest_index(coords: Sequence[int], value: int) -> int:
    pos = bisect.bisect_left(coords, value)
    if pos == 0:
        return 0
    if pos == len(coords):
        return len(coords) - 1
    before, after = coords[pos - 1], coords[pos]
    return pos if after - value < value - before else pos - 1
