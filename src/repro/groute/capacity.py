"""Global routing edge capacities (Sec. 2.5).

For an in-layer edge e = {(v, l), (w, l)} the capacity counts the usable
track-graph tracks between the tile centers c_v and c_w in preferred
direction, after extending each blockage by a small constant in preferred
direction; partially blocked tracks contribute fractionally (usable
vertices divided by the vertices per track).

Via edge capacities count the via positions placeable in the tile under
minimum distance constraints.  Refinements:

* intra-tile connections of longer nets are estimated by their Steiner
  length and the capacities reduced accordingly (Wei et al. [2012]);
* stacked vias crossing a layer reduce its capacity sublinearly, using
  the precomputed table of :mod:`repro.groute.stackedvias`;
* on layers whose via pads extend to neighbouring tracks, via capacity is
  scaled down accordingly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.chip.design import Chip
from repro.geometry.interval import merge_intervals
from repro.geometry.rect import Rect
from repro.groute.graph import Edge, GlobalRoutingGraph, canonical_edge
from repro.grid.tracks import TrackPlan
from repro.tech.layers import Direction

#: Blockages are extended by this many pitches in preferred direction
#: before counting usable track length (Sec. 2.5).
BLOCKAGE_EXTENSION_PITCHES = 1

#: Via pads that extend towards neighbouring tracks scale a tile's via
#: capacity by this factor (Sec. 2.5).
VIA_PAD_SCALING = 0.5


def _layer_obstacles(
    chip: Chip,
    layer: int,
    extra_obstacles: Optional[Sequence[Tuple[int, Rect]]] = None,
) -> List[Rect]:
    from repro.grid.tracks import obstacle_clearance

    extension = BLOCKAGE_EXTENSION_PITCHES * chip.stack[layer].pitch
    horizontal = chip.stack.direction(layer) is Direction.HORIZONTAL
    obstacles = []
    shapes = list(chip.obstruction_shapes())
    if extra_obstacles:
        # Pre-routed wiring (e.g. single-tile nets routed before capacity
        # estimation, Sec. 2.5) consumes track capacity like blockages.
        shapes += [(l, r, None) for l, r in extra_obstacles]
    for obs_layer, rect, _owner in shapes:
        if obs_layer != layer:
            continue
        margin_cross = obstacle_clearance(chip, layer, rect)
        if horizontal:
            obstacles.append(rect.expanded(extension + margin_cross, margin_cross))
        else:
            obstacles.append(rect.expanded(margin_cross, extension + margin_cross))
    return obstacles


def _usable_fraction(
    obstacles: Sequence[Rect],
    track_coord: int,
    span_lo: int,
    span_hi: int,
    horizontal: bool,
) -> float:
    """Fraction of the track segment [span_lo, span_hi] not blocked."""
    if span_hi <= span_lo:
        return 0.0
    blocked: List[Tuple[int, int]] = []
    for rect in obstacles:
        if horizontal:
            if rect.y_lo <= track_coord <= rect.y_hi:
                lo, hi = max(rect.x_lo, span_lo), min(rect.x_hi, span_hi)
                if lo < hi:
                    blocked.append((lo, hi))
        else:
            if rect.x_lo <= track_coord <= rect.x_hi:
                lo, hi = max(rect.y_lo, span_lo), min(rect.y_hi, span_hi)
                if lo < hi:
                    blocked.append((lo, hi))
    if not blocked:
        return 1.0
    blocked_length = sum(hi - lo for lo, hi in merge_intervals(blocked))
    return max(0.0, 1.0 - blocked_length / (span_hi - span_lo))


def estimate_capacities(
    graph: GlobalRoutingGraph,
    plan: TrackPlan,
    extra_obstacles: Optional[Sequence[Tuple[int, Rect]]] = None,
) -> None:
    """Fill ``graph.capacities`` for all edges.

    ``extra_obstacles``: already-routed wiring to account for, e.g. the
    pre-routed single-tile nets of Sec. 2.5.
    """
    chip = graph.chip
    obstacles_per_layer = {
        layer.index: _layer_obstacles(chip, layer.index, extra_obstacles)
        for layer in chip.stack
    }
    for edge in graph.edges():
        if graph.is_via_edge(edge):
            graph.capacities[edge] = _via_capacity(graph, plan, edge)
        else:
            graph.capacities[edge] = _wire_capacity(
                graph, plan, edge, obstacles_per_layer
            )


def _wire_capacity(
    graph: GlobalRoutingGraph,
    plan: TrackPlan,
    edge: Edge,
    obstacles_per_layer: Dict[int, List[Rect]],
) -> float:
    (ax, ay, z) = edge[0]
    (bx, by, _z) = edge[1]
    chip = graph.chip
    horizontal = chip.stack.direction(z) is Direction.HORIZONTAL
    center_a = graph.tile_center(ax, ay)
    center_b = graph.tile_center(bx, by)
    tile_a = graph.tile_rect(ax, ay)
    if horizontal:
        span_lo, span_hi = sorted((center_a[0], center_b[0]))
        cross_lo, cross_hi = tile_a.y_lo, tile_a.y_hi
    else:
        span_lo, span_hi = sorted((center_a[1], center_b[1]))
        cross_lo, cross_hi = tile_a.x_lo, tile_a.x_hi
    obstacles = obstacles_per_layer[z]
    capacity = 0.0
    for track_coord in plan.layer_tracks(z):
        if not (cross_lo <= track_coord <= cross_hi):
            continue
        capacity += _usable_fraction(
            obstacles, track_coord, span_lo, span_hi, horizontal
        )
    return capacity


def _via_capacity(
    graph: GlobalRoutingGraph, plan: TrackPlan, edge: Edge
) -> float:
    """Vias from layer l to l+1 placeable simultaneously in the tile."""
    (tx, ty, z_lo) = min(edge, key=lambda n: n[2])
    z_hi = z_lo + 1
    tile = graph.tile_rect(tx, ty)
    chip = graph.chip

    def tracks_in_tile(z: int) -> int:
        horizontal = chip.stack.direction(z) is Direction.HORIZONTAL
        lo, hi = (tile.y_lo, tile.y_hi) if horizontal else (tile.x_lo, tile.x_hi)
        return sum(1 for t in plan.layer_tracks(z) if lo <= t <= hi)

    crossings = tracks_in_tile(z_lo) * tracks_in_tile(z_hi)
    # Minimum via-cut distance halves the usable crossings; pads that
    # extend towards neighbouring tracks scale further (Sec. 2.5).
    return crossings * 0.5 * VIA_PAD_SCALING


def apply_intra_tile_reduction(
    graph: GlobalRoutingGraph, nets: Sequence, steiner_length
) -> None:
    """Reduce capacities for intra-tile wiring of longer nets (Sec. 2.5).

    ``steiner_length(points)`` estimates the Steiner length of a point
    set; the portion of a net's Steiner tree that stays within a tile
    consumes track capacity there even though global routing sees no
    edge usage.
    """
    chip = graph.chip
    for net in nets:
        per_tile: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for pin in net.pins:
            x, y = pin.reference_point()
            per_tile.setdefault(graph.tile_of_point(x, y), []).append((x, y))
        for (tx, ty), points in per_tile.items():
            if len(points) < 2:
                continue
            intra_length = steiner_length(points)
            if intra_length <= 0:
                continue
            tracks_consumed = intra_length / max(graph.tile_size, 1)
            for z in chip.stack.indices[:2]:
                node = (tx, ty, z)
                for _other, edge in graph.neighbors(node):
                    if graph.is_via_edge(edge):
                        continue
                    current = graph.capacities.get(edge, 0.0)
                    graph.capacities[edge] = max(
                        0.0, current - tracks_consumed / 2.0
                    )


def apply_stacked_via_reduction(graph: GlobalRoutingGraph) -> None:
    """Account for stacked vias crossing intermediate layers (Sec. 2.5).

    Uses the precomputed sublinear reduction table: for each tile and
    intermediate layer, the expected number of through-stacks (estimated
    from the via capacities above and below) reduces the layer's wire
    capacities.
    """
    from repro.groute.stackedvias import capacity_reduction

    chip = graph.chip
    for z in chip.stack.indices[1:-1]:
        for tx in range(graph.nx):
            for ty in range(graph.ny):
                below = graph.capacities.get(
                    canonical_edge((tx, ty, z - 1), (tx, ty, z)), 0.0
                )
                above = graph.capacities.get(
                    canonical_edge((tx, ty, z), (tx, ty, z + 1)), 0.0
                )
                expected_stacks = int(min(below, above) * 0.25)
                if expected_stacks <= 0:
                    continue
                reduction = capacity_reduction(expected_stacks)
                node = (tx, ty, z)
                for _other, edge in graph.neighbors(node):
                    if graph.is_via_edge(edge):
                        continue
                    current = graph.capacities.get(edge, 0.0)
                    graph.capacities[edge] = max(0.0, current - reduction)
