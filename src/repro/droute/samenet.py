"""Same-net rule postprocessing (Sec. 3.7, Sec. 4.4).

On-track path search pays no attention to same-net rules; violations occur
particularly where on-track and off-track paths meet.  After each path
search BonnRoute immediately postprocesses the new path:

* collinear adjacent segments are merged;
* segments shorter than the layer's minimum segment length tau are
  extended where legally possible (their line-end is padded so notch /
  short-edge configurations disappear);
* metal polygons below the minimum area get a stub extension.

Extensions are only applied when the distance rule checker confirms they
do not create diff-net violations; anything unfixable is left to the
external DRC cleanup, matching the paper's philosophy (Sec. 5.2, item 2:
violations that need extra space are avoided "as much as possible").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.droute.route import NetRoute
from repro.droute.space import RoutingSpace
from repro.geometry.polygon import rectilinear_area
from repro.geometry.rect import Rect
from repro.tech.layers import Direction
from repro.tech.wiring import StickFigure


def merge_collinear(sticks: Sequence[StickFigure]) -> List[StickFigure]:
    """Merge overlapping / abutting collinear stick figures per layer.

    Reduces segment count and removes zero-length artefacts; a shorter
    stick fully contained in a longer one disappears.
    """
    horizontal: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    vertical: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    points: List[StickFigure] = []
    for stick in sticks:
        if stick.is_point:
            points.append(stick)
        elif stick.y0 == stick.y1:
            horizontal.setdefault((stick.layer, stick.y0), []).append(
                (stick.x0, stick.x1)
            )
        else:
            vertical.setdefault((stick.layer, stick.x0), []).append(
                (stick.y0, stick.y1)
            )
    merged: List[StickFigure] = []
    for (layer, y), spans in sorted(horizontal.items()):
        spans.sort()
        lo, hi = spans[0]
        for a, b in spans[1:]:
            if a <= hi:
                hi = max(hi, b)
            else:
                merged.append(StickFigure(layer, lo, y, hi, y))
                lo, hi = a, b
        merged.append(StickFigure(layer, lo, y, hi, y))
    for (layer, x), spans in sorted(vertical.items()):
        spans.sort()
        lo, hi = spans[0]
        for a, b in spans[1:]:
            if a <= hi:
                hi = max(hi, b)
            else:
                merged.append(StickFigure(layer, x, lo, x, hi))
                lo, hi = a, b
        merged.append(StickFigure(layer, x, lo, x, hi))
    # Point sticks that are covered by a segment are dropped.
    covered = []
    for point in points:
        keep = True
        for stick in merged:
            if stick.layer == point.layer and stick.as_rect().contains_point(
                point.x0, point.y0
            ):
                keep = False
                break
        if keep:
            covered.append(point)
    return merged + covered


def min_segment_violations(
    space: RoutingSpace, sticks: Sequence[StickFigure]
) -> List[StickFigure]:
    """Sticks shorter than their layer's minimum segment length.

    Zero-length (point) sticks under vias are exempt: the via pads supply
    the metal.
    """
    out = []
    for stick in sticks:
        if stick.is_point:
            continue
        tau = space.chip.rules.same_net_rules(stick.layer).min_segment_length
        if stick.length < tau:
            out.append(stick)
    return out


def _try_extend(
    space: RoutingSpace,
    net_name: str,
    wire_type_name: str,
    stick: StickFigure,
    tau: int,
) -> Optional[StickFigure]:
    """A legal extension of ``stick`` to length >= tau, or None."""
    deficit = tau - stick.length
    if stick.direction is Direction.VERTICAL or (
        stick.direction is None
        and space.chip.stack.direction(stick.layer) is Direction.VERTICAL
    ):
        candidates = [
            StickFigure(stick.layer, stick.x0, stick.y0 - deficit, stick.x1, stick.y1),
            StickFigure(stick.layer, stick.x0, stick.y0, stick.x1, stick.y1 + deficit),
            StickFigure(
                stick.layer,
                stick.x0,
                stick.y0 - deficit // 2,
                stick.x1,
                stick.y1 + (deficit - deficit // 2),
            ),
        ]
    else:
        candidates = [
            StickFigure(stick.layer, stick.x0 - deficit, stick.y0, stick.x1, stick.y1),
            StickFigure(stick.layer, stick.x0, stick.y0, stick.x1 + deficit, stick.y1),
            StickFigure(
                stick.layer,
                stick.x0 - deficit // 2,
                stick.y0,
                stick.x1 + (deficit - deficit // 2),
                stick.y1,
            ),
        ]
    die = space.chip.die
    for candidate in candidates:
        if not die.contains_rect(candidate.as_rect()):
            continue
        if space.check_wire(wire_type_name, candidate, net_name).legal:
            return candidate
    return None


def fix_min_segment_lengths(
    space: RoutingSpace,
    net_name: str,
    wire_type_name,
    sticks: Sequence[StickFigure],
) -> List[StickFigure]:
    """Extend too-short segments where legally possible.

    ``wire_type_name`` is a type name or a ``layer -> type name``
    resolver (layer-restricted nets mix types, Sec. 1.1).
    """
    resolve = (
        wire_type_name if callable(wire_type_name) else (lambda _z: wire_type_name)
    )
    out: List[StickFigure] = []
    for stick in sticks:
        if stick.is_point:
            out.append(stick)
            continue
        tau = space.chip.rules.same_net_rules(stick.layer).min_segment_length
        if stick.length >= tau:
            out.append(stick)
            continue
        extended = _try_extend(space, net_name, resolve(stick.layer), stick, tau)
        out.append(extended if extended is not None else stick)
    return merge_collinear(out)


def min_area_deficits(
    space: RoutingSpace, route: NetRoute
) -> List[Tuple[int, int]]:
    """(layer, missing_area) for layers violating the minimum area rule.

    Computed per layer over the whole route's metal (wire shapes plus via
    pads); a finer per-polygon analysis is done by the DRC checker.
    """
    shapes_per_layer: Dict[int, List[Rect]] = {}
    for stick, _level, type_name in route.wire_items():
        wire_type = space.chip.wire_type(type_name)
        shape, _cls, _kind = wire_type.wire_shape(stick, space.chip.stack)
        shapes_per_layer.setdefault(stick.layer, []).append(shape)
    for via, _level, type_name in route.via_items():
        model = space.chip.wire_type(type_name).via_model(via.via_layer)
        for kind, layer, rect, _cls, _sk in model.shapes(via.x, via.y, via.via_layer):
            if kind == "wiring":
                shapes_per_layer.setdefault(layer, []).append(rect)
    deficits = []
    for layer, shapes in sorted(shapes_per_layer.items()):
        required = space.chip.rules.same_net_rules(layer).min_area
        area = rectilinear_area(shapes)
        if 0 < area < required:
            deficits.append((layer, required - area))
    return deficits


def postprocess_path(
    space: RoutingSpace,
    net_name: str,
    wire_type_name,
    sticks: Sequence[StickFigure],
) -> List[StickFigure]:
    """The immediate post-path cleanup of Sec. 4.4.

    ``wire_type_name`` may be a name or a per-layer resolver.
    """
    merged = merge_collinear(sticks)
    return fix_min_segment_lengths(space, net_name, wire_type_name, merged)
