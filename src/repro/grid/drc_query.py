"""Distance rule checking module (Sec. 3.4).

The interface between the shape grid and everything else.  Given a
location and wire/via models, it decides whether the induced metal can be
placed without diff-net minimum-distance violations, and if not, which
nets would have to be (partially) removed to make the answer positive.

Spacing model:

* the candidate's metal shape already includes the pessimistic line-end
  extension in preferred direction (jogs excluded), so line-end rules are
  geometric rather than extra spacing terms (Sec. 3.1, Fig. 2);
* the required distance between two shapes is the spacing table evaluated
  at (max rule width, common run-length), measured as the l2 gap of the
  rectangles (Sec. 3.1);
* run-length against clipped shape-grid pieces is computed after merging
  abutting pieces of the same net within the query window, so long wires
  stored cell-by-cell keep their full run-length; the merge runs only for
  a group of pieces whose outcome the pieces alone leave open
  (:meth:`DistanceRuleChecker._evaluate`);
* inter-layer via rules are checked inside a single via layer against the
  stored cut projections (Sec. 3.2).
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.geometry.l1 import rect_l2_gap, run_length
from repro.geometry.rect import Rect
from repro.grid.shapegrid import RIPUP_FIXED, ShapeEntry, ShapeGrid
from repro.tech.layers import LayerStack
from repro.tech.rules import RuleSet
from repro.tech.wiring import ShapeKind, StickFigure, WireType


class PlacementCheck:
    """Outcome of a placement query."""

    __slots__ = ("legal", "blockers", "max_ripup_needed")

    def __init__(
        self,
        legal: bool,
        blockers: Set[str],
        max_ripup_needed: int,
    ) -> None:
        #: True iff no diff-net violation at all.
        self.legal = legal
        #: Nets whose (partial) removal would make the placement legal;
        #: empty when a fixed shape is violated (unfixable by ripup).
        self.blockers = blockers
        #: Largest ripup level among violating shapes, RIPUP_FIXED if any
        #: violating shape cannot be removed.
        self.max_ripup_needed = max_ripup_needed

    def legal_with_ripup(self, allowed_level: int) -> bool:
        """Legal if ripping shapes of level <= allowed_level is permitted."""
        if self.legal:
            return True
        if self.max_ripup_needed == RIPUP_FIXED:
            return False
        return self.max_ripup_needed <= allowed_level

    def __repr__(self) -> str:
        return (
            f"PlacementCheck(legal={self.legal}, blockers={sorted(self.blockers)}, "
            f"ripup={self.max_ripup_needed})"
        )


_LEGAL = PlacementCheck(True, set(), 0)


class PrefetchedBand:
    """Shape entries of one band, indexed for fast window filtering.

    Entries are sorted by their low coordinate along the band's long
    axis; a window query bisects into that order and only rect-checks the
    handful of candidates whose along-axis span can reach the window.
    """

    __slots__ = ("entries", "_los", "_axis_x", "_max_span")

    def __init__(self, entries: List[ShapeEntry], axis_x: bool) -> None:
        self._axis_x = axis_x
        if axis_x:
            entries = sorted(entries, key=lambda e: e.rect.x_lo)
            spans = [e.rect.width for e in entries]
            self._los = [e.rect.x_lo for e in entries]
        else:
            entries = sorted(entries, key=lambda e: e.rect.y_lo)
            spans = [e.rect.height for e in entries]
            self._los = [e.rect.y_lo for e in entries]
        self.entries = entries
        self._max_span = max(spans) if spans else 0

    def query(self, window: Rect) -> List[ShapeEntry]:
        if self._axis_x:
            lo_bound = window.x_lo - self._max_span
            hi_bound = window.x_hi
        else:
            lo_bound = window.y_lo - self._max_span
            hi_bound = window.y_hi
        start = bisect.bisect_left(self._los, lo_bound)
        end = bisect.bisect_right(self._los, hi_bound)
        return [
            e for e in self.entries[start:end] if e.rect.intersects(window)
        ]


def _merge_rects(rects: List[Rect]) -> List[Rect]:
    """Merge abutting clipped pieces of one (net, class, kind, ripup) group.

    Restores run-lengths of long shapes that the shape grid stores
    cell-by-cell: pieces that share a full edge are coalesced greedily
    until a fixed point.  Every returned rectangle is the union of the
    pieces merged into it.
    """
    changed = True
    while changed and len(rects) > 1:
        changed = False
        out: List[Rect] = []
        used = [False] * len(rects)
        for i in range(len(rects)):
            if used[i]:
                continue
            current = rects[i]
            for j in range(i + 1, len(rects)):
                if used[j]:
                    continue
                other = rects[j]
                if (
                    current.y_lo == other.y_lo
                    and current.y_hi == other.y_hi
                    and current.x_lo <= other.x_hi
                    and other.x_lo <= current.x_hi
                ):
                    current = current.hull(other)
                    used[j] = True
                    changed = True
                elif (
                    current.x_lo == other.x_lo
                    and current.x_hi == other.x_hi
                    and current.y_lo <= other.y_hi
                    and other.y_lo <= current.y_hi
                ):
                    current = current.hull(other)
                    used[j] = True
                    changed = True
            used[i] = True
            out.append(current)
        rects = out
    return rects


def _group_violates(
    group: List[ShapeEntry], candidate: Rect, rule_width: int, spacing_fn
) -> bool:
    """Does any merged piece of ``group`` violate against ``candidate``?

    A merged rectangle is the union of its pieces, so its gap is at most
    each piece's gap and its run length at least each piece's, and spacing
    is non-decreasing in run length.  Hence one piece violating on its own
    decides "yes", and every piece at least the unbounded-run-length
    spacing away decides "no"; only a group left open by both, with more
    than one piece, is merged.  All pieces are measured with the group's
    first rule width, as the merged rectangles are.
    """
    width = group[0].rule_width
    clear = spacing_fn(rule_width, width, math.inf)
    ambiguous = False
    for entry in group:
        rect = entry.rect
        gap = rect_l2_gap(candidate, rect)
        if gap >= clear:
            continue
        if gap < spacing_fn(rule_width, width, run_length(candidate, rect)):
            return True
        ambiguous = True
    if not ambiguous or len(group) == 1:
        return False
    for rect in _merge_rects([e.rect for e in group]):
        required = spacing_fn(rule_width, width, run_length(candidate, rect))
        if rect_l2_gap(candidate, rect) < required:
            return True
    return False


class DistanceRuleChecker:
    """Diff-net rule oracle over a :class:`ShapeGrid`."""

    def __init__(self, grid: ShapeGrid, stack: LayerStack, rules: RuleSet) -> None:
        self.grid = grid
        self.stack = stack
        self.rules = rules
        #: Query statistics; the fast grid reports its hit rate against
        #: these (Sec. 3.6's 97.89 % statistic).
        self.query_count = 0

    # ------------------------------------------------------------------
    # Single-shape check
    # ------------------------------------------------------------------
    def prefetch_entries(self, kind: str, layer: int, band: Rect) -> List[ShapeEntry]:
        """One shape-grid query covering a whole band of future checks.

        Used by the fast grid to compute legality words for a full track
        segment with a single grid traversal; the per-candidate check then
        filters this list by its own window, which yields exactly the same
        result as an individual query.  ``band`` must contain every such
        window.  The query is widened by one grid cell, so a piece stored
        in a neighbouring cell that only touches a window is returned too,
        and every window filters the same pieces, in the same order, out
        of any band containing it.
        """
        return self.grid.query(
            kind, layer, band.expanded(self.grid.cell_size(kind, layer))
        )

    def metal_window(self, layer: int, candidate: Rect) -> Rect:
        """Query window of a wiring-layer candidate.

        Every stored shape that can violate against ``candidate`` meets
        this window; a candidate whose window meets no shape is legal.
        """
        return candidate.expanded(self.rules.spacing_rule(layer).max_spacing() + 1)

    def metal_reach(self, layer: int, rule_width: int, widest: int) -> int:
        """Gap from which no stored piece can make a candidate illegal.

        For a wiring-layer candidate of ``rule_width`` among pieces whose
        rule widths are at most ``widest``: spacing is non-decreasing in
        width and run length, so this bounds every group's
        unbounded-run-length spacing in :func:`_group_violates`, and
        pieces all at least this far away leave :meth:`check_metal`
        legal.
        """
        return self.rules.spacing_rule(layer).spacing(rule_width, widest, math.inf)

    def check_metal(
        self,
        layer: int,
        candidate: Rect,
        rule_width: int,
        net: Optional[str],
        prefetched: Optional[PrefetchedBand] = None,
    ) -> PlacementCheck:
        """Check one candidate wiring-layer rectangle against stored shapes."""
        self.query_count += 1
        window = self.metal_window(layer, candidate)
        if prefetched is None:
            entries = self.grid.query("wiring", layer, window)
        else:
            entries = prefetched.query(window)
        return self._evaluate(
            entries, candidate, rule_width, net, self.rules.spacing_rule(layer).spacing
        )

    def check_via_cut(
        self,
        via_layer: int,
        candidate: Rect,
        rule_width: int,
        net: Optional[str],
    ) -> PlacementCheck:
        """Check a via cut, including the inter-layer via rule (Sec. 3.2)."""
        self.query_count += 1
        via_rule = self.rules.via_rule(via_layer)
        if via_rule is None:
            return _LEGAL
        radius = max(via_rule.cut_spacing, via_rule.adjacent_layer_spacing)
        entries = self.grid.query("via", via_layer, candidate.expanded(radius + 1))

        def spacing(width_a: int, width_b: int, rl: int) -> int:
            return via_rule.cut_spacing

        # Projections of cuts from the adjacent via layer need the
        # (typically smaller) adjacent-layer spacing; split the entries.
        projections = [
            e for e in entries
            if e.shape_kind == ShapeKind.VIA_CUT_PROJECTION.value
        ]
        cuts = [
            e for e in entries
            if e.shape_kind != ShapeKind.VIA_CUT_PROJECTION.value
        ]
        result = self._evaluate(cuts, candidate, rule_width, net, spacing)
        if projections and via_rule.adjacent_layer_spacing > 0:

            def adj_spacing(width_a: int, width_b: int, rl: int) -> int:
                return via_rule.adjacent_layer_spacing

            other = self._evaluate(
                projections, candidate, rule_width, net, adj_spacing
            )
            result = _combine(result, other)
        return result

    def _evaluate(
        self,
        entries: Iterable[ShapeEntry],
        candidate: Rect,
        rule_width: int,
        net: Optional[str],
        spacing_fn,
    ) -> PlacementCheck:
        """Diff-net outcome of ``candidate`` against ``entries``.

        Pieces are grouped by (net, class, kind, ripup level), the key
        same-net merging uses; the outcome depends only on which groups
        violate (:func:`_group_violates`).
        """
        groups: Dict[Tuple, List[ShapeEntry]] = {}
        for entry in entries:
            if net is not None and entry.net == net:
                continue
            key = (entry.net, entry.class_name, entry.shape_kind, entry.ripup_level)
            group = groups.get(key)
            if group is None:
                groups[key] = [entry]
            else:
                group.append(entry)
        blockers: Set[str] = set()
        max_ripup = 0
        legal = True
        for (group_net, _, _, ripup_level), group in groups.items():
            if not _group_violates(group, candidate, rule_width, spacing_fn):
                continue
            legal = False
            if ripup_level == RIPUP_FIXED or group_net is None:
                return PlacementCheck(False, set(), RIPUP_FIXED)
            blockers.add(group_net)
            max_ripup = max(max_ripup, ripup_level)
        if legal:
            return _LEGAL
        return PlacementCheck(False, blockers, max_ripup)

    # ------------------------------------------------------------------
    # Model-level checks (the Sec. 3.4 interface)
    # ------------------------------------------------------------------
    def check_wire(
        self, wire_type: WireType, stick: StickFigure, net: Optional[str]
    ) -> PlacementCheck:
        """Check a wire stick figure placed with ``wire_type``."""
        shape, shape_class, _kind = wire_type.wire_shape(stick, self.stack)
        return self.check_metal(stick.layer, shape, shape_class.rule_width, net)

    def check_via(
        self,
        wire_type: WireType,
        via_layer: int,
        x: int,
        y: int,
        net: Optional[str],
    ) -> PlacementCheck:
        """Check a via of ``wire_type`` anchored at (x, y) on ``via_layer``."""
        model = wire_type.via_model(via_layer)
        result = _LEGAL
        for kind, layer, rect, shape_class, shape_kind in model.shapes(x, y, via_layer):
            if shape_kind is ShapeKind.VIA_CUT_PROJECTION:
                # The projection is only an obstacle for *other* vias; it
                # is checked implicitly when those are placed.
                continue
            if kind == "wiring":
                check = self.check_metal(layer, rect, shape_class.rule_width, net)
            else:
                check = self.check_via_cut(layer, rect, shape_class.rule_width, net)
            result = _combine(result, check)
            if not result.legal and result.max_ripup_needed == RIPUP_FIXED:
                return result
        return result

    def allowed_models(
        self,
        wire_types: Sequence[WireType],
        layer: int,
        x: int,
        y: int,
        net: Optional[str],
    ) -> Dict[str, Dict[str, bool]]:
        """Sec. 3.4 query: which models of which wire types fit at (x, y).

        Returns per wire type the legality of {pref wire start, jog start,
        via down, via up} at the location, the same four shape types the
        fast grid stores words for (Sec. 3.6).
        """
        out: Dict[str, Dict[str, bool]] = {}
        for wire_type in wire_types:
            entry: Dict[str, bool] = {}
            if wire_type.has_layer(layer):
                pref = StickFigure(layer, x, y, x, y)
                shape, cls, _ = wire_type.wire_shape(pref, self.stack)
                entry["wire"] = self.check_metal(layer, shape, cls.rule_width, net).legal
                model = wire_type.nonpreferred_model(layer)
                jog_shape = model.metal_shape(pref, self.stack.direction(layer))
                entry["jog"] = self.check_metal(
                    layer, jog_shape, model.shape_class.rule_width, net
                ).legal
            if self.stack.has_layer(layer - 1) and wire_type.has_via_layer(layer - 1):
                entry["via_down"] = self.check_via(wire_type, layer - 1, x, y, net).legal
            if self.stack.has_layer(layer + 1) and wire_type.has_via_layer(layer):
                entry["via_up"] = self.check_via(wire_type, layer, x, y, net).legal
            out[wire_type.name] = entry
        return out


def _combine(a: PlacementCheck, b: PlacementCheck) -> PlacementCheck:
    if a.legal:
        return b
    if b.legal:
        return a
    if a.max_ripup_needed == RIPUP_FIXED or b.max_ripup_needed == RIPUP_FIXED:
        return PlacementCheck(False, set(), RIPUP_FIXED)
    return PlacementCheck(
        False,
        a.blockers | b.blockers,
        max(a.max_ripup_needed, b.max_ripup_needed),
    )
