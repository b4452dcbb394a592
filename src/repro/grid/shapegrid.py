"""The shape grid (Sec. 3.3).

The shape grid partitions the chip area on each wiring layer and each via
layer into rectangular cells small enough that shapes of different nets
cannot legally share a cell.  Per cell it stores a configuration number
into a lookup table (:mod:`repro.grid.cellconfig`); runs of identical
configuration numbers in preferred direction are merged into intervals
kept in an AVL tree per row (or column) of cells.  Empty intervals are not
stored.  Cell contents are reference-counted multisets: adding the same
shape twice requires removing it twice (see :mod:`repro.grid.cellconfig`).

This is the ground truth for diff-net rule checking: given a region, it
returns every stored shape piece with its net, shape class, kind and ripup
level.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Tuple

from repro.geometry.rect import Rect
from repro.grid.cellconfig import (
    EMPTY_CONFIG_ID,
    CellShape,
    ConfigTable,
)
from repro.obs import OBS
from repro.tech.layers import Direction, LayerStack
from repro.tech.wiring import ShapeKind
from repro.util.avl import AVLTree


class RipupLevel(enum.IntEnum):
    """Removability of a shape; ripup may remove levels <= the allowed one."""

    NEVER = 0  # blockages, pins, power - encoded as "fixed" below
    CRITICAL = 1  # critical-net wiring, ripped only at high effort
    RESERVED = 2  # pin-access reservations
    NORMAL = 3  # ordinary routed wiring


RIPUP_FIXED = -1  # sentinel: not removable at any effort


class ShapeEntry:
    """One shape as returned by region queries (absolute coordinates)."""

    __slots__ = ("rect", "net", "class_name", "shape_kind", "ripup_level", "rule_width")

    def __init__(
        self,
        rect: Rect,
        net: Optional[str],
        class_name: str,
        shape_kind: str,
        ripup_level: int,
        rule_width: int,
    ) -> None:
        self.rect = rect
        self.net = net
        self.class_name = class_name
        self.shape_kind = shape_kind
        self.ripup_level = ripup_level
        self.rule_width = rule_width

    def __repr__(self) -> str:
        return (
            f"ShapeEntry({self.rect}, net={self.net}, {self.shape_kind}, "
            f"ripup={self.ripup_level})"
        )

    @property
    def removable(self) -> bool:
        return self.ripup_level != RIPUP_FIXED


class _LayerGrid:
    """Shape grid of one (kind, layer): interval rows of config numbers."""

    __slots__ = (
        "cell_size",
        "origin_x",
        "origin_y",
        "pref_is_x",
        "table",
        "rows",
        "fixed_rows",
        "fixed_spanning",
        "materialized",
    )

    #: Fixed shapes covering more rows than this go to the spanning pool
    #: (checked per materialized row) instead of being bucketed into
    #: every row they touch.
    SPAN_LIMIT = 8

    def __init__(
        self, cell_size: int, origin: Tuple[int, int], pref_is_x: bool
    ) -> None:
        self.cell_size = cell_size
        self.origin_x, self.origin_y = origin
        self.pref_is_x = pref_is_x
        self.table = ConfigTable()
        # rows: row index (non-preferred axis) -> AVL keyed by interval
        # start column; value = [end_column, config_id].
        self.rows: Dict[int, AVLTree] = {}
        # Lazy fixed-geometry pools: shapes registered via add_fixed are
        # folded into a row's intervals the first time anything touches
        # that row.  fixed_rows buckets short shapes by row index;
        # fixed_spanning holds (row_lo, row_hi, rect, meta) for shapes
        # crossing many rows (power straps).
        self.fixed_rows: Dict[int, List[Tuple[Rect, Tuple]]] = {}
        self.fixed_spanning: List[Tuple[int, int, Rect, Tuple]] = []
        self.materialized: set = set()

    # -- cell coordinate helpers ------------------------------------
    def _to_cell(self, x: int, y: int) -> Tuple[int, int]:
        """(row, col) of the cell containing point (x, y)."""
        cx = (x - self.origin_x) // self.cell_size
        cy = (y - self.origin_y) // self.cell_size
        return (cy, cx) if self.pref_is_x else (cx, cy)

    def _cell_anchor(self, row: int, col: int) -> Tuple[int, int]:
        if self.pref_is_x:
            cx, cy = col, row
        else:
            cx, cy = row, col
        return (self.origin_x + cx * self.cell_size, self.origin_y + cy * self.cell_size)

    def _cell_rect(self, row: int, col: int) -> Rect:
        ax, ay = self._cell_anchor(row, col)
        return Rect(ax, ay, ax + self.cell_size, ay + self.cell_size)

    def _covered_cells(self, rect: Rect) -> Tuple[int, int, int, int]:
        """Closed (row_lo, row_hi, col_lo, col_hi) of cells intersecting rect.

        A rectangle touching only a cell border still intersects that cell
        (closed semantics), matching how spacing interactions work.
        """
        row_lo, col_lo = self._to_cell(rect.x_lo, rect.y_lo)
        row_hi, col_hi = self._to_cell(rect.x_hi, rect.y_hi)
        return (row_lo, row_hi, col_lo, col_hi)

    # -- interval row primitives -------------------------------------
    def _get_config(self, row: AVLTree, col: int) -> int:
        item = row.floor_item(col)
        if item is None:
            return EMPTY_CONFIG_ID
        start, (end, config_id) = item
        return config_id if col <= end else EMPTY_CONFIG_ID

    def _set_range(self, row_index: int, col_lo: int, col_hi: int, mapper) -> None:
        """Apply ``mapper(col, old_config_id) -> new_config_id`` over a range.

        Rewrites the row's intervals across [col_lo, col_hi], merging runs
        of identical configuration numbers (also with the untouched
        neighbours just outside the range).
        """
        row = self.rows.get(row_index)
        if row is None:
            row = AVLTree()
            self.rows[row_index] = row
        # Collect old intervals overlapping the (slightly widened) range so
        # that boundary merges are seen.
        scan_lo, scan_hi = col_lo - 1, col_hi + 1
        overlapping: List[Tuple[int, int, int]] = []
        item = row.floor_item(scan_lo)
        if item is not None and item[1][0] >= scan_lo:
            overlapping.append((item[0], item[1][0], item[1][1]))
        for start, (end, config_id) in list(row.items(lo=scan_lo + 1, hi=scan_hi)):
            overlapping.append((start, end, config_id))
        # Build the new run list over [scan_lo, scan_hi].
        old_at: Dict[int, int] = {}
        for start, end, config_id in overlapping:
            for col in range(max(start, scan_lo), min(end, scan_hi) + 1):
                old_at[col] = config_id
        runs: List[Tuple[int, int, int]] = []  # (start, end, config)
        for col in range(scan_lo, scan_hi + 1):
            old = old_at.get(col, EMPTY_CONFIG_ID)
            new = mapper(col, old) if col_lo <= col <= col_hi else old
            if runs and runs[-1][2] == new and runs[-1][1] == col - 1:
                runs[-1] = (runs[-1][0], col, new)
            else:
                runs.append((col, col, new))
        # Remove old intervals in the scan range, re-inserting clipped
        # leftovers extending beyond it.
        for start, end, config_id in overlapping:
            row.delete(start)
            if start < scan_lo:
                row.insert(start, [scan_lo - 1, config_id])
            if end > scan_hi:
                row.insert(scan_hi + 1, [end, config_id])
        # Insert the new runs (skipping empty ones), merging with the
        # neighbours that survived clipping.
        for start, end, config_id in runs:
            if config_id == EMPTY_CONFIG_ID:
                continue
            prev = row.floor_item(start - 1)
            if prev is not None and prev[1][0] == start - 1 and prev[1][1] == config_id:
                row.delete(prev[0])
                start = prev[0]
            nxt = row.ceiling_item(end + 1)
            if nxt is not None and nxt[0] == end + 1 and nxt[1][1] == config_id:
                row.delete(nxt[0])
                end = nxt[1][0]
            row.insert(start, [end, config_id])
        if not row:
            del self.rows[row_index]

    # -- lazy fixed geometry ------------------------------------------
    def add_fixed(self, rect: Rect, meta: Tuple) -> None:
        """Register a fixed shape without building its rows yet.

        The shape becomes visible (and is folded into the interval
        trees) when :meth:`_ensure_rows` first materializes a row it
        covers; rows already materialized receive it immediately, so
        registration order never changes what queries see.
        """
        row_lo, row_hi, _col_lo, _col_hi = self._covered_cells(rect)
        if row_hi - row_lo + 1 > self.SPAN_LIMIT:
            self.fixed_spanning.append((row_lo, row_hi, rect, meta))
        else:
            for row_index in range(row_lo, row_hi + 1):
                if row_index in self.materialized:
                    continue
                self.fixed_rows.setdefault(row_index, []).append((rect, meta))
        for row_index in range(row_lo, row_hi + 1):
            if row_index in self.materialized:
                self._apply_to_row(row_index, rect, meta)

    def _apply_to_row(self, row_index: int, rect: Rect, meta: Tuple) -> None:
        """Fold one shape into one (already materialized) row."""
        _row_lo, _row_hi, col_lo, col_hi = self._covered_cells(rect)
        table = self.table

        def mapper(col: int, old: int) -> int:
            shape = self._cell_shape(rect, row_index, col, meta)
            if shape is None:
                return old
            return table.with_shape(old, shape)

        self._set_range(row_index, col_lo, col_hi, mapper)

    def _ensure_rows(self, row_lo: int, row_hi: int) -> None:
        """Materialize the fixed geometry of rows [row_lo, row_hi].

        Every mutation and query passes through here first, so a row's
        interval tree always contains its fixed shapes before anything
        reads or edits it — cell configurations are multisets, so the
        final content is the same as the eager build's.
        """
        if not self.fixed_rows and not self.fixed_spanning:
            return
        for row_index in range(row_lo, row_hi + 1):
            if row_index in self.materialized:
                continue
            self.materialized.add(row_index)
            for rect, meta in self.fixed_rows.pop(row_index, ()):
                self._apply_to_row(row_index, rect, meta)
            for span_lo, span_hi, rect, meta in self.fixed_spanning:
                if span_lo <= row_index <= span_hi:
                    self._apply_to_row(row_index, rect, meta)
            if OBS.enabled:
                OBS.count("space.lazy_rows")

    def pending_fixed_count(self) -> int:
        """Registered fixed shapes with at least one unmaterialized row."""
        pending = sum(len(shapes) for shapes in self.fixed_rows.values())
        for span_lo, span_hi, _rect, _meta in self.fixed_spanning:
            if any(
                row not in self.materialized
                for row in range(span_lo, span_hi + 1)
            ):
                pending += 1
        return pending

    # -- shape operations ---------------------------------------------
    def _cell_shape(self, rect: Rect, row: int, col: int, meta: Tuple) -> Optional[CellShape]:
        clip = rect.intersection(self._cell_rect(row, col))
        if clip is None:
            return None
        ax, ay = self._cell_anchor(row, col)
        net, class_name, shape_kind, ripup_level, rule_width = meta
        return CellShape(
            clip.x_lo - ax,
            clip.y_lo - ay,
            clip.x_hi - ax,
            clip.y_hi - ay,
            net,
            class_name,
            shape_kind,
            ripup_level,
            rule_width,
        )

    def add(self, rect: Rect, meta: Tuple) -> None:
        row_lo, row_hi, col_lo, col_hi = self._covered_cells(rect)
        self._ensure_rows(row_lo, row_hi)
        table = self.table
        for row_index in range(row_lo, row_hi + 1):

            def mapper(col: int, old: int, _row=row_index) -> int:
                shape = self._cell_shape(rect, _row, col, meta)
                if shape is None:
                    return old
                return table.with_shape(old, shape)

            self._set_range(row_index, col_lo, col_hi, mapper)

    def remove(self, rect: Rect, meta: Tuple) -> None:
        row_lo, row_hi, col_lo, col_hi = self._covered_cells(rect)
        self._ensure_rows(row_lo, row_hi)
        table = self.table
        for row_index in range(row_lo, row_hi + 1):

            def mapper(col: int, old: int, _row=row_index) -> int:
                shape = self._cell_shape(rect, _row, col, meta)
                if shape is None:
                    return old
                return table.without_shape(old, shape)

            self._set_range(row_index, col_lo, col_hi, mapper)

    def query(self, rect: Rect) -> Iterator[ShapeEntry]:
        """Shape pieces intersecting ``rect`` (deduplicated).

        The closed-rectangle test runs on integers; a ``Rect`` and a
        ``ShapeEntry`` are built only for the pieces yielded.
        """
        row_lo, row_hi, col_lo, col_hi = self._covered_cells(rect)
        self._ensure_rows(row_lo, row_hi)
        q_x_lo, q_y_lo, q_x_hi, q_y_hi = rect.x_lo, rect.y_lo, rect.x_hi, rect.y_hi
        size = self.cell_size
        origin_x, origin_y = self.origin_x, self.origin_y
        pref_is_x = self.pref_is_x
        shapes_of = self.table.shapes
        seen = set()
        for row_index in range(row_lo, row_hi + 1):
            row = self.rows.get(row_index)
            if row is None:
                continue
            item = row.floor_item(col_lo)
            start_key = item[0] if item is not None and item[1][0] >= col_lo else col_lo
            for start, (end, config_id) in row.items(lo=start_key, hi=col_hi):
                shapes = tuple(shapes_of(config_id))
                for col in range(max(start, col_lo), min(end, col_hi) + 1):
                    if pref_is_x:
                        ax = origin_x + col * size
                        ay = origin_y + row_index * size
                    else:
                        ax = origin_x + row_index * size
                        ay = origin_y + col * size
                    for shape in shapes:
                        x_lo = shape.x_lo + ax
                        x_hi = shape.x_hi + ax
                        if x_lo > q_x_hi or q_x_lo > x_hi:
                            continue
                        y_lo = shape.y_lo + ay
                        y_hi = shape.y_hi + ay
                        if y_lo > q_y_hi or q_y_lo > y_hi:
                            continue
                        key = (
                            (x_lo, y_lo, x_hi, y_hi),
                            shape.net,
                            shape.class_name,
                            shape.shape_kind,
                        )
                        if key in seen:
                            continue
                        seen.add(key)
                        yield ShapeEntry(
                            Rect(x_lo, y_lo, x_hi, y_hi),
                            shape.net,
                            shape.class_name,
                            shape.shape_kind,
                            shape.ripup_level,
                            shape.rule_width,
                        )

    def interval_count(self) -> int:
        return sum(len(row) for row in self.rows.values())


class ShapeGrid:
    """Shape grids for all wiring and via layers of a chip."""

    def __init__(
        self,
        die: Rect,
        stack: LayerStack,
        cell_sizes: Optional[Dict[int, int]] = None,
    ) -> None:
        self.die = die
        self.stack = stack
        self._grids: Dict[Tuple[str, int], _LayerGrid] = {}
        origin = (die.x_lo, die.y_lo)
        for layer in stack:
            size = (cell_sizes or {}).get(layer.index, layer.pitch)
            pref_is_x = layer.direction is Direction.HORIZONTAL
            self._grids[("wiring", layer.index)] = _LayerGrid(size, origin, pref_is_x)
        for via_layer in stack.via_layers():
            # Via layer intervals run in the direction of the next lower
            # wiring layer (Sec. 3.6).
            lower = stack[via_layer]
            size = (cell_sizes or {}).get(via_layer, lower.pitch)
            pref_is_x = lower.direction is Direction.HORIZONTAL
            self._grids[("via", via_layer)] = _LayerGrid(size, origin, pref_is_x)

    def _grid(self, kind: str, layer: int) -> _LayerGrid:
        try:
            return self._grids[(kind, layer)]
        except KeyError:
            available = sorted(self._grids)
            raise KeyError(
                f"no shape grid for {kind} layer {layer}; "
                f"grids exist for {available}"
            ) from None

    def add_shape(
        self,
        kind: str,
        layer: int,
        rect: Rect,
        net: Optional[str],
        class_name: str,
        shape_kind: ShapeKind,
        ripup_level: int,
        rule_width: int,
    ) -> None:
        if OBS.enabled:
            OBS.count("shapegrid.shape_adds")
        meta = (net, class_name, shape_kind.value, ripup_level, rule_width)
        self._grid(kind, layer).add(rect, meta)

    def add_fixed_shape(
        self,
        kind: str,
        layer: int,
        rect: Rect,
        net: Optional[str],
        class_name: str,
        shape_kind: ShapeKind,
        ripup_level: int,
        rule_width: int,
    ) -> None:
        """Register fixed geometry lazily (see ``_LayerGrid.add_fixed``).

        The shape is folded into a row's intervals the first time any
        operation touches that row; untouched rows never pay the
        interval-tree cost.  Queries and mutations see exactly what an
        eager :meth:`add_shape` would have produced.
        """
        if OBS.enabled:
            OBS.count("shapegrid.fixed_shapes")
        meta = (net, class_name, shape_kind.value, ripup_level, rule_width)
        self._grid(kind, layer).add_fixed(rect, meta)

    def remove_shape(
        self,
        kind: str,
        layer: int,
        rect: Rect,
        net: Optional[str],
        class_name: str,
        shape_kind: ShapeKind,
        ripup_level: int,
        rule_width: int,
    ) -> None:
        if OBS.enabled:
            OBS.count("shapegrid.shape_removes")
        meta = (net, class_name, shape_kind.value, ripup_level, rule_width)
        self._grid(kind, layer).remove(rect, meta)

    def cell_size(self, kind: str, layer: int) -> int:
        """Edge length of the cells of the (kind, layer) grid."""
        return self._grid(kind, layer).cell_size

    def query(self, kind: str, layer: int, rect: Rect) -> List[ShapeEntry]:
        if OBS.enabled:
            OBS.count("shapegrid.queries")
        return list(self._grid(kind, layer).query(rect))

    def interval_count(self, kind: str, layer: int) -> int:
        return self._grid(kind, layer).interval_count()

    def config_count(self, kind: str, layer: int) -> int:
        """Number of distinct non-empty cell configurations seen so far."""
        return len(self._grid(kind, layer).table) - 1

    def net_agnostic_config_count(self, kind: str, layer: int) -> int:
        """Distinct configurations modulo net identity.

        The paper's configuration table is net-free - the owning net is
        stored per *interval* ("for each nonempty interval we store the
        net that the shapes of this interval belong to", Sec. 3.3) - so
        identical geometry from different nets shares one table entry.
        Our cells keep the net per shape for exact query attribution;
        this accessor reports the size the paper's net-free table would
        have (the Fig. 3 statistic).
        """
        grid = self._grid(kind, layer)
        stripped = set()
        for config in grid.table._by_id[1:]:
            stripped.add(
                frozenset(
                    ((s.x_lo, s.y_lo, s.x_hi, s.y_hi, s.class_name,
                      s.shape_kind, s.ripup_level, s.rule_width), count)
                    for s, count in config
                )
            )
        return len(stripped)

    def total_interval_count(self) -> int:
        return sum(grid.interval_count() for grid in self._grids.values())

    def pending_fixed_count(self) -> int:
        """Fixed shapes registered lazily and not yet materialized."""
        return sum(grid.pending_fixed_count() for grid in self._grids.values())

    def materialized_row_count(self) -> int:
        """Rows whose lazy fixed geometry has been folded in."""
        return sum(len(grid.materialized) for grid in self._grids.values())
