"""Search-graph view and track intervals for the on-track path search.

A :class:`GraphView` fixes one path search's context: the routing space,
the wire type, the routing area, the allowed ripup level and the forced
(source/target) vertices.  It answers vertex and edge usability through
the fast grid and lazily decomposes each track into the maximal usable
*intervals* that Algorithm 4 labels (Sec. 4.1).

Interval kinds:

* ordinary intervals - maximal runs of wire-usable vertices;
* ripup intervals - singleton intervals around vertices that are only
  usable if foreign wiring is ripped out; entering one costs an extra
  penalty that grows with the vertex's ripup history (Sec. 4.2);
* spreading penalties - per-interval extra costs for intervals global
  routing wants kept free (wire spreading, Sec. 4.2).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.droute.area import RoutingArea
from repro.droute.space import RoutingSpace, effective_via_type, effective_wire_type
from repro.grid.trackgraph import Vertex


class SearchInterval:
    """A maximal labelled run of usable vertices on one track."""

    __slots__ = ("index", "z", "t", "c_lo", "c_hi", "penalty", "needs_ripup")

    def __init__(
        self,
        index: int,
        z: int,
        t: int,
        c_lo: int,
        c_hi: int,
        penalty: int = 0,
        needs_ripup: bool = False,
    ) -> None:
        self.index = index
        self.z = z
        self.t = t
        self.c_lo = c_lo
        self.c_hi = c_hi
        self.penalty = penalty
        self.needs_ripup = needs_ripup

    def __repr__(self) -> str:
        return (
            f"SearchInterval#{self.index}(z={self.z}, t={self.t}, "
            f"c=[{self.c_lo},{self.c_hi}], penalty={self.penalty})"
        )

    def __contains__(self, c: int) -> bool:
        return self.c_lo <= c <= self.c_hi

    def __len__(self) -> int:
        return self.c_hi - self.c_lo + 1


class GraphView:
    """One path search's restricted, usability-filtered track graph."""

    def __init__(
        self,
        space: RoutingSpace,
        wire_type_name: str,
        area: RoutingArea,
        ripup_level: int = -2,
        forced_vertices: Optional[Set[Vertex]] = None,
        ripup_history: Optional[Dict[Vertex, int]] = None,
        ripup_base_penalty: int = 0,
        spreading_penalty: Optional[Callable[[SearchInterval], int]] = None,
    ) -> None:
        self.space = space
        self.graph = space.graph
        self.wire_type_name = wire_type_name
        self.area = area
        #: -2: no ripup; >= 0: vertices needing ripup of shapes with level
        #: <= ripup_level are usable at a penalty.
        self.ripup_level = ripup_level
        self.forced: Set[Vertex] = forced_vertices or set()
        self.ripup_history = ripup_history if ripup_history is not None else {}
        self.ripup_base_penalty = ripup_base_penalty
        self.spreading_penalty = spreading_penalty
        self._intervals: List[SearchInterval] = []
        # (z, t) -> sorted list of (c_lo, interval_index)
        self._track_runs: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        # (z, t) -> per-cross interval-index map (-1 where no interval);
        # replaces the bisect in interval_at on its ~10^5-call hot path.
        self._track_maps: Dict[Tuple[int, int], List[int]] = {}

    # ------------------------------------------------------------------
    # Per-layer wire type resolution
    # ------------------------------------------------------------------
    def type_for_layer(self, z: int) -> Optional[str]:
        """Effective wire type on layer z (escape wiring for
        layer-restricted nets, Sec. 1.1)."""
        return effective_wire_type(self.space.chip, self.wire_type_name, z)

    def type_for_via(self, via_layer: int) -> Optional[str]:
        return effective_via_type(self.space.chip, self.wire_type_name, via_layer)

    # ------------------------------------------------------------------
    # Usability
    # ------------------------------------------------------------------
    def edge_usable(self, v: Vertex, w: Vertex, kind: str) -> bool:
        level = self.ripup_level if self.ripup_level >= 0 else -2
        if kind == "via":
            if v in self.forced and w in self.forced:
                return True
            type_name = self.type_for_via(min(v[0], w[0]))
            if type_name is None:
                return False
            return self.space.fast_grid.edge_usable(type_name, v, w, kind, level)
        type_name = self.type_for_layer(v[0])
        if type_name is None:
            return False
        if kind == "wire":
            # Within-interval edges: both endpoints' usability is already
            # established by interval construction; dirty bits still force
            # a direct segment check.
            if v in self.forced or w in self.forced:
                return True
            return self.space.fast_grid.edge_usable(type_name, v, w, "wire", level)
        if v in self.forced and w in self.forced:
            return True
        return self.space.fast_grid.edge_usable(type_name, v, w, kind, level)

    # ------------------------------------------------------------------
    # Interval decomposition (lazy per track)
    # ------------------------------------------------------------------
    def _ripup_penalty(self, vertex: Vertex) -> int:
        history = self.ripup_history.get(vertex, 0)
        return self.ripup_base_penalty * (1 + history)

    def _build_track(self, z: int, t: int) -> List[Tuple[int, int]]:
        """Decompose track (z, t) into intervals via word-level scans.

        The raw runs come from :meth:`FastGrid.scan_track_runs` over the
        packed word arrays; for views without forced vertices on the
        track they are additionally reused across searches through the
        space's :class:`IntervalCache` (validated by the track epoch).
        Penalties are applied here, per view, so cached runs stay
        view-independent.
        """
        runs: List[Tuple[int, int]] = []
        layer_type = self.type_for_layer(z)
        if layer_type is None:
            return runs
        ranges = tuple(self.area.cross_ranges(self.graph, z, t))
        if not ranges:
            return runs
        fast = self.space.fast_grid
        forced_cs = {v[2] for v in self.forced if v[0] == z and v[1] == t}
        cache = self.space.interval_cache
        raw = None
        key = None
        # Forced (source/target) vertices override their words, so those
        # tracks bypass the cross-search cache; so does a disabled grid
        # (every scan would recompute anyway).
        if cache is not None and not forced_cs and fast.enabled:
            key = (self.wire_type_name, self.ripup_level, z, t, ranges)
            raw = cache.lookup(key, fast.track_epoch(z, t))
        if raw is None:
            raw = fast.scan_track_runs(
                layer_type, z, t, ranges,
                self.ripup_level if self.ripup_level >= 0 else -2,
                forced_cs or None,
            )
            if key is not None:
                cache.store(key, fast.track_epoch(z, t), raw)
        for c_lo, c_hi, needs_ripup in raw:
            if needs_ripup:
                runs.append(
                    self._new_interval(
                        z, t, c_lo, c_hi,
                        penalty=self._ripup_penalty((z, t, c_lo)),
                        needs_ripup=True,
                    )
                )
            else:
                runs.append(self._new_interval(z, t, c_lo, c_hi))
        return runs

    def _new_interval(
        self, z: int, t: int, c_lo: int, c_hi: int,
        penalty: int = 0, needs_ripup: bool = False,
    ) -> Tuple[int, int]:
        interval = SearchInterval(
            len(self._intervals), z, t, c_lo, c_hi, penalty, needs_ripup
        )
        if self.spreading_penalty is not None:
            interval.penalty += self.spreading_penalty(interval)
        self._intervals.append(interval)
        return (c_lo, interval.index)

    def track_intervals(self, z: int, t: int) -> List[Tuple[int, int]]:
        key = (z, t)
        runs = self._track_runs.get(key)
        if runs is None:
            runs = self._build_track(z, t)
            self._track_runs[key] = runs
            self._track_maps[key] = self._build_track_map(z, runs)
        return runs

    def _build_track_map(self, z: int, runs: List[Tuple[int, int]]) -> List[int]:
        """Per-cross map c -> interval index (-1 outside any interval)."""
        cmap = [-1] * len(self.graph.crosses[z])
        intervals = self._intervals
        for _c_lo, index in runs:
            interval = intervals[index]
            for c in range(interval.c_lo, interval.c_hi + 1):
                cmap[c] = index
        return cmap

    def interval(self, index: int) -> SearchInterval:
        return self._intervals[index]

    def interval_at(self, vertex: Vertex) -> Optional[SearchInterval]:
        z, t, c = vertex
        if t < 0 or t >= len(self.graph.tracks[z]):
            return None
        key = (z, t)
        cmap = self._track_maps.get(key)
        if cmap is None:
            self.track_intervals(z, t)
            cmap = self._track_maps[key]
        if c < 0 or c >= len(cmap):
            return None
        index = cmap[c]
        return self._intervals[index] if index >= 0 else None

    @property
    def interval_count(self) -> int:
        return len(self._intervals)
