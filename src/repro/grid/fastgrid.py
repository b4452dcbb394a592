"""The fast grid (Sec. 3.6).

Caches, for a small set of frequently used wire types, the legality of the
four shape types {preferred-direction wire, jog, via down, via up} at
on-track locations, so the on-track path search rarely needs the (much
slower) distance rule checking module.  Words are kept per track in
*packed* per-track arrays and filled field by field: a band sweep
(:meth:`FastGrid.ensure_words`) fills the wire and jog fields of a track
segment, the two ``check_metal`` calls on the vertex's own layer, and
runs a check only where a shape of the prefetched band comes nearer than
any spacing it could require (:func:`covered_crosses`); every other
field is computed individually on its first read.  A via edge's
two fields (via up below, via down above) are one check, so one fill
serves both.  Every shape
insertion or removal invalidates the affected region by clearing
validity bits and bumping generation counters (epochs) instead of
popping dict entries.

Storage layout: one uint16 word per vertex, four legal bits (bit ``i`` for
``SHAPE_TYPES[i]``) plus four 3-bit ripup fields (bits ``4 + 3i``), with
``RIPUP_FIXED`` encoded as 7, and one 4-bit validity mask per vertex
(bit ``i`` set once field ``i`` is computed), held per track in an
``array('H')`` and a ``bytearray``.

Edge usability is deduced from the two endpoint vertex words whenever only
on-track wiring is present; where off-track shapes are nearby, a *dirty
bit* at a vertex forces a direct shape-grid query for its incident edges
(the zigzag-edge bit of Fig. 4).  Those segment checks are memoized per
(wire type, edge) and validated against the global epoch, so repeated
searches over an unchanged region stop re-querying the shape grid.

Counter semantics (normalized): ``hits``/``misses`` count *vertex-word
lookups*.  A band fill counts one miss per vertex whose wire and jog
fields it computes and one hit per vertex it reuses; a single-field read
counts one hit, or one miss when it fills that field lazily (the
partner field a via fill also sets then reads as a hit).
``fastgrid.queries`` counts *edge* queries, so hits may legitimately
exceed queries.  ``fastgrid.checks`` counts the ``check_metal`` /
``check_via`` calls the grid runs (the work behind the misses).  A band
field the sweep sets without a check (no shape near enough) is part of a
miss but not a check; the sweep counts it in ``fastgrid.sweep_skips``.
``fastgrid.interval_cache_hits`` and ``fastgrid.segment_cache_hits``
count reuse in the two cross-search memo layers on top of the words
themselves.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from math import hypot, isqrt
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.geometry.rect import Rect
from repro.grid.drc_query import DistanceRuleChecker, PlacementCheck, PrefetchedBand
from repro.grid.shapegrid import RIPUP_FIXED, ShapeEntry
from repro.obs import OBS
from repro.grid.trackgraph import TrackGraph, Vertex
from repro.tech.layers import Direction
from repro.tech.wiring import StickFigure, WireType

#: Shape types a fast-grid word stores, in order.
SHAPE_TYPES = ("wire", "jog", "via_down", "via_up")

_SHAPE_INDEX = {name: i for i, name in enumerate(SHAPE_TYPES)}

#: Per shape type: (legal, ripup_level_needed); RIPUP_FIXED when not even
#: ripup can make it legal.
Word = Tuple[Tuple[bool, int], ...]

#: 3-bit ripup encoding: levels 0..6 verbatim, RIPUP_FIXED (and anything
#: beyond the encodable range) as 7.
_RIPUP_FIXED_ENC = 7

#: Word bits (legal bit + ripup field) of each shape type.
_FIELD_BITS = tuple((1 << i) | (7 << (4 + 3 * i)) for i in range(4))

#: Validity bits of the *band fields* — wire and jog, the fields a band
#: sweep fills — and their word bits.
_BAND_VALID = 0b0011
_BAND_BITS = _FIELD_BITS[0] | _FIELD_BITS[1]


def _pack_field(i: int, legal: bool, needed: int) -> int:
    """Word bits of field ``i`` (``SHAPE_TYPES[i]``)."""
    if needed == RIPUP_FIXED or needed > 6 or needed < 0:
        enc = _RIPUP_FIXED_ENC
    else:
        enc = int(needed)
    return (1 << i if legal else 0) | (enc << (4 + 3 * i))


def pack_word(word: Word) -> int:
    """Pack a 4-entry legality word into one uint16."""
    bits = 0
    for i, (legal, needed) in enumerate(word):
        bits |= _pack_field(i, legal, needed)
    return bits


def unpack_word(bits: int) -> Word:
    """Inverse of :func:`pack_word`."""
    out = []
    for i in range(4):
        legal = bool((bits >> i) & 1)
        enc = (bits >> (4 + 3 * i)) & 7
        out.append((legal, RIPUP_FIXED if enc == _RIPUP_FIXED_ENC else enc))
    return tuple(out)


def covered_crosses(
    entries: Sequence[ShapeEntry],
    crosses: Sequence[int],
    cs: Sequence[int],
    candidate: Rect,
    reach: int,
    horizontal: bool,
) -> List[bool]:
    """Which vertices of one track have an entry nearer than ``reach``.

    ``crosses`` are the layer's sorted cross coordinates, ``cs`` an
    ascending list of cross indices on one track, and ``candidate`` the
    candidate rectangle of the vertex at ``cs[0]``; the candidate of
    ``c`` is the same rectangle moved by ``crosses[c] - crosses[cs[0]]``
    along the track (x when ``horizontal``).  Vertex ``c`` is covered iff
    some entry's ``rect_l2_gap`` to its candidate is below ``reach``.
    Each entry is bisected into the index range of crosses it covers and
    recorded in a difference array.
    """
    first, last = cs[0], cs[-1]
    origin = crosses[first]
    if horizontal:
        lo_off, hi_off = candidate.x_lo - origin, candidate.x_hi - origin
        across_lo, across_hi = candidate.y_lo, candidate.y_hi
    else:
        lo_off, hi_off = candidate.y_lo - origin, candidate.y_hi - origin
        across_lo, across_hi = candidate.x_lo, candidate.x_hi
    diff = [0] * (last - first + 2)
    for entry in entries:
        rect = entry.rect
        if horizontal:
            lo, hi, rect_across_lo, rect_across_hi = (
                rect.x_lo, rect.x_hi, rect.y_lo, rect.y_hi
            )
        else:
            lo, hi, rect_across_lo, rect_across_hi = (
                rect.y_lo, rect.y_hi, rect.x_lo, rect.x_hi
            )
        if rect_across_lo > across_hi:
            across = rect_across_lo - across_hi
        elif across_lo > rect_across_hi:
            across = across_lo - rect_across_hi
        else:
            across = 0
        if across > reach:
            continue
        # The largest along-track gap whose l2 gap is below the reach:
        # isqrt gives the largest with squared distance <= reach², and a
        # gap on that circle is kept only if rect_l2_gap's float puts it
        # below.  Every other squared distance differs from reach² by at
        # least 1, far more than the float's error, so it falls on the
        # same side in floats as in integers.
        along = isqrt(reach * reach - across * across)
        gap = hypot(along, across) if horizontal else hypot(across, along)
        if gap >= reach:
            along -= 1
            if along < 0:
                continue
        # c's along-track gap is at most `along` iff
        # crosses[c] + hi_off >= lo - along and crosses[c] + lo_off <= hi + along.
        a = bisect_left(crosses, lo - along - hi_off, first, last + 1)
        b = bisect_right(crosses, hi + along - lo_off, first, last + 1)
        if a < b:
            diff[a - first] += 1
            diff[b - first] -= 1
    depth = list(accumulate(diff))
    return [depth[c - first] > 0 for c in cs]


class _TrackWords:
    """Packed words + per-field validity masks for one (wire type, layer, track)."""

    __slots__ = ("words", "valid")

    def __init__(self, ncross: int) -> None:
        self.words = array("H", bytes(2 * ncross))
        self.valid = bytearray(ncross)


class IntervalCache:
    """Cross-search cache of track interval decompositions.

    Keys carry everything a decomposition depends on besides the shapes
    themselves — (wire type, ripup level, layer, track, area cross
    ranges); values are penalty-free runs ``(c_lo, c_hi, needs_ripup)``
    stamped with the track epoch they were scanned at.  A stale epoch is
    a miss, so invalidation is generation-based: mutating the space never
    walks this cache.  Penalties (ripup history, spreading) are applied
    per :class:`~repro.droute.intervals.GraphView` on materialization, so
    cached runs stay deterministic and view-independent.
    """

    #: Entry budget; the cache empties itself when a store would exceed
    #: it.
    max_entries = 8192

    def __init__(self) -> None:
        self._entries: Dict[tuple, Tuple[int, list]] = {}

    def lookup(self, key: tuple, epoch: int) -> Optional[list]:
        entry = self._entries.get(key)
        if entry is None or entry[0] != epoch:
            if OBS.enabled:
                OBS.count("fastgrid.interval_cache_misses")
            return None
        if OBS.enabled:
            OBS.count("fastgrid.interval_cache_hits")
        return entry[1]

    def store(self, key: tuple, epoch: int, runs: list) -> None:
        if len(self._entries) >= self.max_entries:
            self._entries.clear()
        self._entries[key] = (epoch, runs)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class FastGrid:
    """Per-wire-type legality cache over the track graph."""

    def __init__(
        self,
        graph: TrackGraph,
        checker: DistanceRuleChecker,
        wire_types: Sequence[WireType],
        enabled: bool = True,
    ) -> None:
        self.graph = graph
        self.checker = checker
        self.wire_types: Dict[str, WireType] = {wt.name: wt for wt in wire_types}
        #: When disabled, every query goes straight to the checker
        #: (ablation baseline for the 5.29x speed-up statistic).
        self.enabled = enabled
        # (wiretype, z, t) -> packed per-track word array
        self._tracks: Dict[Tuple[str, int, int], _TrackWords] = {}
        # Vertices whose incident edges cannot be deduced from vertex
        # words because off-track shapes are nearby.
        self._dirty: Dict[Tuple[int, int], set] = {}
        #: Global generation counter, bumped once per invalidated region;
        #: validates the segment-check memo.
        self.epoch = 0
        #: Per-(z, t) generation counters; validate interval-cache runs.
        self._track_epochs: Dict[Tuple[int, int], int] = {}
        # (wiretype, v, w) -> (epoch, legal, max_ripup_needed)
        self._segment_memo: Dict[tuple, Tuple[int, bool, int]] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Word computation
    # ------------------------------------------------------------------
    def _band_candidate(
        self, wire_type: WireType, z: int, x: int, y: int, i: int
    ) -> Tuple[Rect, int]:
        """Metal shape and rule width of band field ``i`` (wire or jog) of
        a vertex at (x, y) on layer ``z``; the shape is one rectangle
        translated with the vertex."""
        point = StickFigure(z, x, y, x, y)
        if i == 0:
            shape, cls, _ = wire_type.wire_shape(point, self.graph.stack)
            return shape, cls.rule_width
        model = wire_type.nonpreferred_model(z)
        shape = model.metal_shape(point, self.graph.stack.direction(z))
        return shape, model.shape_class.rule_width

    def _compute_shape(
        self,
        wire_type: WireType,
        vertex: Vertex,
        i: int,
        band: Optional[PrefetchedBand] = None,
    ) -> Tuple[bool, int]:
        """Field ``i`` (``SHAPE_TYPES[i]``) of the word at ``vertex``.

        ``band`` optionally holds the ``("wiring", z)`` entries a sweep
        prefetched; the wire and jog checks filter it by their own
        windows, with the same result as an individual query.
        """
        x, y, z = self.graph.position(vertex)
        stack = self.graph.stack
        check: Optional[PlacementCheck] = None
        if i < 2:  # wire, jog: metal shapes on the vertex's layer
            if wire_type.has_layer(z):
                shape, rule_width = self._band_candidate(wire_type, z, x, y, i)
                check = self.checker.check_metal(
                    z, shape, rule_width, None, prefetched=band
                )
        elif i == 2:  # via down
            if stack.has_layer(z - 1) and wire_type.has_via_layer(z - 1):
                check = self.checker.check_via(wire_type, z - 1, x, y, None)
        elif stack.has_layer(z + 1) and wire_type.has_via_layer(z):  # via up
            check = self.checker.check_via(wire_type, z, x, y, None)
        if check is None:
            return (False, RIPUP_FIXED)
        if OBS.enabled:
            OBS.count("fastgrid.checks")
        return (check.legal, check.max_ripup_needed)

    def _compute_word(self, wire_type: WireType, vertex: Vertex) -> Word:
        """All four fields at ``vertex``, each checked individually."""
        return tuple(
            self._compute_shape(wire_type, vertex, i)
            for i in range(len(SHAPE_TYPES))
        )

    def _track_words(self, wire_type_name: str, z: int, t: int) -> _TrackWords:
        key = (wire_type_name, z, t)
        tw = self._tracks.get(key)
        if tw is None:
            tw = _TrackWords(len(self.graph.crosses[z]))
            self._tracks[key] = tw
        return tw

    def ensure_words(
        self, wire_type_name: str, z: int, t: int, c_lo: int, c_hi: int
    ) -> int:
        """Batch-fill the band fields (wire, jog) of a track segment.

        Both are ``check_metal`` calls on layer ``z``, so one shape-grid
        traversal of the ``("wiring", z)`` band replaces the per-vertex
        traversals, and :meth:`_sweep_fields` decides each field from it
        with results identical to individual checks.  Via fields are left
        to fill on first read.  Returns the number of vertices whose band
        fields were computed (invalid before the call).
        """
        if not self.enabled or c_lo > c_hi:
            return 0
        tw = self._track_words(wire_type_name, z, t)
        valid = tw.valid
        missing = [
            c for c in range(c_lo, c_hi + 1)
            if (valid[c] & _BAND_VALID) != _BAND_VALID
        ]
        if not missing:
            return 0
        wire_type = self.wire_types[wire_type_name]
        if wire_type.has_layer(z):
            fields = self._sweep_fields(wire_type, z, t, missing)
        else:
            fields = [_pack_field(0, False, RIPUP_FIXED)
                      | _pack_field(1, False, RIPUP_FIXED)] * len(missing)
        # Keep any via field an earlier single read already filled.
        words = tw.words
        keep = 0xFFFF ^ _BAND_BITS
        for c, bits in zip(missing, fields):
            words[c] = (words[c] & keep) | bits
            valid[c] |= _BAND_VALID
        self.misses += len(missing)
        if OBS.enabled:
            OBS.count("fastgrid.misses", len(missing))
            OBS.count("fastgrid.words_prefetched", len(missing))
        return len(missing)

    def _sweep_fields(
        self, wire_type: WireType, z: int, t: int, missing: List[int]
    ) -> List[int]:
        """Packed band fields (wire and jog) of each cross in ``missing``.

        Along one track a field's candidate, and so its check window, is
        one rectangle translated with the vertex.  One shape-grid query
        covers the windows of both fields at the first and the last
        vertex, and so every window between them.  A piece can make a
        candidate illegal only if its gap is below the checker's
        :meth:`~DistanceRuleChecker.metal_reach` for the widest
        prefetched piece.  A vertex with no prefetched piece that near
        (:func:`covered_crosses`) is legal with no ripup, which is what
        ``check_metal`` answers, and is set so without a check; every
        other vertex runs ``check_metal`` on the prefetched band.
        """
        graph = self.graph
        crosses = graph.crosses[z]
        horizontal = graph.stack.direction(z) is Direction.HORIZONTAL
        x, y, _ = graph.position((z, t, missing[0]))
        candidates = [self._band_candidate(wire_type, z, x, y, i) for i in (0, 1)]
        checker = self.checker
        band = checker.metal_window(z, candidates[0][0]).hull(
            checker.metal_window(z, candidates[1][0])
        )
        shift = crosses[missing[-1]] - crosses[missing[0]]
        band = band.hull(
            band.translated(shift, 0) if horizontal else band.translated(0, shift)
        )
        prefetched = PrefetchedBand(
            checker.prefetch_entries("wiring", z, band), axis_x=horizontal
        )
        widest = max((e.rule_width for e in prefetched.entries), default=0)
        fields = [0] * len(missing)
        compute = self._compute_shape
        skipped = 0
        for i, (shape, rule_width) in enumerate(candidates):
            covered = covered_crosses(
                prefetched.entries,
                crosses,
                missing,
                shape,
                checker.metal_reach(z, rule_width, widest),
                horizontal,
            )
            empty = _pack_field(i, True, 0)
            for k, c in enumerate(missing):
                if covered[k]:
                    fields[k] |= _pack_field(
                        i, *compute(wire_type, (z, t, c), i, prefetched)
                    )
                else:
                    fields[k] |= empty
                    skipped += 1
        if OBS.enabled:
            OBS.count("fastgrid.sweep_skips", skipped)
        return fields

    def _packed(
        self,
        wire_type_name: str,
        vertex: Vertex,
        i: int,
        partner: Optional[Vertex] = None,
    ) -> int:
        """Packed word at a vertex with field ``i`` valid.

        A missing field is computed individually and stored with its
        validity bit; other fields of the returned bits may be stale.
        ``partner`` must be the via partner of ``vertex`` (the vertex at
        the same point on the adjacent layer): its opposite via field is
        the same check, so a computed via field also fills the
        partner's when that one is missing.  A disabled grid computes
        the whole word on every call.
        """
        wire_type = self.wire_types[wire_type_name]
        if not self.enabled:
            self.misses += 1
            if OBS.enabled:
                OBS.count("fastgrid.misses")
            return pack_word(self._compute_word(wire_type, vertex))
        z, t, c = vertex
        tw = self._track_words(wire_type_name, z, t)
        mask = tw.valid[c]
        if (mask >> i) & 1:
            self.hits += 1
            if OBS.enabled:
                OBS.count("fastgrid.hits")
            return tw.words[c]
        self.misses += 1
        if OBS.enabled:
            OBS.count("fastgrid.misses")
        check = self._compute_shape(wire_type, vertex, i)
        bits = self._store_field(tw, c, i, check)
        if partner is not None:
            j = 5 - i  # via_up <-> via_down
            ptw = self._track_words(wire_type_name, partner[0], partner[1])
            if not (ptw.valid[partner[2]] >> j) & 1:
                self._store_field(ptw, partner[2], j, check)
        return bits

    @staticmethod
    def _store_field(
        tw: _TrackWords, c: int, i: int, check: Tuple[bool, int]
    ) -> int:
        """Store field ``i`` at cross ``c``, set its validity bit, and
        return the vertex's updated word."""
        bits = (tw.words[c] & (0xFFFF ^ _FIELD_BITS[i])) | _pack_field(i, *check)
        tw.words[c] = bits
        tw.valid[c] |= 1 << i
        return bits

    def word(self, wire_type_name: str, vertex: Vertex) -> Word:
        """Legality word at a vertex, from cache or freshly computed.

        Reads all four fields (one lookup each).  The word is computed
        net-blind (net=None): any foreign *or own* shape in range counts.
        The path search treats the source/target components specially by
        temporarily removing their shapes (Sec. 4.4), so net-blind words
        stay correct.
        """
        if not self.enabled:
            return unpack_word(self._packed(wire_type_name, vertex, 0))
        for i in range(len(SHAPE_TYPES)):
            bits = self._packed(wire_type_name, vertex, i)
        return unpack_word(bits)

    def cached_word(
        self, wire_type_name: str, z: int, t: int, c: int
    ) -> Optional[Tuple[Optional[Tuple[bool, int]], ...]]:
        """The stored fields at (z, t, c), or None when not cached.

        A vertex counts as *cached* once its band fields (wire, jog) are
        filled; :meth:`cached_word_count` and :meth:`interval_count` use
        the same meaning.  Via fields not yet read are None.  Read-only
        introspection for tests and stats — never computes.
        """
        tw = self._tracks.get((wire_type_name, z, t))
        if tw is None:
            return None
        mask = tw.valid[c]
        if (mask & _BAND_VALID) != _BAND_VALID:
            return None
        return tuple(
            field if (mask >> i) & 1 else None
            for i, field in enumerate(unpack_word(tw.words[c]))
        )

    def cached_word_count(self) -> int:
        """Number of cached vertices (band fields filled) over all tracks."""
        return sum(
            sum(1 for mask in tw.valid if (mask & _BAND_VALID) == _BAND_VALID)
            for tw in self._tracks.values()
        )

    # ------------------------------------------------------------------
    # Usability queries used by the path search
    # ------------------------------------------------------------------
    def vertex_usable(
        self, wire_type_name: str, vertex: Vertex, shape_type: str, ripup_level: int = -2
    ) -> bool:
        """Is ``shape_type`` legal at ``vertex`` (with optional ripup)?

        ``ripup_level`` -2 (default) requires full legality; otherwise
        shapes up to that ripup level may be assumed removable.
        """
        i = _SHAPE_INDEX[shape_type]
        return self._field_usable(
            self._packed(wire_type_name, vertex, i), i, ripup_level
        )

    @staticmethod
    def _field_usable(bits: int, i: int, ripup_level: int) -> bool:
        if (bits >> i) & 1:
            return True
        if ripup_level < 0:
            return False
        enc = (bits >> (4 + 3 * i)) & 7
        return enc != _RIPUP_FIXED_ENC and enc <= ripup_level

    def edge_usable(
        self,
        wire_type_name: str,
        v: Vertex,
        w: Vertex,
        kind: str,
        ripup_level: int = -2,
    ) -> bool:
        """Usability of the track-graph edge (v, w) for the wire type.

        Deduce from the endpoint words unless a dirty bit forces a direct
        segment query (Sec. 3.6 / Fig. 4).
        """
        if OBS.enabled:
            OBS.count("fastgrid.queries")
        if kind == "via":
            upper_vertex = v if v[0] > w[0] else w
            lower_vertex = w if v[0] > w[0] else v
            # The lower via_up and the upper via_down are one check: a
            # miss on the first fills both.
            via_up = _SHAPE_INDEX["via_up"]
            return self._field_usable(
                self._packed(wire_type_name, lower_vertex, via_up, upper_vertex),
                via_up,
                ripup_level,
            ) and self.vertex_usable(
                wire_type_name, upper_vertex, "via_down", ripup_level
            )
        shape_type = "wire" if kind == "wire" else "jog"
        if self._is_dirty(v) or self._is_dirty(w):
            return self._segment_check(wire_type_name, v, w, kind, ripup_level)
        return self.vertex_usable(
            wire_type_name, v, shape_type, ripup_level
        ) and self.vertex_usable(wire_type_name, w, shape_type, ripup_level)

    def _segment_check(
        self, wire_type_name: str, v: Vertex, w: Vertex, kind: str, ripup_level: int
    ) -> bool:
        memo_key = (wire_type_name, v, w)
        entry = self._segment_memo.get(memo_key)
        if entry is not None and entry[0] == self.epoch:
            if OBS.enabled:
                OBS.count("fastgrid.segment_cache_hits")
            legal, needed = entry[1], entry[2]
        else:
            if OBS.enabled:
                OBS.count("fastgrid.shapegrid_fallbacks")
            wire_type = self.wire_types[wire_type_name]
            xv, yv, z = self.graph.position(v)
            xw, yw, _ = self.graph.position(w)
            stick = StickFigure(z, xv, yv, xw, yw)
            check = self.checker.check_wire(wire_type, stick, None)
            if OBS.enabled:
                OBS.count("fastgrid.checks")
            legal, needed = check.legal, check.max_ripup_needed
            if len(self._segment_memo) >= 65536:
                self._segment_memo.clear()
            self._segment_memo[memo_key] = (self.epoch, legal, needed)
        if legal:
            return True
        if ripup_level < 0:
            return False
        return needed != RIPUP_FIXED and needed <= ripup_level

    def _is_dirty(self, vertex: Vertex) -> bool:
        z, t, c = vertex
        dirty = self._dirty.get((z, t))
        return dirty is not None and c in dirty

    # ------------------------------------------------------------------
    # Word-level interval scans
    # ------------------------------------------------------------------
    def track_epoch(self, z: int, t: int) -> int:
        """Generation counter of track (z, t); bumped on invalidation."""
        return self._track_epochs.get((z, t), 0)

    def scan_track_runs(
        self,
        wire_type_name: str,
        z: int,
        t: int,
        ranges: Sequence[Tuple[int, int]],
        ripup_level: int = -2,
        forced_cs: Optional[Set[int]] = None,
    ) -> List[Tuple[int, int, bool]]:
        """Decompose track (z, t) into wire-usable runs by word scans.

        Returns ``(c_lo, c_hi, needs_ripup)`` triples in cross order:
        maximal runs of plainly usable vertices, plus singleton runs for
        vertices only usable by ripping foreign wiring (level <=
        ``ripup_level``).  ``forced_cs`` vertices count as plainly usable
        regardless of their words (the source/target override).
        """
        runs: List[Tuple[int, int, bool]] = []
        for c_lo, c_hi in ranges:
            if c_lo > c_hi:
                continue
            if not self.enabled:
                state = [
                    self._state_for_bits(
                        self._packed(wire_type_name, (z, t, c), 0), ripup_level
                    )
                    for c in range(c_lo, c_hi + 1)
                ]
            else:
                computed = self.ensure_words(wire_type_name, z, t, c_lo, c_hi)
                reused = (c_hi - c_lo + 1) - computed
                if reused > 0:
                    self.hits += reused
                    if OBS.enabled:
                        OBS.count("fastgrid.hits", reused)
                words = self._tracks[(wire_type_name, z, t)].words
                state = [
                    self._state_for_bits(words[c], ripup_level)
                    for c in range(c_lo, c_hi + 1)
                ]
            if forced_cs:
                for c in forced_cs:
                    if c_lo <= c <= c_hi:
                        state[c - c_lo] = 1
            self._append_state_runs(runs, state, c_lo)
        return runs

    @staticmethod
    def _state_for_bits(bits: int, ripup_level: int) -> int:
        """0 = blocked, 1 = plainly wire-usable, 2 = usable via ripup."""
        if bits & 1:
            return 1
        if ripup_level < 0:
            return 0
        enc = (bits >> 4) & 7
        if enc != _RIPUP_FIXED_ENC and enc <= ripup_level:
            return 2
        return 0

    @staticmethod
    def _append_state_runs(
        runs: List[Tuple[int, int, bool]], state: List[int], c_lo: int
    ) -> None:
        n = len(state)
        starts = [0] + [i for i in range(1, n) if state[i] != state[i - 1]]
        starts.append(n)
        for k in range(len(starts) - 1):
            s, e = starts[k], starts[k + 1]
            st = state[s]
            if st == 1:
                runs.append((c_lo + s, c_lo + e - 1, False))
            elif st == 2:
                for c in range(c_lo + s, c_lo + e):
                    runs.append((c, c, True))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def invalidate_region(self, layer: int, rect: Rect, off_track: bool = False) -> None:
        """Clear cached words near ``rect`` on ``layer`` and its neighbours.

        Via legality on adjacent layers depends on shapes here, so the
        invalidation spans layers ``layer - 1 .. layer + 1``.  Validity
        masks (all four fields) are cleared with one slice store per
        cached track, the
        global epoch is bumped once (invalidating the segment memo), and
        each touched track's epoch is bumped (invalidating interval-cache
        runs).  With ``off_track`` set, the affected vertices additionally
        get dirty bits so incident-edge legality is re-derived from the
        shape grid.
        """
        self.epoch += 1
        stack = self.graph.stack
        track_epochs = self._track_epochs
        for z in (layer - 1, layer, layer + 1):
            if not stack.has_layer(z):
                continue
            radius = self.checker.rules.max_interaction_distance(z) + 2 * stack[z].pitch
            window = rect.expanded(radius)
            if stack.direction(z) is Direction.HORIZONTAL:
                track_lo, track_hi = window.y_lo, window.y_hi
                cross_lo, cross_hi = window.x_lo, window.x_hi
            else:
                track_lo, track_hi = window.x_lo, window.x_hi
                cross_lo, cross_hi = window.y_lo, window.y_hi
            track_range = self.graph.tracks_in_range(z, track_lo, track_hi)
            cross_range = self.graph.crosses_in_range(z, cross_lo, cross_hi)
            if not cross_range:
                continue
            c_lo, c_hi = cross_range[0], cross_range[-1]
            for t in track_range:
                track_epochs[(z, t)] = track_epochs.get((z, t), 0) + 1
            cleared = bytes(c_hi - c_lo + 1)
            for wt_name in self.wire_types:
                for t in track_range:
                    tw = self._tracks.get((wt_name, z, t))
                    if tw is not None:
                        tw.valid[c_lo:c_hi + 1] = cleared
            if off_track:
                for t in track_range:
                    dirty = self._dirty.setdefault((z, t), set())
                    dirty.update(range(c_lo, c_hi + 1))

    # ------------------------------------------------------------------
    # Statistics (Sec. 3.6 / Fig. 4)
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def interval_count(self) -> int:
        """Number of maximal runs of identical cached words.

        This is the storage unit of the real fast grid (Fig. 4); we keep
        per-vertex word arrays for simplicity but report the interval
        statistic they would compress to.  Runs are taken over cached
        vertices (band fields filled, as in :meth:`cached_word`) and
        compare the band fields only, so the count does not depend on
        which via fields happen to have been read.  Tracks iterate in
        stored (array) order — no per-call sorting.
        """
        count = 0
        for tw in self._tracks.values():
            previous_c: Optional[int] = None
            previous_word: Optional[int] = None
            valid = tw.valid
            words = tw.words
            for c in range(len(valid)):
                if (valid[c] & _BAND_VALID) != _BAND_VALID:
                    continue
                word = words[c] & _BAND_BITS
                if previous_c is None or c != previous_c + 1 or word != previous_word:
                    count += 1
                previous_c = c
                previous_word = word
        return count
