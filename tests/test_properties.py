"""Cross-module property tests: invariants the subsystems must share.

* shape grid == multiset semantics under random add/remove interleavings;
* blockage-grid shortest paths == brute-force BFS on the same grid;
* distance-rule checker cross-validation: a placement the checker calls
  legal never creates a spacing violation the DRC checker would flag;
* fast-grid invalidation: inserting then removing a net's wiring leaves
  every cached legality word identical to a freshly built grid;
* fast-grid lazy fields: every field read, by any path, equals a fresh
  check of the same shape type;
* per-group dominance in the distance-rule checker equals merging every
  group's pieces, and the band sweep's covered vertices equal per-vertex
  gap tests;
* the track graph's via partner tables equal coordinate-based partners,
  and the shape grid's integer query yields the same piece stream as a
  ``Rect``-per-candidate reference.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chip.generator import ChipSpec, generate_chip
from repro.drc.checker import DrcChecker
from repro.droute.area import RoutingArea
from repro.droute.intervals import GraphView
from repro.droute.space import RoutingSpace
from repro.geometry.rect import Rect
from repro.geometry.l1 import rect_l2_gap, run_length
from repro.grid.blockgrid import BlockageGrid
from repro.grid.drc_query import DistanceRuleChecker, PrefetchedBand
from repro.grid.fastgrid import SHAPE_TYPES, covered_crosses, pack_word, unpack_word
from repro.grid.shapegrid import RIPUP_FIXED, ShapeEntry, ShapeGrid
from repro.droute.route import ViaInstance
from repro.tech.rules import SpacingRule
from repro.tech.stacks import example_rules, example_stack
from repro.tech.wiring import ShapeKind, StickFigure


class TestShapeGridMultiset:
    """The grid must behave as a multiset of shapes under add/remove."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 30),  # x cell
                st.integers(0, 30),  # y cell
                st.integers(1, 20),  # width cells-ish
                st.sampled_from(["a", "b", "c"]),
            ),
            min_size=1,
            max_size=12,
        ),
        st.data(),
    )
    def test_add_remove_random(self, shapes, data):
        grid = ShapeGrid(Rect(0, 0, 8000, 8000), example_stack(4))
        live = []
        for x, y, w, net in shapes:
            rect = Rect(x * 80, y * 80, x * 80 + w * 40, y * 80 + 40)
            grid.add_shape("wiring", 1, rect, net, "c", ShapeKind.WIRE, 3, 40)
            live.append((rect, net))
        # Remove a random subset.
        to_remove = data.draw(
            st.lists(st.integers(0, len(live) - 1), unique=True, max_size=len(live))
        )
        for index in sorted(to_remove, reverse=True):
            rect, net = live.pop(index)
            grid.remove_shape("wiring", 1, rect, net, "c", ShapeKind.WIRE, 3, 40)
        found = grid.query("wiring", 1, Rect(0, 0, 8000, 8000))
        # Every live shape must be reconstructible as the union of its
        # returned pieces; no pieces of removed shapes may remain.
        live_areas = {}
        for rect, net in live:
            live_areas[net] = live_areas.get(net, 0) + rect.area
        # Identical-metadata shapes are reference-counted in the cells
        # (multiset semantics), but queries report each distinct piece
        # once, so compare covered area per net through the union.
        from repro.geometry.polygon import rectilinear_area

        for net in ("a", "b", "c"):
            expected = rectilinear_area([r for r, n in live if n == net])
            got = rectilinear_area([e.rect for e in found if e.net == net])
            assert got == expected, f"net {net}: {got} != {expected}"

    def test_duplicate_add_remove_is_refcounted(self):
        """Identical shapes are reference-counted (documented multiset
        behaviour of the configuration table): adding the same rect twice
        and removing it once leaves one copy; removing it again leaves
        nothing."""
        grid = ShapeGrid(Rect(0, 0, 2000, 2000), example_stack(4))
        rect = Rect(100, 100, 300, 140)
        grid.add_shape("wiring", 1, rect, "n", "c", ShapeKind.WIRE, 3, 40)
        grid.add_shape("wiring", 1, rect, "n", "c", ShapeKind.WIRE, 3, 40)
        grid.remove_shape("wiring", 1, rect, "n", "c", ShapeKind.WIRE, 3, 40)
        remaining = grid.query("wiring", 1, Rect(0, 0, 2000, 2000))
        # One copy survives: its clipped pieces union back to the rect.
        from repro.geometry.polygon import rectilinear_area

        assert remaining
        assert Rect.bounding([e.rect for e in remaining]) == rect
        assert rectilinear_area([e.rect for e in remaining]) == rect.area
        grid.remove_shape("wiring", 1, rect, "n", "c", ShapeKind.WIRE, 3, 40)
        assert grid.query("wiring", 1, Rect(0, 0, 2000, 2000)) == []


class TestBlockageGridVsBruteForce:
    """tau=1 blockage-grid paths must equal BFS distances on its lattice."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 8), st.integers(1, 8),
                      st.integers(1, 3), st.integers(1, 3)),
            max_size=4,
        ),
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
    )
    def test_matches_dijkstra_on_lattice(self, obstacle_cells, s_cell, t_cell):
        scale = 40
        obstacles = [
            Rect(x * scale, y * scale, (x + w) * scale, (y + h) * scale)
            for x, y, w, h in obstacle_cells
        ]
        bbox = Rect(0, 0, 10 * scale, 10 * scale)
        source = (s_cell[0] * scale, s_cell[1] * scale)
        target = (t_cell[0] * scale, t_cell[1] * scale)

        def inside_obstacle(point):
            return any(
                o.x_lo < point[0] < o.x_hi and o.y_lo < point[1] < o.y_hi
                for o in obstacles
            )

        if inside_obstacle(source) or inside_obstacle(target):
            return
        grid = BlockageGrid(obstacles, 1, bbox, [source, target])
        result = grid.shortest_path([source], [target])

        # Brute force Dijkstra over the same refined lattice.
        import heapq

        xs, ys = grid.xs, grid.ys
        xi = {x: i for i, x in enumerate(xs)}
        yi = {y: j for j, y in enumerate(ys)}
        start = (xi[source[0]], yi[source[1]])
        goal = (xi[target[0]], yi[target[1]])
        dist = {start: 0}
        heap = [(0, start)]
        best = None
        while heap:
            d, (i, j) = heapq.heappop(heap)
            if (i, j) == goal:
                best = d
                break
            if d > dist.get((i, j), 1 << 60):
                continue
            for (ni, nj), cost in grid.lattice_moves(i, j):
                nd = d + cost
                if nd < dist.get((ni, nj), 1 << 60):
                    dist[(ni, nj)] = nd
                    heapq.heappush(heap, (nd, (ni, nj)))
        if result is None:
            assert best is None
        else:
            assert best is not None
            assert result[0] == best


class TestCheckerDrcConsistency:
    """A checker-approved placement must not create DRC spacing errors."""

    def test_legal_placements_stay_clean(self):
        chip = generate_chip(
            ChipSpec("propchk", rows=2, row_width_cells=4, net_count=4, seed=2)
        )
        space = RoutingSpace(chip)
        rng = random.Random(13)
        graph = space.graph
        placed = 0
        for _ in range(60):
            z = rng.choice(chip.stack.indices)
            tracks = graph.tracks[z]
            crosses = graph.crosses[z]
            if len(tracks) < 2 or len(crosses) < 4:
                continue
            t = rng.randrange(len(tracks))
            c0 = rng.randrange(len(crosses) - 3)
            v0 = graph.position((z, t, c0))
            v1 = graph.position((z, t, c0 + rng.randrange(1, 4)))
            stick = StickFigure(z, v0[0], v0[1], v1[0], v1[1])
            net = f"prop{placed}"
            if space.check_wire("default", stick, net).legal:
                space.add_wire(net, "default", stick)
                placed += 1
        assert placed >= 10, "expected to place a fair number of wires"
        report = DrcChecker(space).run(same_net=False, opens=False)
        prop_violations = [
            v for v in report.violations
            if any(n and str(n).startswith("prop") for n in v.nets)
        ]
        assert prop_violations == [], (
            f"checker-approved wires violated spacing: {prop_violations[:5]}"
        )


class TestFastGridInsertRemoveRoundTrip:
    """Insert-then-remove wiring must restore every fast-grid word.

    Words are cached lazily and dropped by ``invalidate_region`` on every
    insertion and removal (including the ``off_track`` dirty-bit path),
    so a net that is fully ripped out again must leave ``word()``
    indistinguishable from a freshly built grid on the same chip.  The
    probes are re-queried between operations so a stale cache entry
    cannot hide behind lazy recomputation.
    """

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_words_match_fresh_grid(self, data):
        chip = generate_chip(
            ChipSpec("fgprop", rows=2, row_width_cells=4, net_count=4, seed=3)
        )
        space = RoutingSpace(chip)
        graph = space.graph
        fast = space.fast_grid

        def draw_vertex(z):
            t = data.draw(st.integers(0, len(graph.tracks[z]) - 1))
            c = data.draw(st.integers(0, len(graph.crosses[z]) - 1))
            return (z, t, c)

        probes = []
        for z in chip.stack.indices:
            probes.append(draw_vertex(z))
            probes.append(draw_vertex(z))

        net = "fgprop_net"
        op_specs = data.draw(
            st.lists(
                st.tuples(st.sampled_from(["wire", "via"]), st.booleans()),
                min_size=1,
                max_size=8,
            )
        )
        for kind, off_track in op_specs:
            if kind == "wire":
                z = data.draw(st.sampled_from(chip.stack.indices))
                crosses = graph.crosses[z]
                t = data.draw(st.integers(0, len(graph.tracks[z]) - 1))
                c0 = data.draw(st.integers(0, len(crosses) - 2))
                c1 = data.draw(
                    st.integers(c0 + 1, min(c0 + 4, len(crosses) - 1))
                )
                x0, y0, _ = graph.position((z, t, c0))
                x1, y1, _ = graph.position((z, t, c1))
                if off_track:
                    # Shift perpendicular to the track so the wire sits
                    # between tracks, exercising the dirty-bit path.
                    shift = max(1, chip.stack[z].pitch // 3)
                    if x0 == x1:
                        x0, x1 = x0 + shift, x1 + shift
                    else:
                        y0, y1 = y0 + shift, y1 + shift
                space.add_wire(
                    net, "default", StickFigure(z, x0, y0, x1, y1),
                    off_track=off_track,
                )
            else:
                via_layer = data.draw(st.sampled_from(chip.stack.via_layers()))
                x, y, _ = graph.position(draw_vertex(via_layer))
                if off_track:
                    x += max(1, chip.stack[via_layer].pitch // 3)
                space.add_via(
                    net, "default", ViaInstance(via_layer, x, y),
                    off_track=off_track,
                )
            # Query between operations so stale entries are observable.
            for vertex in probes:
                fast.word("default", vertex)

        space.remove_net_route(net)

        fresh = RoutingSpace(chip)
        for vertex in probes:
            assert fast.word("default", vertex) == fresh.fast_grid.word(
                "default", vertex
            ), f"stale word at {vertex} after insert/remove round-trip"


def _soup_ops(chip, rng, count=12):
    """A reproducible random wire soup (some off-track, mixed ripup)."""
    graph = chip_graph = None
    space = RoutingSpace(chip)  # only for track geometry
    graph = space.graph
    ops = []
    for i in range(count):
        z = rng.choice(chip.stack.indices)
        tracks, crosses = graph.tracks[z], graph.crosses[z]
        if len(tracks) < 2 or len(crosses) < 5:
            continue
        t = rng.randrange(len(tracks))
        c0 = rng.randrange(len(crosses) - 4)
        x0, y0, _ = graph.position((z, t, c0))
        x1, y1, _ = graph.position((z, t, c0 + rng.randrange(1, 4)))
        off_track = rng.random() < 0.3
        if off_track:
            shift = max(1, chip.stack[z].pitch // 3)
            if x0 == x1:
                x0, x1 = x0 + shift, x1 + shift
            else:
                y0, y1 = y0 + shift, y1 + shift
        ops.append((f"soup{i}", z, x0, y0, x1, y1, rng.choice((1, 2, 3)),
                    off_track))
    return ops


def _apply_soup(space, ops):
    for net, z, x0, y0, x1, y1, level, off_track in ops:
        space.add_wire(
            net, "default", StickFigure(z, x0, y0, x1, y1),
            ripup_level=level, off_track=off_track,
        )


class TestPackedWordsMatchScalar:
    """Packed cached words must equal uncached scalar words exactly.

    On identical shape soups every word a caching grid serves from its
    packed uint16 arrays must agree bit for bit with a disabled grid's
    (which computes every word afresh) and with a fresh
    ``_compute_word``, and survive a pack/unpack round trip.
    """

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_words_equal_on_random_soup(self, seed):
        chip = generate_chip(
            ChipSpec("vecprop", rows=2, row_width_cells=4, net_count=4, seed=4)
        )
        rng = random.Random(seed)
        ops = _soup_ops(chip, rng)
        packed = RoutingSpace(chip)
        scalar = RoutingSpace(chip, fast_grid_enabled=False)
        _apply_soup(packed, ops)
        _apply_soup(scalar, ops)
        graph = packed.graph
        for _ in range(30):
            z = rng.choice(chip.stack.indices)
            t = rng.randrange(len(graph.tracks[z]))
            c = rng.randrange(len(graph.crosses[z]))
            vertex = (z, t, c)
            w_packed = packed.fast_grid.word("default", vertex)
            # A second read is served from the packed arrays.
            assert packed.fast_grid.word("default", vertex) == w_packed
            w_scalar = scalar.fast_grid.word("default", vertex)
            assert w_packed == w_scalar, f"packed != scalar at {vertex}"
            fresh = packed.fast_grid._compute_word(
                packed.fast_grid.wire_types["default"], vertex
            )
            assert w_packed == fresh, f"cached != fresh at {vertex}"
            assert unpack_word(pack_word(fresh)) == fresh

    def test_batch_fill_equals_single_lookups(self):
        chip = generate_chip(
            ChipSpec("vecbatch", rows=2, row_width_cells=4, net_count=4, seed=4)
        )
        ops = _soup_ops(chip, random.Random(7))
        batch = RoutingSpace(chip)
        single = RoutingSpace(chip)
        _apply_soup(batch, ops)
        _apply_soup(single, ops)
        z, t = 3, 1
        hi = len(batch.graph.crosses[z]) - 1
        batch.fast_grid.ensure_words("default", z, t, 0, hi)
        for c in range(hi + 1):
            expected = single.fast_grid.word("default", (z, t, c))
            cached = batch.fast_grid.cached_word("default", z, t, c)
            # The sweep fills wire and jog; via fields wait for a read.
            assert cached[:2] == expected[:2]
            assert cached[2:] == (None, None)
            batch.fast_grid.word("default", (z, t, c))
            assert batch.fast_grid.cached_word("default", z, t, c) == expected


def _field_usable(field, ripup_level):
    legal, needed = field
    if legal:
        return True
    return ripup_level >= 0 and needed != RIPUP_FIXED and needed <= ripup_level


class TestLazyFieldsMatchFresh:
    """Every field read equals a fresh ``_compute_word``, however filled.

    Band sweeps fill wire and jog, single reads fill one field, and
    invalidations clear whole masks; a random interleaving of the four
    read paths (``ensure_words``, ``vertex_usable``, ``edge_usable``,
    ``word``) with wire/via insertions and removals in one window must
    never expose a stale or wrongly packed field.
    """

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_reads_match_fresh_words(self, seed):
        chip = generate_chip(
            ChipSpec("lazyprop", rows=2, row_width_cells=4, net_count=4, seed=4)
        )
        rng = random.Random(seed)
        space = RoutingSpace(chip)
        graph = space.graph
        fast = space.fast_grid
        wire_type = fast.wire_types["default"]
        # A window around a random vertex, so writes hit cached reads.
        z0 = rng.choice(chip.stack.indices)
        x0, y0, _ = graph.position((
            z0,
            rng.randrange(len(graph.tracks[z0])),
            rng.randrange(len(graph.crosses[z0])),
        ))
        reach = 2 * chip.stack[z0].pitch
        window = {
            z: graph.vertices_in_rect(
                z, x0 - reach, y0 - reach, x0 + reach, y0 + reach
            )
            for z in chip.stack.indices
        }
        layers = [z for z in chip.stack.indices if window[z]]
        live = []
        for step in range(60):
            z = rng.choice(layers)
            vertex = rng.choice(window[z])
            ripup = rng.choice((-2, 1, 3))
            op = rng.choice(
                ("add", "add", "remove", "ensure", "usable", "usable",
                 "edge", "word")
            )
            if op == "add":
                net = f"lazy{step}"
                off_track = rng.random() < 0.3
                x, y, _ = graph.position(vertex)
                shift = chip.stack[z].pitch // 3 if off_track else 0
                if rng.random() < 0.3 and z in chip.stack.via_layers():
                    space.add_via(
                        net, "default", ViaInstance(z, x + shift, y),
                        ripup_level=rng.choice((1, 2, 3)),
                        off_track=off_track,
                    )
                else:
                    _z, t, c = vertex
                    c1 = min(c + rng.randrange(1, 3), len(graph.crosses[z]) - 1)
                    x1, y1, _ = graph.position((z, t, c1))
                    if x == x1:
                        x, x1 = x + shift, x1 + shift
                    else:
                        y, y1 = y + shift, y1 + shift
                    space.add_wire(
                        net, "default", StickFigure(z, x, y, x1, y1),
                        ripup_level=rng.choice((1, 2, 3)),
                        off_track=off_track,
                    )
                live.append(net)
            elif op == "remove" and live:
                space.remove_net_route(live.pop(rng.randrange(len(live))))
            elif op == "ensure":  # the window's span of the track
                _z, t, _c = vertex
                span = [c for (_, tt, c) in window[z] if tt == t]
                lo, hi = min(span), max(span)
                fast.ensure_words("default", z, t, lo, hi)
                for cc in range(lo, hi + 1):
                    got = fast.cached_word("default", z, t, cc)
                    fresh = fast._compute_word(wire_type, (z, t, cc))
                    assert got[:2] == fresh[:2], (step, cc)
                    for field, want in zip(got[2:], fresh[2:]):
                        assert field in (None, want), (step, cc)
            elif op == "usable":
                i = rng.randrange(len(SHAPE_TYPES))
                fresh = fast._compute_word(wire_type, vertex)
                assert fast.vertex_usable(
                    "default", vertex, SHAPE_TYPES[i], ripup
                ) == _field_usable(fresh[i], ripup), (step, i)
            elif op == "edge":
                upper = graph.via_partner(vertex, z + 1)
                if upper is None:
                    continue
                expected = _field_usable(
                    fast._compute_word(wire_type, vertex)[3], ripup
                ) and _field_usable(
                    fast._compute_word(wire_type, upper)[2], ripup
                )
                assert fast.edge_usable(
                    "default", vertex, upper, "via", ripup
                ) == expected, step
            elif op == "word":
                assert fast.word("default", vertex) == fast._compute_word(
                    wire_type, vertex
                ), step


def _reference_runs(fast, type_name, z, t, ranges, ripup_level, forced):
    """The per-vertex decomposition (one usability query each), as an oracle."""
    runs = []
    for c_lo, c_hi in ranges:
        run_start = None
        for c in range(c_lo, c_hi + 1):
            vertex = (z, t, c)
            if vertex in forced:
                usable, needs_ripup = True, False
            elif fast.vertex_usable(type_name, vertex, "wire"):
                usable, needs_ripup = True, False
            elif ripup_level >= 0 and fast.vertex_usable(
                type_name, vertex, "wire", ripup_level
            ):
                usable, needs_ripup = True, True
            else:
                usable, needs_ripup = False, False
            if usable and not needs_ripup:
                if run_start is None:
                    run_start = c
                continue
            if run_start is not None:
                runs.append((run_start, c - 1, False))
                run_start = None
            if usable and needs_ripup:
                runs.append((c, c, True))
        if run_start is not None:
            runs.append((run_start, c_hi, False))
    return runs


class TestScannedIntervalsMatchPerVertex:
    """Word-level interval scans must equal the per-vertex decomposition.

    ``scan_track_runs`` (a word-state diff over the packed words) and the
    GraphView materialization on top of it must reproduce
    the old per-vertex loop exactly — same run boundaries, same ripup
    singletons — on random soups, with and without forced vertices.
    """

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_runs_match_reference(self, seed):
        chip = generate_chip(
            ChipSpec("scanprop", rows=2, row_width_cells=4, net_count=4, seed=4)
        )
        rng = random.Random(seed)
        ops = _soup_ops(chip, rng)
        space = RoutingSpace(chip)
        _apply_soup(space, ops)
        fast = space.fast_grid
        graph = space.graph
        area = RoutingArea.everywhere()
        for _ in range(10):
            z = rng.choice(chip.stack.indices)
            t = rng.randrange(len(graph.tracks[z]))
            ripup = rng.choice((-2, 1, 3))
            forced = set()
            if rng.random() < 0.5:
                forced.add((z, t, rng.randrange(len(graph.crosses[z]))))
            ranges = tuple(area.cross_ranges(graph, z, t))
            expected = _reference_runs(
                fast, "default", z, t, ranges, ripup, forced
            )
            got = fast.scan_track_runs(
                "default", z, t, ranges, ripup,
                {v[2] for v in forced} or None,
            )
            assert got == expected, (
                f"scan != per-vertex at z={z} t={t} ripup={ripup} "
                f"forced={forced}"
            )
            # The view's materialized intervals agree too (and the
            # cross-search cache returns the same runs on a rebuild).
            for _round in range(2):
                view = GraphView(
                    space, "default", area, ripup_level=ripup,
                    forced_vertices=forced,
                )
                made = [
                    (iv.c_lo, iv.c_hi, iv.needs_ripup)
                    for _c, idx in view.track_intervals(z, t)
                    for iv in [view.interval(idx)]
                ]
                assert made == expected


def _reference_merge(entries):
    """Merge-everything piece merging, as the checker did before group
    dominance: per (net, class, kind, ripup) group, coalesce pieces that
    share a full edge until a fixed point."""
    groups = {}
    for entry in entries:
        key = (entry.net, entry.class_name, entry.shape_kind, entry.ripup_level)
        groups.setdefault(key, []).append(entry)
    merged = []
    for group in groups.values():
        rects = [e.rect for e in group]
        changed = True
        while changed and len(rects) > 1:
            changed = False
            out = []
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
                    ) or (
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
        sample = group[0]
        for rect in rects:
            merged.append(ShapeEntry(
                rect, sample.net, sample.class_name, sample.shape_kind,
                sample.ripup_level, sample.rule_width,
            ))
    return merged


def _reference_evaluate(entries, candidate, rule_width, net, spacing_fn):
    """The merge-everything evaluation: (legal, blockers, max ripup)."""
    diff_net = [e for e in entries if net is None or e.net != net]
    blockers = set()
    max_ripup = 0
    legal = True
    for entry in _reference_merge(diff_net):
        required = spacing_fn(
            rule_width, entry.rule_width, run_length(candidate, entry.rect)
        )
        if rect_l2_gap(candidate, entry.rect) < required:
            legal = False
            if entry.ripup_level == RIPUP_FIXED or entry.net is None:
                return (False, set(), RIPUP_FIXED)
            blockers.add(entry.net)
            max_ripup = max(max_ripup, entry.ripup_level)
    return (legal, blockers if not legal else set(), max_ripup if not legal else 0)


def _unmerged_evaluate(entries, candidate, rule_width, net, spacing_fn):
    """Like the reference, but measuring every piece on its own."""
    singles = [
        ShapeEntry(e.rect, e.net, e.class_name, e.shape_kind, e.ripup_level,
                   e.rule_width)
        for e in entries
    ]
    # Distinct class names keep every piece in a group of its own.
    for i, e in enumerate(singles):
        e.class_name = (e.class_name, i)
    return _reference_evaluate(singles, candidate, rule_width, net, spacing_fn)


_SOUP_CELL = 100


def _shape_soup(rng, grid, kind, layer, shape_kinds):
    """Random shapes stored in ``grid``, so queries return cell-clipped
    pieces: long wires in either direction, L-shapes (two overlapping
    arms of one net), small blobs; mixed nets (``None`` included), ripup
    levels (``RIPUP_FIXED`` included) and rule widths."""
    for _ in range(rng.randrange(4, 14)):
        net = rng.choice(("a", "b", "c", "own", None))
        meta = (
            net,
            rng.choice(("thin", "wide")),
            rng.choice(shape_kinds),
            rng.choice((1, 2, 3, 3, RIPUP_FIXED)),
            rng.choice((20, 40, 80)),
        )
        x, y = rng.randrange(0, 800), rng.randrange(0, 800)
        width = rng.choice((20, 40, 60))
        length = rng.randrange(40, 700)
        style = rng.random()
        if style < 0.4:
            rects = [Rect(x, y, x + length, y + width)]
        elif style < 0.6:
            rects = [Rect(x, y, x + width, y + length)]
        elif style < 0.85:
            rects = [
                Rect(x, y, x + length, y + width),
                Rect(x, y, x + width, y + rng.randrange(40, 400)),
            ]
        else:
            rects = [Rect(x, y, x + rng.randrange(10, 90),
                          y + rng.randrange(10, 90))]
        for rect in rects:
            grid.add_shape(kind, layer, rect, *meta)


def _candidate_near(rng, entries):
    """A candidate rectangle beside a random stored piece, at a gap around
    the spacings the random rules require."""
    if not entries or rng.random() < 0.2:
        x, y = rng.randrange(0, 800), rng.randrange(0, 800)
        return Rect(x, y, x + rng.randrange(10, 300), y + rng.randrange(10, 60))
    rect = rng.choice(entries).rect
    gap = rng.randrange(0, 140)
    length = rng.randrange(20, 600)
    thick = rng.randrange(10, 60)
    shift = rng.randrange(-300, 300)
    if rng.random() < 0.5:  # above a horizontal run
        x = rect.x_lo + shift
        return Rect(x, rect.y_hi + gap, x + length, rect.y_hi + gap + thick)
    y = rect.y_lo + shift
    return Rect(rect.x_hi + gap, y, rect.x_hi + gap + thick, y + length)


def _random_spacing_rule(rng):
    """A spacing table whose run-length rows sit between one cell-clipped
    piece's run and a merged wire's, so merging often decides."""
    base = rng.randrange(20, 60)
    return SpacingRule(
        base_spacing=base,
        table=[
            (rng.choice((0, 40, 80)), 0, base + rng.randrange(0, 20)),
            (rng.choice((0, 20, 40)), rng.randrange(_SOUP_CELL + 1, 400),
             base + rng.randrange(20, 80)),
        ],
    )


class TestEvaluateMatchesMergeEverything:
    """Group dominance in ``_evaluate`` equals merging every group.

    The checker merges a (net, class, kind, ripup) group's pieces only
    when no piece violates alone and some piece is nearer than the
    unbounded-run-length spacing.  On random shape soups stored in a
    shape grid (cell-clipped abutting pieces, L-shapes, mixed ripup,
    ``RIPUP_FIXED``, ``net=None``, own-net pieces), with random
    run-length spacing tables, its outcome must equal the old
    merge-everything evaluation for every piece order.
    """

    @staticmethod
    def _checker():
        stack = example_stack(4)
        grid = ShapeGrid(
            Rect(0, 0, 2000, 2000), stack,
            cell_sizes={z: _SOUP_CELL for z in stack.indices},
        )
        return DistanceRuleChecker(grid, stack, example_rules(4))

    def _compare_metal(self, seed):
        """Compare on one soup; return how many outcomes merging decided."""
        rng = random.Random(seed)
        checker = self._checker()
        _shape_soup(rng, checker.grid, "wiring", 2,
                    (ShapeKind.WIRE, ShapeKind.JOG))
        spacing = _random_spacing_rule(rng).spacing
        everything = checker.grid.query("wiring", 2, Rect(0, 0, 2000, 2000))
        decided = 0
        for _ in range(40):
            candidate = _candidate_near(rng, everything)
            entries = checker.grid.query("wiring", 2, candidate.expanded(200))
            rule_width = rng.choice((20, 40, 80))
            net = rng.choice((None, "own", "a"))
            for order in range(2):
                if order:
                    entries = list(entries)
                    rng.shuffle(entries)
                # A group's rule width is its first piece's, so the
                # reference is taken per order.
                expected = _reference_evaluate(
                    entries, candidate, rule_width, net, spacing
                )
                if expected != _unmerged_evaluate(
                    entries, candidate, rule_width, net, spacing
                ):
                    decided += 1
                got = checker._evaluate(
                    entries, candidate, rule_width, net, spacing
                )
                assert (got.legal, got.blockers, got.max_ripup_needed) == (
                    expected
                ), f"seed={seed} candidate={candidate} net={net}"
        return decided

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_metal_soups(self, seed):
        self._compare_metal(seed)

    def test_merging_decides_some_outcomes(self):
        """The soups do reach groups only a merge can decide, so the
        comparison above covers the merge branch."""
        assert sum(self._compare_metal(seed) for seed in range(20)) > 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_via_cut_soups(self, seed):
        """``check_via_cut`` (cuts and adjacent-layer cut projections,
        each with its own spacing) equals the reference on both parts."""
        rng = random.Random(seed)
        checker = self._checker()
        via_layer = 1
        _shape_soup(rng, checker.grid, "via", via_layer,
                    (ShapeKind.VIA_CUT, ShapeKind.VIA_CUT_PROJECTION))
        via_rule = checker.rules.via_rule(via_layer)
        everything = checker.grid.query("via", via_layer, Rect(0, 0, 2000, 2000))
        for _ in range(40):
            candidate = _candidate_near(rng, everything)
            rule_width = rng.choice((20, 40))
            net = rng.choice((None, "own", "a"))
            radius = max(via_rule.cut_spacing, via_rule.adjacent_layer_spacing)
            entries = checker.grid.query(
                "via", via_layer, candidate.expanded(radius + 1)
            )
            projection = ShapeKind.VIA_CUT_PROJECTION.value
            parts = [
                _reference_evaluate(
                    [e for e in entries if (e.shape_kind == projection) == proj],
                    candidate, rule_width, net,
                    lambda a, b, rl, s=spacing: s,
                )
                for proj, spacing in (
                    (False, via_rule.cut_spacing),
                    (True, via_rule.adjacent_layer_spacing),
                )
            ]
            legal = parts[0][0] and parts[1][0]
            if legal:
                expected = (True, set(), 0)
            elif RIPUP_FIXED in (parts[0][2], parts[1][2]):
                expected = (False, set(), RIPUP_FIXED)
            else:
                expected = (
                    False, parts[0][1] | parts[1][1],
                    max(parts[0][2], parts[1][2]),
                )
            got = checker.check_via_cut(via_layer, candidate, rule_width, net)
            assert (got.legal, got.blockers, got.max_ripup_needed) == expected


class TestSweepCoveredMatchesGaps:
    """The band sweep's covered set equals per-vertex gap tests.

    ``covered_crosses`` bisects each band entry into the crosses whose
    translated candidate it comes nearer to than the reach; for every
    vertex of the swept segment that must equal whether some entry of
    ``PrefetchedBand.query`` of the vertex's own check window has a
    ``rect_l2_gap`` below the reach — on horizontal and vertical tracks,
    for wire-like and jog-like candidates, at the band's edges, with gaps
    exactly at the reach, with gaps in the swept crosses and for
    single-cross segments.
    """

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6))
    def test_covered_equals_gap_tests(self, seed):
        rng = random.Random(seed)
        horizontal = rng.random() < 0.5
        crosses = sorted(rng.sample(range(0, 1000, 5), rng.randrange(1, 40)))
        track = rng.randrange(0, 400, 10)
        reach = rng.choice((0, 5, 13, 25, 40, 50))
        radius = 51
        entries = []
        for _ in range(rng.randrange(0, 12)):
            lo = rng.randrange(-50, 1050)
            side = track + rng.randrange(-60, 60)
            along_hi = lo + rng.randrange(0, 120)
            side_hi = side + rng.randrange(0, 30)
            rect = (Rect(lo, side, along_hi, side_hi) if horizontal
                    else Rect(side, lo, side_hi, along_hi))
            entries.append(ShapeEntry(rect, "n", "c", "wire", 1, 20))
        first = rng.randrange(len(crosses))
        if rng.random() < 0.3:
            cs = [first]  # c_lo == c_hi
        else:
            last = rng.randrange(first, len(crosses))
            cs = [c for c in range(first, last + 1)
                  if c in (first, last) or rng.random() < 0.7]
        band = PrefetchedBand(entries, axis_x=rng.random() < 0.5)
        # Wire (long along the track) and jog (long across it) candidates.
        for along, across in ((rng.randrange(0, 60), rng.randrange(0, 15)),
                              (rng.randrange(0, 15), rng.randrange(0, 60))):
            def candidate_at(c):
                p = crosses[c]
                if horizontal:
                    return Rect(p - along, track - across, p + along + 3,
                                track + across)
                return Rect(track - across, p - along, track + across,
                            p + along + 3)

            got = covered_crosses(band.entries, crosses, cs, candidate_at(cs[0]),
                                  reach, horizontal)
            expected = [
                any(
                    rect_l2_gap(candidate_at(c), e.rect) < reach
                    for e in band.query(candidate_at(c).expanded(radius))
                )
                for c in cs
            ]
            assert got == expected, f"seed={seed} cs={cs}"

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_swept_fields_match_fresh_checks(self, seed):
        """Every band field a sweep sets, checked or skipped, equals a
        fresh check: all layers, both wire types, single crosses and
        segments ending at the track's ends."""
        chip = generate_chip(
            ChipSpec("sweepprop", rows=2, row_width_cells=4, net_count=4, seed=4)
        )
        rng = random.Random(seed)
        space = RoutingSpace(chip)
        _apply_soup(space, _soup_ops(chip, rng, count=16))
        fast, graph = space.fast_grid, space.graph
        # Wide wires shifted off track by any amount: pieces wider than
        # a default candidate, at every gap around the wide spacing.
        for i in range(8):
            z = rng.choice((3, 4))
            t = rng.randrange(len(graph.tracks[z]))
            c0 = rng.randrange(len(graph.crosses[z]) - 3)
            x0, y0, _ = graph.position((z, t, c0))
            x1, y1, _ = graph.position((z, t, c0 + rng.randrange(1, 3)))
            shift = rng.randrange(chip.stack[z].pitch)
            if x0 == x1:
                x0, x1 = x0 + shift, x1 + shift
            else:
                y0, y1 = y0 + shift, y1 + shift
            space.add_wire(
                f"widesoup{i}", "wide", StickFigure(z, x0, y0, x1, y1),
                ripup_level=rng.choice((1, 2, 3)), off_track=shift > 0,
            )
        for _ in range(12):
            type_name = rng.choice(("default", "wide"))
            z = rng.choice(chip.stack.indices)
            t = rng.randrange(len(graph.tracks[z]))
            top = len(graph.crosses[z]) - 1
            c_lo = rng.choice((0, rng.randrange(top + 1)))
            c_hi = rng.choice((c_lo, top, min(top, c_lo + rng.randrange(12))))
            fast.ensure_words(type_name, z, t, c_lo, c_hi)
            wire_type = fast.wire_types[type_name]
            for c in range(c_lo, c_hi + 1):
                fresh = fast._compute_word(wire_type, (z, t, c))
                assert fast.cached_word(type_name, z, t, c)[:2] == fresh[:2], (
                    f"seed={seed} {type_name} vertex={(z, t, c)}"
                )

    def test_gaps_on_the_reach_circle(self):
        """Pieces exactly ``reach`` away (straight across, or on a
        Pythagorean diagonal) are not covered; one unit nearer they are."""
        crosses = list(range(0, 200, 10))
        candidate = Rect(-5, 0, 5, 10)  # the vertex at cross 0, y 0..10
        for rect, covered in (
            (Rect(0, 35, 0, 40), False),  # 25 straight across
            (Rect(0, 34, 0, 40), True),
            (Rect(25, 25, 30, 30), False),  # (20, 15): a 3-4-5 diagonal
            (Rect(24, 25, 30, 30), True),
        ):
            got = covered_crosses(
                [ShapeEntry(rect, "n", "c", "wire", 1, 20)],
                crosses, [0], candidate, 25, True,
            )
            assert got == [covered], rect


class TestViaTablesMatchCoordinates:
    """``TrackGraph.via_partner`` reads tables built once per layer pair;
    on every vertex of three chips it must give the vertex at the same
    (x, y) on the adjacent layer, or None where there is none."""

    @pytest.mark.parametrize("seed", (3, 7, 1015))
    def test_every_vertex(self, seed):
        chip = generate_chip(
            ChipSpec("viatab", rows=2, row_width_cells=4, net_count=4, seed=seed)
        )
        graph = RoutingSpace(chip).graph
        found = missing = 0
        for z in graph.stack.indices:
            for other in (z - 1, z + 1):
                for t in range(len(graph.tracks[z])):
                    for c in range(len(graph.crosses[z])):
                        x, y, _z = graph.position((z, t, c))
                        want = (
                            graph.vertex_at(x, y, other)
                            if graph.stack.has_layer(other) else None
                        )
                        assert graph.via_partner((z, t, c), other) == want
                        found += want is not None
                        missing += want is None
        assert found and missing


def _reference_query(layer_grid, rect):
    """``_LayerGrid.query`` building a ``Rect`` for every candidate piece
    and testing it with ``Rect.intersects``."""
    row_lo, row_hi, col_lo, col_hi = layer_grid._covered_cells(rect)
    layer_grid._ensure_rows(row_lo, row_hi)
    seen = set()
    for row_index in range(row_lo, row_hi + 1):
        row = layer_grid.rows.get(row_index)
        if row is None:
            continue
        item = row.floor_item(col_lo)
        start_key = item[0] if item is not None and item[1][0] >= col_lo else col_lo
        for start, (end, config_id) in row.items(lo=start_key, hi=col_hi):
            for col in range(max(start, col_lo), min(end, col_hi) + 1):
                ax, ay = layer_grid._cell_anchor(row_index, col)
                for shape in layer_grid.table.shapes(config_id):
                    absolute = Rect(shape.x_lo + ax, shape.y_lo + ay,
                                    shape.x_hi + ax, shape.y_hi + ay)
                    if not absolute.intersects(rect):
                        continue
                    key = (absolute.as_tuple(), shape.net, shape.class_name,
                           shape.shape_kind)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield ShapeEntry(absolute, shape.net, shape.class_name,
                                     shape.shape_kind, shape.ripup_level,
                                     shape.rule_width)


def _entry_tuple(entry):
    return (entry.rect.as_tuple(), entry.net, entry.class_name,
            entry.shape_kind, entry.ripup_level, entry.rule_width)


def _border_rect(rng):
    """A rectangle with edges on cell borders: a cell-aligned box, a
    stick lying on a border line, or a single border point."""
    x = rng.randrange(0, 19) * _SOUP_CELL
    y = rng.randrange(0, 19) * _SOUP_CELL
    span = rng.randrange(1, 4) * _SOUP_CELL
    style = rng.random()
    if style < 0.4:
        return Rect(x, y, x + span, y + rng.choice((_SOUP_CELL, 20)))
    if style < 0.7:
        return Rect(x, y, x, y + span) if rng.random() < 0.5 else Rect(x, y, x + span, y)
    if style < 0.85:
        return Rect(x, y, x, y)
    return Rect(x - 1, y - 1, x + 1, y + 1)


class TestLayerGridQueryMatchesReference:
    """The integer intersection test in ``_LayerGrid.query`` yields the
    same pieces, in the same order and with the same dedupe, as the
    ``Rect``-based reference - on random soups with pieces and query
    windows on cell borders, on both preferred directions and a via
    layer."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_stream_equals_reference(self, seed):
        rng = random.Random(seed)
        stack = example_stack(4)
        grid = ShapeGrid(
            Rect(0, 0, 2000, 2000), stack,
            cell_sizes={z: _SOUP_CELL for z in stack.indices},
        )
        for kind, layer in (("wiring", 1), ("wiring", 2), ("via", 1)):
            shape_kinds = (
                (ShapeKind.VIA_CUT,) if kind == "via"
                else (ShapeKind.WIRE, ShapeKind.JOG, ShapeKind.PIN)
            )
            _shape_soup(rng, grid, kind, layer, shape_kinds)
            for _ in range(rng.randrange(3, 9)):
                # Some pieces are stored twice under different classes;
                # the dedupe key must keep both.
                rect = _border_rect(rng)
                net = rng.choice(("a", "b", None))
                shape_kind = rng.choice(shape_kinds)
                for class_name in rng.choice((("thin",), ("thin", "wide"))):
                    grid.add_shape(
                        kind, layer, rect, net, class_name, shape_kind,
                        rng.choice((1, 3, RIPUP_FIXED)), 20,
                    )
            layer_grid = grid._grid(kind, layer)
            for _ in range(30):
                if rng.random() < 0.5:
                    window = _border_rect(rng)
                else:
                    x, y = rng.randrange(0, 1900), rng.randrange(0, 1900)
                    window = Rect(x, y, x + rng.randrange(0, 400),
                                  y + rng.randrange(0, 400))
                got = [_entry_tuple(e) for e in layer_grid.query(window)]
                want = [_entry_tuple(e)
                        for e in _reference_query(layer_grid, window)]
                assert got == want, (seed, kind, layer, window)
