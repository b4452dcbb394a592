"""Tests for the on-track path search (Sec. 4.1, Algorithm 4).

The central invariant: the interval-based search returns exactly the
node-based Dijkstra's optimal costs, with far fewer heap pops.

``pathsearch_golden.json`` pins the exact ``(cost, vertices)`` of 285
seeded searches (see :class:`TestKernelEquivalence`).
:class:`TestFlatSweepMatchesReference` holds pi_GR's flat backward
sweep and pi_H's flat query to reference copies of the vertex Dijkstra
and the rectangle-based l1 bound they replaced.  Regenerate it
(only when a results change is intended) with::

    PYTHONPATH=src python tests/test_pathsearch.py
"""

import heapq
import json
import os
import random

import pytest

from repro.chip.generator import ChipSpec, generate_chip
from repro.droute.area import RoutingArea
from repro.droute.future_cost import (
    UNREACHABLE,
    FutureCostGR,
    FutureCostH,
    FutureCostP,
    SearchCosts,
)
from repro.droute.intervals import GraphView
from repro.droute.pathsearch import (
    interval_path_search,
    node_path_search,
    path_to_moves,
)
from repro.droute.space import RoutingSpace
from repro.geometry.rect import Rect
from repro.tech.wiring import StickFigure


GOLDEN_FIXTURE = os.path.join(os.path.dirname(__file__), "pathsearch_golden.json")

#: (name, instance seed, count, search, future cost, ripup level) of each
#: golden set: pi_H, pi_GR, node search, ripup 3 and a warm interval cache.
GOLDEN_SETS = (
    ("interval_pi_h", 101, 200, "interval", "pi_h", -2),
    ("interval_pi_gr", 202, 25, "interval", "pi_gr", -2),
    ("node_pi_h", 303, 25, "node", "pi_h", -2),
    ("interval_ripup3", 404, 25, "interval", "pi_h", 3),
    ("interval_warm_cache", 505, 10, "interval", "pi_h", -2),
)


def make_space():
    spec = ChipSpec("pstest", rows=2, row_width_cells=5, net_count=5, seed=5)
    return RoutingSpace(generate_chip(spec))


@pytest.fixture(scope="module")
def space():
    return make_space()


def golden_instances(space, seed, count):
    """``count`` seeded random (source, target) vertex pairs, s != t."""
    rng = random.Random(seed)
    graph = space.graph
    out = []
    while len(out) < count:
        z1 = rng.choice(graph.stack.indices)
        z2 = rng.choice(graph.stack.indices)
        s = (z1, rng.randrange(len(graph.tracks[z1])),
             rng.randrange(len(graph.crosses[z1])))
        t = (z2, rng.randrange(len(graph.tracks[z2])),
             rng.randrange(len(graph.crosses[z2])))
        if s != t:
            out.append((s, t))
    return out


def solve_golden(space, s, t, entry):
    """One golden-set search; JSON-shaped ``[cost, vertices]`` or None."""
    costs = SearchCosts()
    area = RoutingArea.everywhere()
    view = GraphView(space, "default", area, ripup_level=entry["ripup"],
                     forced_vertices={s, t})
    if entry["pi"] == "pi_h":
        pi = FutureCostH(space.graph, [t], costs)
    else:
        pi = FutureCostGR(space.graph, [t], costs, view, stop_vertices={s})
    search = (
        interval_path_search if entry["search"] == "interval" else node_path_search
    )
    result = search(view, {s: 0}, {t}, costs, pi)
    if result is None:
        return None
    return [result.cost, [list(v) for v in result.vertices]]


def _load_golden():
    with open(GOLDEN_FIXTURE) as fh:
        return {entry["name"]: entry for entry in json.load(fh)["sets"]}


GOLDEN = _load_golden() if os.path.exists(GOLDEN_FIXTURE) else {}


def _run_both(space, s, t, ripup=-2):
    costs = SearchCosts()
    area = RoutingArea.everywhere()
    pi = FutureCostH(space.graph, [t], costs)
    results = []
    for search in (interval_path_search, node_path_search):
        view = GraphView(space, "default", area, ripup_level=ripup,
                         forced_vertices={s, t})
        results.append(search(view, {s: 0}, {t}, costs, pi))
    return results


class TestCorrectness:
    def test_same_layer_straight(self, space):
        z = 5
        s = (z, 1, 1)
        t = (z, 1, len(space.graph.crosses[z]) - 2)
        interval, node = _run_both(space, s, t)
        assert interval is not None and node is not None
        assert interval.cost == node.cost

    def test_cross_layer(self, space):
        s = (2, 2, 2)
        t = (5, 3, 3)
        interval, node = _run_both(space, s, t)
        assert interval is not None and node is not None
        assert interval.cost == node.cost

    def test_random_pairs_match(self, space):
        rng = random.Random(17)
        graph = space.graph
        for _ in range(15):
            z1 = rng.choice(graph.stack.indices)
            z2 = rng.choice(graph.stack.indices)
            s = (z1, rng.randrange(len(graph.tracks[z1])),
                 rng.randrange(len(graph.crosses[z1])))
            t = (z2, rng.randrange(len(graph.tracks[z2])),
                 rng.randrange(len(graph.crosses[z2])))
            if s == t:
                continue
            interval, node = _run_both(space, s, t)
            cost_i = interval.cost if interval else None
            cost_n = node.cost if node else None
            assert cost_i == cost_n, f"{s} -> {t}: {cost_i} != {cost_n}"

    def test_path_endpoints(self, space):
        s = (3, 1, 1)
        t = (3, 4, 8)
        interval, _node = _run_both(space, s, t)
        assert interval.vertices[0] == s
        assert interval.vertices[-1] == t

    def test_path_is_connected_moves(self, space):
        s = (2, 1, 1)
        t = (4, 3, 6)
        interval, _ = _run_both(space, s, t)
        moves = path_to_moves(space.graph, interval.vertices)
        assert len(moves) == len(interval.vertices) - 1
        for kind, v, w in moves:
            if kind == "via":
                assert abs(v[0] - w[0]) == 1 and v[1:] != None
            elif kind == "jog":
                assert v[0] == w[0] and abs(v[1] - w[1]) == 1 and v[2] == w[2]
            else:
                assert v[0] == w[0] and v[1] == w[1] and abs(v[2] - w[2]) == 1

    def test_unreachable_returns_none(self, space):
        # Restrict the area to two disjoint windows on one layer: no path.
        graph = space.graph
        z = 5
        x0, y0, _ = graph.position((z, 0, 0))
        area = RoutingArea.from_boxes([
            (z, Rect(x0, y0, x0 + 100, y0 + 100)),
        ])
        costs = SearchCosts()
        s = (z, 0, 0)
        t = (z, len(graph.tracks[z]) - 1, len(graph.crosses[z]) - 1)
        pi = FutureCostH(graph, [t], costs)
        view = GraphView(space, "default", area, forced_vertices={s})
        assert interval_path_search(view, {s: 0}, {t}, costs, pi) is None

    def test_source_offset_respected(self, space):
        z = 5
        s1 = (z, 1, 1)
        s2 = (z, 1, 3)
        t = (z, 1, 10)
        costs = SearchCosts()
        pi = FutureCostH(space.graph, [t], costs)
        view = GraphView(space, "default", RoutingArea.everywhere(),
                         forced_vertices={s1, s2, t})
        # Huge offset on the nearer source: the farther one wins.
        result = interval_path_search(
            view, {s1: 10 ** 9, s2: 0}, {t}, costs, pi
        )
        assert result.vertices[0] == s2


class TestEfficiency:
    def test_interval_pops_fewer(self, space):
        z = 5
        s = (z, 0, 0)
        t = (z, len(space.graph.tracks[z]) - 1, len(space.graph.crosses[z]) - 1)
        interval, node = _run_both(space, s, t)
        assert interval.stats.pops < node.stats.pops

    def test_long_straight_run_few_pops(self, space):
        """Goal-oriented straight-line search: O(1) pops, not O(distance)."""
        z = 5
        s = (z, 2, 0)
        t = (z, 2, len(space.graph.crosses[z]) - 1)
        interval, node = _run_both(space, s, t)
        assert interval.stats.pops <= 5
        assert node.stats.pops >= len(space.graph.crosses[z]) - 2


class TestBlockagesAndRipup:
    @pytest.fixture()
    def blocked_space(self):
        spec = ChipSpec("psblock", rows=2, row_width_cells=5, net_count=5, seed=5)
        space = RoutingSpace(generate_chip(spec))
        graph = space.graph
        z = 5
        t_index = 2
        y = graph.tracks[z][t_index]
        x_lo, _, _ = graph.position((z, t_index, 3))
        x_hi, _, _ = graph.position((z, t_index, 5))
        space.add_wire("blocker", "default", StickFigure(z, x_lo, y, x_hi, y))
        return space, z, t_index

    def test_search_detours_around_foreign_wire(self, blocked_space):
        space, z, t_index = blocked_space
        graph = space.graph
        s = (z, t_index, 0)
        t = (z, t_index, len(graph.crosses[z]) - 1)
        costs = SearchCosts()
        pi = FutureCostH(graph, [t], costs)
        view = GraphView(space, "default", RoutingArea.everywhere(),
                         forced_vertices={s, t})
        result = interval_path_search(view, {s: 0}, {t}, costs, pi)
        assert result is not None
        blocked = {(z, t_index, c) for c in range(3, 6)}
        assert not (set(result.vertices) & blocked)
        # Detour costs more than the straight line.
        straight = graph.crosses[z][-1] - graph.crosses[z][0]
        assert result.cost > straight

    def test_ripup_mode_crosses_at_penalty(self, blocked_space):
        space, z, t_index = blocked_space
        graph = space.graph
        s = (z, t_index, 0)
        t = (z, t_index, len(graph.crosses[z]) - 1)
        costs = SearchCosts()
        pi = FutureCostH(graph, [t], costs)
        view = GraphView(
            space, "default", RoutingArea.everywhere(),
            ripup_level=3, forced_vertices={s, t},
            ripup_base_penalty=10,
        )
        result = interval_path_search(view, {s: 0}, {t}, costs, pi)
        assert result is not None
        assert result.ripup_vertices, "expected the path to cross the blocker"

    def test_ripup_history_raises_penalty(self, blocked_space):
        space, z, t_index = blocked_space
        graph = space.graph
        s = (z, t_index, 0)
        t = (z, t_index, len(graph.crosses[z]) - 1)
        costs = SearchCosts()
        pi = FutureCostH(graph, [t], costs)

        def run(history):
            view = GraphView(
                space, "default", RoutingArea.everywhere(),
                ripup_level=3, forced_vertices={s, t},
                ripup_base_penalty=10, ripup_history=history,
            )
            return interval_path_search(view, {s: 0}, {t}, costs, pi)

        fresh = run({})
        loaded = run({v: 50 for v in fresh.ripup_vertices})
        # With heavy history the detour becomes cheaper than ripping.
        assert loaded.cost >= fresh.cost


class TestKernelEquivalence:
    """Every search reproduces its recorded answer, vertex for vertex.

    Ties pop FIFO by insertion order, so the returned path (not just its
    optimal cost) is part of the search's contract.  The golden answers
    in ``pathsearch_golden.json`` were recorded while a heap and a bucket
    kernel both shipped and agreed on every instance; replaying them
    keeps that equivalence checked against the one remaining kernel.
    """

    @staticmethod
    def _replay(space, set_name):
        entry = GOLDEN[set_name]
        cases = entry["cases"]
        assert len(cases) == entry["count"]
        for case in cases:
            s, t = tuple(case["s"]), tuple(case["t"])
            assert solve_golden(space, s, t, entry) == case["answer"], f"{s} -> {t}"

    def test_interval_equivalence_200_instances(self, space):
        """>= 200 seeded instances: identical cost and identical path."""
        self._replay(space, "interval_pi_h")

    def test_interval_equivalence_under_pi_gr(self, space):
        self._replay(space, "interval_pi_gr")

    def test_node_equivalence(self, space):
        self._replay(space, "node_pi_h")

    def test_equivalence_with_ripup_penalties(self, space):
        self._replay(space, "interval_ripup3")

    def test_golden_covers_unreachable_case(self):
        answers = [c["answer"] for e in GOLDEN.values() for c in e["cases"]]
        assert len(answers) == sum(count for _, _, count, *_ in GOLDEN_SETS)
        assert any(a is None for a in answers), "no unreachable case"

    def test_equivalence_with_warm_interval_cache(self, space):
        """Golden paths with the cross-search interval cache warm.

        The second pass must actually serve runs out of the cache
        (interval_cache_hits > 0) and still return identical paths.
        """
        from repro.obs import OBS

        entry = GOLDEN["interval_warm_cache"]
        cases = [
            (tuple(c["s"]), tuple(c["t"]), c["answer"]) for c in entry["cases"]
        ]
        space.interval_cache.clear()
        for s, t, _answer in cases:  # warm pass populates the cache
            solve_golden(space, s, t, entry)
        OBS.reset()
        OBS.configure(enabled=True)
        try:
            for s, t, answer in cases:
                assert solve_golden(space, s, t, entry) == answer, f"{s} -> {t}"
            assert OBS.counters.get("fastgrid.interval_cache_hits", 0) > 0
        finally:
            OBS.reset()


class TestFutureCosts:
    def test_pi_h_zero_at_target(self, space):
        t = (3, 2, 4)
        pi = FutureCostH(space.graph, [t], SearchCosts())
        assert pi(t) == 0

    def test_pi_h_admissible(self, space):
        rng = random.Random(3)
        graph = space.graph
        costs = SearchCosts()
        t = (3, 2, 4)
        pi = FutureCostH(graph, [t], costs)
        for _ in range(8):
            z = rng.choice(graph.stack.indices)
            s = (z, rng.randrange(len(graph.tracks[z])),
                 rng.randrange(len(graph.crosses[z])))
            if s == t:
                continue
            view = GraphView(space, "default", RoutingArea.everywhere(),
                             forced_vertices={s, t})
            result = node_path_search(view, {s: 0}, {t}, costs, pi)
            if result is not None:
                assert pi(s) <= result.cost

    def test_pi_p_at_least_pi_h_and_admissible(self, space):
        graph = space.graph
        costs = SearchCosts()
        t = (3, 2, 4)
        area = RoutingArea.everywhere()
        large = [
            (layer, rect)
            for layer, rect, _own in space.chip.obstruction_shapes()
        ]
        pi_p = FutureCostP(graph, [t], costs, area, large)
        pi_h = FutureCostH(graph, [t], costs)
        rng = random.Random(4)
        for _ in range(8):
            z = rng.choice(graph.stack.indices)
            s = (z, rng.randrange(len(graph.tracks[z])),
                 rng.randrange(len(graph.crosses[z])))
            if s == t:
                continue
            assert pi_p(s) >= pi_h(s)
            view = GraphView(space, "default", area, forced_vertices={s, t})
            result = node_path_search(view, {s: 0}, {t}, costs, pi_h)
            if result is not None:
                assert pi_p(s) <= result.cost, "pi_P must stay admissible"

    def _optimal_cost(self, space, s, t, area=None):
        area = area or RoutingArea.everywhere()
        costs = SearchCosts()
        pi_h = FutureCostH(space.graph, [t], costs)
        view = GraphView(space, "default", area, forced_vertices={s, t})
        result = interval_path_search(view, {s: 0}, {t}, costs, pi_h)
        return None if result is None else result.cost

    def test_pi_gr_zero_at_target_and_dominates_pi_h(self, space):
        graph = space.graph
        costs = SearchCosts()
        t = (3, 2, 4)
        rng = random.Random(11)
        sources = []
        for _ in range(12):
            z = rng.choice(graph.stack.indices)
            sources.append((z, rng.randrange(len(graph.tracks[z])),
                            rng.randrange(len(graph.crosses[z]))))
        view = GraphView(space, "default", RoutingArea.everywhere(),
                         forced_vertices={t, *sources})
        pi_gr = FutureCostGR(graph, [t], costs, view)
        pi_h = FutureCostH(graph, [t], costs)
        assert pi_gr(t) == 0
        for s in sources:
            assert pi_gr(s) >= pi_h(s)

    def test_pi_gr_admissible(self, space):
        """pi_GR(s) never exceeds the true optimal search cost, with the
        sweep run to exhaustion (no stop vertices)."""
        graph = space.graph
        costs = SearchCosts()
        t = (3, 2, 4)
        area = RoutingArea.everywhere()
        rng = random.Random(12)
        for _ in range(20):
            z = rng.choice(graph.stack.indices)
            s = (z, rng.randrange(len(graph.tracks[z])),
                 rng.randrange(len(graph.crosses[z])))
            if s == t:
                continue
            view = GraphView(space, "default", area, forced_vertices={s, t})
            pi_gr = FutureCostGR(graph, [t], costs, view)
            cost = self._optimal_cost(space, s, t)
            if cost is not None:
                assert pi_gr(s) <= cost

    def test_pi_gr_view_mode_admissible_with_penalties(self, space):
        """View-mode pi_GR (penalty-aware, source-truncated) stays below
        the true cost of the search it steers."""
        graph = space.graph
        costs = SearchCosts()
        area = RoutingArea.everywhere()
        rng = random.Random(13)
        checked = 0
        while checked < 20:
            z1 = rng.choice(graph.stack.indices)
            z2 = rng.choice(graph.stack.indices)
            s = (z1, rng.randrange(len(graph.tracks[z1])),
                 rng.randrange(len(graph.crosses[z1])))
            t = (z2, rng.randrange(len(graph.tracks[z2])),
                 rng.randrange(len(graph.crosses[z2])))
            if s == t:
                continue
            view = GraphView(space, "default", area, forced_vertices={s, t})
            pi_gr = FutureCostGR(graph, [t], costs, view, stop_vertices={s})
            result = interval_path_search(view, {s: 0}, {t}, costs, pi_gr)
            reference = self._optimal_cost(space, s, t)
            if reference is None:
                assert result is None
                continue
            assert result is not None
            assert result.cost == reference
            assert pi_gr(s) <= reference
            checked += 1

    def test_pi_gr_unreachable_proof_prunes(self, space):
        """Disconnected target: the view-mode bound proves it and the
        search stops after O(1) labels instead of exhausting."""
        graph = space.graph
        z = 5
        x0, y0, _ = graph.position((z, 0, 0))
        area = RoutingArea.from_boxes([(z, Rect(x0, y0, x0 + 100, y0 + 100))])
        costs = SearchCosts()
        s = (z, 0, 0)
        t = (z, len(graph.tracks[z]) - 1, len(graph.crosses[z]) - 1)
        view = GraphView(space, "default", area, forced_vertices={s})
        pi_gr = FutureCostGR(graph, [t], costs, view, stop_vertices={s})
        assert pi_gr.unreachable_is_proof
        assert pi_gr(s) >= UNREACHABLE
        result = interval_path_search(view, {s: 0}, {t}, costs, pi_gr)
        assert result is None

    def test_search_with_pi_p_same_cost(self, space):
        graph = space.graph
        costs = SearchCosts()
        s, t = (1, 2, 5), (4, 3, 10)
        area = RoutingArea.everywhere()
        large = [
            (layer, rect)
            for layer, rect, _own in space.chip.obstruction_shapes()
        ]
        pi_p = FutureCostP(graph, [t], costs, area, large)
        pi_h = FutureCostH(graph, [t], costs)
        view1 = GraphView(space, "default", area, forced_vertices={s, t})
        view2 = GraphView(space, "default", area, forced_vertices={s, t})
        r_h = interval_path_search(view1, {s: 0}, {t}, costs, pi_h)
        r_p = interval_path_search(view2, {s: 0}, {t}, costs, pi_p)
        assert (r_h is None) == (r_p is None)
        if r_h is not None:
            assert r_h.cost == r_p.cost


def _coordinate_neighbours(graph, vertex):
    """(neighbour, kind, length) with via partners found by coordinates."""
    z, t, c = vertex
    crosses, tracks = graph.crosses[z], graph.tracks[z]
    if c > 0:
        yield (z, t, c - 1), "wire", crosses[c] - crosses[c - 1]
    if c + 1 < len(crosses):
        yield (z, t, c + 1), "wire", crosses[c + 1] - crosses[c]
    if t > 0:
        yield (z, t - 1, c), "jog", tracks[t] - tracks[t - 1]
    if t + 1 < len(tracks):
        yield (z, t + 1, c), "jog", tracks[t + 1] - tracks[t]
    x, y, _z = graph.position(vertex)
    for other in (z - 1, z + 1):
        if graph.stack.has_layer(other):
            partner = graph.vertex_at(x, y, other)
            if partner is not None:
                yield partner, "via", 0


def _reference_pi_h(graph, targets, costs):
    """pi_H through physical positions and ``Rect`` l1 distances."""
    pi_h = FutureCostH(graph, targets, costs)

    def pi(vertex):
        x, y, z = graph.position(vertex)
        wire = min(
            max(r.x_lo - x, 0, x - r.x_hi) + max(r.y_lo - y, 0, y - r.y_hi)
            for r in pi_h.target_rects
        )
        return wire + pi_h._lb_via[z]

    return pi


def _reference_pi_gr(graph, targets, costs, view, stop_vertices=()):
    """pi_GR as the neighbour-by-neighbour vertex Dijkstra computes it.

    String-dispatched edge costs, one ``interval_at`` per neighbour, a
    settled set at truncation and ``max(pi_H, d)`` on every query.
    Returns ``(pi, dist)``.
    """
    dist = {}
    settled = set()
    stop_set = set(stop_vertices)
    truncated_at = None
    heap = []
    for vertex in targets:
        dist[vertex] = 0
        heap.append((0, vertex))
    heapq.heapify(heap)
    while heap:
        d, vertex = heapq.heappop(heap)
        if d > dist.get(vertex, UNREACHABLE):
            continue
        if stop_set:
            settled.add(vertex)
            if vertex in stop_set:
                truncated_at = d
                dist = {v: dv for v, dv in dist.items() if v in settled}
                break
        interval = view.interval_at(vertex)
        penalty = interval.penalty if interval is not None else 0
        z = vertex[0]
        for neighbour, kind, length in _coordinate_neighbours(graph, vertex):
            n_interval = view.interval_at(neighbour)
            if n_interval is None:
                continue
            layer_or_via = min(z, neighbour[0]) if kind == "via" else z
            nd = d + costs.edge_cost(kind, layer_or_via, length)
            if n_interval is not interval:
                nd += penalty
            if nd < dist.get(neighbour, UNREACHABLE):
                dist[neighbour] = nd
                heapq.heappush(heap, (nd, neighbour))
    pi_h = _reference_pi_h(graph, targets, costs)

    def pi(vertex):
        h = pi_h(vertex)
        d = dist.get(vertex)
        if d is None:
            if truncated_at is not None and view.interval_at(vertex) is not None:
                return max(h, truncated_at)
            return UNREACHABLE
        return max(h, d)

    return pi, dist


def _interval_sequence(view):
    return [
        (i.z, i.t, i.c_lo, i.c_hi, i.penalty, i.needs_ripup)
        for i in view._intervals
    ]


def _open_vertices(view):
    graph = view.graph
    for z in graph.stack.indices:
        for t in range(len(graph.tracks[z])):
            for _c_lo, index in view.track_intervals(z, t):
                interval = view.interval(index)
                for c in range(interval.c_lo, interval.c_hi + 1):
                    yield (z, t, c)


@pytest.fixture(scope="module")
def soup_space():
    """The golden chip plus foreign wires, so ripup views have ripup
    intervals and penalties to charge."""
    space = make_space()
    graph = space.graph
    rng = random.Random(29)
    for i in range(14):
        z = rng.choice(graph.stack.indices)
        t = rng.randrange(len(graph.tracks[z]))
        c0 = rng.randrange(len(graph.crosses[z]) - 4)
        x0, y0, _z = graph.position((z, t, c0))
        x1, y1, _z = graph.position((z, t, c0 + rng.randrange(1, 4)))
        space.add_wire(f"soup{i}", "default", StickFigure(z, x0, y0, x1, y1))
    return space


def _random_vertex(rng, graph):
    z = rng.choice(graph.stack.indices)
    return (z, rng.randrange(len(graph.tracks[z])),
            rng.randrange(len(graph.crosses[z])))


class TestFlatSweepMatchesReference:
    """pi_GR's flat sweep gives the reference Dijkstra's pi on every open
    vertex and decomposes tracks in the same order; pi_H's flat query
    equals the position-based one."""

    #: View modes: ``plain``; ``penalised`` - ripup of the soup's wires
    #: at a history-scaled penalty plus a spreading penalty on odd
    #: tracks; ``corridor`` - the left 60% of the die on every layer but
    #: the top one, so some forced vertices and tracks fall outside.
    MODES = ("plain", "penalised", "corridor")

    @staticmethod
    def _view(space, forced, mode, rng):
        if mode == "plain":
            return GraphView(space, "default", RoutingArea.everywhere(),
                             forced_vertices=set(forced))
        if mode == "corridor":
            die = space.chip.die
            box = Rect(die.x_lo, die.y_lo,
                       die.x_lo + die.width * 3 // 5, die.y_hi)
            area = RoutingArea.from_boxes(
                [(z, box) for z in space.graph.stack.indices[:-1]]
            )
            return GraphView(space, "default", area, forced_vertices=set(forced))
        history = {_random_vertex(rng, space.graph): rng.randrange(1, 4)
                   for _ in range(40)}
        return GraphView(
            space, "default", RoutingArea.everywhere(), ripup_level=3,
            forced_vertices=set(forced), ripup_history=history,
            ripup_base_penalty=25,
            spreading_penalty=lambda interval: 40 if interval.t % 2 else 0,
        )

    def _instances(self, space, seed, count):
        rng = random.Random(seed)
        graph = space.graph
        for i in range(count):
            targets = [_random_vertex(rng, graph) for _ in range(1 + i % 2)]
            sources = [_random_vertex(rng, graph) for _ in range(1 + i % 3)]
            sources = [s for s in sources if s not in targets]
            costs = SearchCosts() if i % 2 else SearchCosts(3, 40)
            yield rng, sorted(set(targets)), sources, costs

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("truncated", [False, True])
    def test_pi_equal_on_every_open_vertex(self, soup_space, mode, truncated):
        graph = soup_space.graph
        seed = 41 + 2 * self.MODES.index(mode) + truncated
        for rng, targets, sources, costs in self._instances(soup_space, seed, 4):
            stops = sources if truncated else ()
            state = rng.getstate()
            ref_view = self._view(soup_space, targets + sources, mode, rng)
            rng.setstate(state)
            view = self._view(soup_space, targets + sources, mode, rng)
            ref_pi, _dist = _reference_pi_gr(graph, targets, costs, ref_view, stops)
            pi = FutureCostGR(graph, targets, costs, view, stop_vertices=stops)
            # Same lazy decomposition order, so the same interval indices.
            assert _interval_sequence(view) == _interval_sequence(ref_view)
            for vertex in _open_vertices(view):
                assert pi(vertex) == ref_pi(vertex), vertex

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("truncated", [False, True])
    def test_known_distances_dominate_pi_h(self, soup_space, mode, truncated):
        graph = soup_space.graph
        seed = 51 + 2 * self.MODES.index(mode) + truncated
        for rng, targets, sources, costs in self._instances(soup_space, seed, 4):
            view = self._view(soup_space, targets + sources, mode, rng)
            pi = FutureCostGR(graph, targets, costs, view,
                              stop_vertices=sources if truncated else ())
            pi_h = FutureCostH(graph, targets, costs)
            assert pi._dist
            for vertex, d in pi._dist.items():
                assert d >= pi_h(vertex), vertex

    def test_pi_h_equals_position_based_bound(self, space):
        graph = space.graph
        rng = random.Random(61)
        for i in range(6):
            targets = [_random_vertex(rng, graph) for _ in range(1 + 2 * i)]
            costs = SearchCosts() if i % 2 else SearchCosts(3, 40)
            pi = FutureCostH(graph, targets, costs)
            reference = _reference_pi_h(graph, targets, costs)
            for z in graph.stack.indices:
                for t in range(len(graph.tracks[z])):
                    for c in range(len(graph.crosses[z])):
                        assert pi((z, t, c)) == reference((z, t, c))


if __name__ == "__main__":
    golden_space = make_space()
    blocks = []
    for name, seed, count, search, pi, ripup in GOLDEN_SETS:
        entry = {"name": name, "seed": seed, "count": count,
                 "search": search, "pi": pi, "ripup": ripup}
        lines = [
            json.dumps({"s": s, "t": t,
                        "answer": solve_golden(golden_space, s, t, entry)},
                       separators=(",", ":"))
            for s, t in golden_instances(golden_space, seed, count)
        ]
        head = json.dumps(entry, separators=(",", ":"))[:-1]
        blocks.append(head + ',"cases":[\n' + ",\n".join(lines) + "\n]}")
    with open(GOLDEN_FIXTURE, "w") as fh:
        fh.write('{"sets": [\n' + ",\n".join(blocks) + "\n]}\n")
    print(f"wrote {len(blocks)} sets to {GOLDEN_FIXTURE}")
