"""The Alg 1 oracle against a verbatim copy of its AddressableHeap version.

The oracle's Dijkstra reads a shared adjacency table of usable edges,
has no potential, runs on a :class:`repro.util.heap.StateHeap` and
prices edges through a spacing-search memo.  None of that may change a
result: over seeded random small chips, random log-prices, capacities
forced to 0, multi-node terminals and an ISR-style 2D shim graph, the
edges, extra spaces, cost and label count must equal the reference's
(run at zero potential) exactly.
"""

import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import pytest

from repro.baseline.isr_global import _Grid2D
from repro.chip.generator import ChipSpec, generate_chip
from repro.grid.tracks import build_track_plan
from repro.groute.capacity import estimate_capacities
from repro.groute.graph import GlobalRoutingGraph
from repro.groute.resources import ResourceModel
from repro.groute.sharing import ResourceSharingSolver
from repro.groute.steiner_oracle import OracleResult, path_composition_steiner_tree
from repro.util.heap import AddressableHeap

INFINITY = float("inf")
TRIALS = 30


# ----------------------------------------------------------------------
# Reference: the oracle as it was before the adjacency table, the
# removal of the goal-orientation potential and the StateHeap frontier
# (verbatim).
# ----------------------------------------------------------------------
def _terminal_potential(graph, other_terminals, scale):
    boxes: List[Tuple[int, int, int, int]] = []
    for terminal in other_terminals:
        xs: List[int] = []
        ys: List[int] = []
        for node in terminal:
            cx, cy = graph.node_center(node)
            xs.append(cx)
            ys.append(cy)
        if xs:
            boxes.append((min(xs), min(ys), max(xs), max(ys)))

    def potential(node) -> float:
        if not boxes or scale <= 0:
            return 0.0
        x, y = graph.node_center(node)
        best = INFINITY
        for x_lo, y_lo, x_hi, y_hi in boxes:
            dx = max(x_lo - x, 0, x - x_hi)
            dy = max(y_lo - y, 0, y - y_hi)
            if dx + dy < best:
                best = dx + dy
        return best * scale

    return potential


def reference_shortest_component_path(
    graph,
    net_name,
    sources,
    targets,
    edge_cost,
    potential_scale=0.0,
    free_edges=None,
    extra_potential=None,
):
    l1_pi = _terminal_potential(graph, [targets], potential_scale)
    if extra_potential is None:
        pi = l1_pi
    else:
        def pi(node) -> float:
            return max(l1_pi(node), extra_potential(node))
    heap = AddressableHeap()
    dist: Dict = {}
    parent: Dict = {}
    labels = 0
    for node in sources:
        d = pi(node)
        if d < dist.get(node, INFINITY):
            dist[node] = d
            parent[node] = None
            heap.push(node, d)
            labels += 1
    settled: Set = set()
    while heap:
        node, d = heap.pop()
        if node in settled:
            continue
        settled.add(node)
        if node in targets:
            path = [node]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            path.reverse()
            return path, d, labels
        for neighbour, edge in graph.neighbors(node):
            if graph.capacity(edge) <= 0 and not (
                free_edges and edge in free_edges
            ):
                continue
            if free_edges and edge in free_edges:
                cost = 0.0
            else:
                cost, _s = edge_cost(net_name, edge)
            nd = d - pi(node) + cost + pi(neighbour)
            if nd < dist.get(neighbour, INFINITY) - 1e-12:
                dist[neighbour] = nd
                parent[neighbour] = node
                heap.push(neighbour, nd)
                labels += 1
    return None


def reference_steiner_tree(
    graph,
    net_name,
    terminals,
    edge_cost,
    potential_scale=0.0,
    potential_factory=None,
):
    live_terminals = [set(t) for t in terminals if t]
    if len(live_terminals) <= 1:
        return OracleResult(set(), {}, 0.0, 0)
    tree_nodes: Set = set(live_terminals[0])
    tree_edges: Set = set()
    extra_space: Dict = {}
    remaining = live_terminals[1:]
    total_cost = 0.0
    total_labels = 0
    while remaining:
        target_union: Set = set()
        owner: Dict = {}
        for index, terminal in enumerate(remaining):
            for node in terminal:
                target_union.add(node)
                owner[node] = index
        extra = (
            potential_factory(target_union)
            if potential_factory is not None
            else None
        )
        found = reference_shortest_component_path(
            graph,
            net_name,
            tree_nodes,
            target_union,
            edge_cost,
            potential_scale,
            free_edges=tree_edges,
            extra_potential=extra,
        )
        if found is None:
            return None
        path, cost, labels = found
        total_labels += labels
        total_cost += cost
        for a, b in zip(path, path[1:]):
            edge = (a, b) if a < b else (b, a)
            if edge not in tree_edges:
                tree_edges.add(edge)
                price, s_star = edge_cost(net_name, edge)
                extra_space[edge] = s_star
            tree_nodes.add(a)
            tree_nodes.add(b)
        reached = owner[path[-1]]
        tree_nodes |= remaining[reached]
        del remaining[reached]
    return OracleResult(tree_edges, extra_space, total_cost, total_labels)


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------
def _fingerprint(result: Optional[OracleResult]):
    if result is None:
        return None
    return (
        sorted(result.edges),
        sorted((edge, s.hex()) for edge, s in result.extra_space.items()),
        result.cost.hex(),
        result.dijkstra_labels,
    )


def _chip(seed: int):
    rng = random.Random(seed)
    chip = generate_chip(
        ChipSpec(
            f"oracle{seed}", rows=rng.choice((2, 3)),
            row_width_cells=rng.choice((5, 6)), net_count=10, seed=seed,
            wide_net_fraction=0.3,
        )
    )
    graph = GlobalRoutingGraph(chip)
    estimate_capacities(graph, build_track_plan(chip))
    # Force some capacities to 0: those edges are unusable (and absent
    # from the oracle's adjacency table).
    for edge in rng.sample(sorted(graph.capacities), len(graph.capacities) // 8):
        graph.capacities[edge] = 0.0
    return chip, graph


def _random_terminals(rng: random.Random, nodes: Sequence) -> List[Set]:
    return [
        set(rng.sample(nodes, rng.randint(1, 3)))
        for _ in range(rng.randint(2, 5))
    ]


def _reference_edge_cost(solver: ResourceSharingSolver) -> Callable:
    """The sharing edge cost without the (net, edge) and spacing memos."""
    global_prices = solver._global_prices()

    def edge_cost(net_name, edge):
        return solver.model.priced_edge_cost(
            net_name, edge, math.exp(solver._log_price.get(edge, 0.0)),
            global_prices,
        )

    return edge_cost


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_matches_reference_on_priced_graph(seed):
    chip, graph = _chip(seed)
    rng = random.Random(100 + seed)
    nodes = list(graph.nodes())
    nets = list(chip.nets)
    model = ResourceModel(graph, nets)
    # One adjacency table for every call: the capacities stay fixed.
    adjacency: Dict = {}
    compared = 0
    for trial in range(40):
        log_prices = {
            edge: rng.uniform(0.0, 6.0)
            for edge in rng.sample(sorted(graph.capacities), 40)
        }
        for name in model.bounds:
            log_prices[name] = rng.uniform(0.0, 3.0)
        solver = ResourceSharingSolver(graph, model, initial_log_prices=log_prices)
        edge_cost, _memo, _spacing = solver._edge_cost_fn()
        net = rng.choice(nets)
        if trial % 2:
            terminals = _random_terminals(rng, nodes)
        else:
            terminals = graph.net_terminals(net)
        expected = reference_steiner_tree(
            graph, net.name, terminals, _reference_edge_cost(solver)
        )
        got = path_composition_steiner_tree(
            graph, net.name, terminals, edge_cost, adjacency=adjacency
        )
        assert _fingerprint(got) == _fingerprint(expected)
        compared += expected is not None and bool(expected.edges)
    assert compared > 10


@pytest.mark.parametrize("seed", [4, 5])
def test_oracle_matches_reference_on_isr_shim(seed):
    _chip_obj, graph = _chip(seed)
    rng = random.Random(200 + seed)
    grid = _Grid2D(graph)
    # Few distinct costs: many equal keys in the heap.
    history = {edge: rng.choice((0.0, 0.0, 1.0, 2.0)) for edge in grid.capacity}
    usage = {edge: rng.choice((0.0, 0.0, 0.0, 50.0)) for edge in grid.capacity}

    class Shim:
        """ISR-style 2D graph protocol (see IsrGlobalRouter._route_2d)."""

        tile_size = graph.tile_size

        @staticmethod
        def neighbors(node):
            for other, edge in grid.neighbors(node):
                yield other, edge

        @staticmethod
        def capacity(edge):
            return grid.capacity.get(edge, 0.0)

        @staticmethod
        def node_center(node):
            return graph.tile_center(node[0], node[1])

        @staticmethod
        def edge_length(edge):
            return grid.edge_length(edge)

    def edge_cost(_net_name, edge):
        length = grid.edge_length(edge)
        capacity = max(grid.capacity.get(edge, 0.0), 1e-9)
        used = usage.get(edge, 0.0)
        present = 1.0
        if used >= capacity:
            present = 2.0 * (1.0 + used - capacity)
        return length * (1.0 + history.get(edge, 0.0)) * present, 0.0

    nodes = [(tx, ty) for tx in range(graph.nx) for ty in range(graph.ny)]
    for _trial in range(TRIALS):
        terminals = _random_terminals(rng, nodes)
        expected = reference_steiner_tree(Shim, "n", terminals, edge_cost)
        got = path_composition_steiner_tree(Shim, "n", terminals, edge_cost)
        assert _fingerprint(got) == _fingerprint(expected)
