"""The block oracle: Steiner trees in the priced global routing graph.

Algorithm 1 (path composition): repeatedly connect a component of the
partial tree to the rest by a shortest path; approximation ratio
2 - 2/|W|, much better in practice (Sec. 5.3, Table II).  The shortest
path subroutine is Dijkstra.  Goal orientation is optional and off by
default: an l1 potential towards the remaining terminals
(``potential_scale`` > 0, the "variant of goal-orientation with
landmarks" reduced to its geometric core) and landmark potentials
(``potential_factory``) are available, but every production caller
passes neither, and the search then skips the potential entirely.

Terminals are pin vertex *sets* V_p; the clique K(V_p) of Sec. 2.1 is
realized by seeding every vertex of a terminal with distance 0.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.groute.graph import Edge, GlobalRoutingGraph, Node
from repro.util.heap import StateHeap

INFINITY = float("inf")

#: Cost function: (net_name, edge) -> (priced cost, optimal extra space).
EdgeCost = Callable[[str, Edge], Tuple[float, float]]

#: node -> its neighbours in ``graph.neighbors()`` order, keeping only
#: those across an edge of positive capacity.  Valid while the
#: capacities do not change.  The edges are rebuilt in canonical form
#: while relaxing: storing them doubles the table (+1.4 MB on a
#: 1000-net chip).
Adjacency = Dict[Node, Tuple[Node, ...]]


class OracleResult:
    """A Steiner forest for one net with extra space per edge."""

    __slots__ = ("edges", "extra_space", "cost", "dijkstra_labels")

    def __init__(
        self,
        edges: Set[Edge],
        extra_space: Dict[Edge, float],
        cost: float,
        dijkstra_labels: int,
    ) -> None:
        self.edges = edges
        self.extra_space = extra_space
        self.cost = cost
        self.dijkstra_labels = dijkstra_labels


def _terminal_potential(
    graph: GlobalRoutingGraph,
    other_terminals: Sequence[Set[Node]],
    scale: float,
) -> Callable[[Node], float]:
    """Admissible l1 lower bound to the nearest remaining terminal.

    ``scale`` converts tile-center dbu distances into priced cost lower
    bounds; it must under-estimate the per-length price, so we use the
    caller-provided minimum price per unit length (0 disables goal
    orientation safely).
    """
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

    def potential(node: Node) -> float:
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


def shortest_component_path(
    graph: GlobalRoutingGraph,
    net_name: str,
    sources: Set[Node],
    targets: Set[Node],
    edge_cost: EdgeCost,
    potential_scale: float = 0.0,
    free_edges: Optional[Set[Edge]] = None,
    extra_potential: Optional[Callable[[Node], float]] = None,
    adjacency: Optional[Adjacency] = None,
) -> Optional[Tuple[List[Node], float, int]]:
    """Dijkstra (optionally goal-oriented) from a component to the
    nearest target set.

    ``free_edges`` traverse at zero cost (edges already in the tree);
    each must have positive capacity, as every edge of an earlier path
    has.  ``extra_potential`` is an
    additional admissible consistent potential (e.g. landmark bounds,
    Sec. 2.2); the maximum of two admissible consistent potentials is
    again admissible and consistent.  ``adjacency`` is the table of
    usable edges (:data:`Adjacency`), filled here as nodes are settled;
    it may be shared by calls on the same graph and capacities.
    Returns (node path, cost, labels) or None.
    """
    if adjacency is None:
        adjacency = {}
    if free_edges is None:
        free_edges = set()
    if potential_scale <= 0 and extra_potential is None:
        # Every potential is 0.0, and d - 0.0 + cost + 0.0 == d + cost.
        pi = None
    else:
        l1_pi = _terminal_potential(graph, [targets], potential_scale)
        if extra_potential is None:
            pi = l1_pi
        else:
            def pi(node: Node) -> float:
                return max(l1_pi(node), extra_potential(node))
    heap = StateHeap()
    push, pop = heap.push, heap.pop
    dist: Dict[Node, float] = {}
    parent: Dict[Node, Optional[Node]] = {}
    labels = 0
    for node in sources:
        d = 0.0 if pi is None else pi(node)
        if d < dist.get(node, INFINITY):
            dist[node] = d
            parent[node] = None
            push(node, d, False)
            labels += 1
    settled: Set[Node] = set()
    # Settled nodes pushed again (an inconsistent potential can lower a
    # settled label): they sit in the heap until popped and skipped.
    reopened: Set[Node] = set()
    capacity = graph.capacity
    while heap.items:
        node, d = pop()
        if node in settled:
            reopened.discard(node)
            continue
        settled.add(node)
        if node in targets:
            path = [node]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            path.reverse()
            return path, d, labels
        row = adjacency.get(node)
        if row is None:
            # Drop exactly the edges the search may not use.
            row = adjacency[node] = tuple(
                neighbour
                for neighbour, edge in graph.neighbors(node)
                if not capacity(edge) <= 0
            )
        if pi is not None:
            reduced = d - pi(node)
        for neighbour in row:
            edge = (node, neighbour) if node < neighbour else (neighbour, node)
            if edge in free_edges:
                cost = 0.0
            else:
                cost = edge_cost(net_name, edge)[0]
            if pi is None:
                nd = d + cost
            else:
                nd = reduced + cost + pi(neighbour)
            old = dist.get(neighbour, INFINITY)
            if nd < old - 1e-12:
                dist[neighbour] = nd
                parent[neighbour] = node
                if neighbour in settled:
                    queued = neighbour in reopened
                    reopened.add(neighbour)
                else:
                    queued = old != INFINITY
                push(neighbour, nd, queued)
                labels += 1
    return None


def path_composition_steiner_tree(
    graph: GlobalRoutingGraph,
    net_name: str,
    terminals: Sequence[Set[Node]],
    edge_cost: EdgeCost,
    potential_scale: float = 0.0,
    potential_factory: Optional[
        Callable[[Set[Node]], Callable[[Node], float]]
    ] = None,
    adjacency: Optional[Adjacency] = None,
) -> Optional[OracleResult]:
    """Algorithm 1: grow a tree by shortest component-to-rest paths.

    ``potential_factory`` builds an extra admissible potential for each
    target set (landmark goal orientation, Sec. 2.2).  ``adjacency`` is
    a table shared with other calls on the same graph and capacities
    (see :func:`shortest_component_path`); by default each call fills
    its own.
    """
    if adjacency is None:
        adjacency = {}
    live_terminals = [set(t) for t in terminals if t]
    if len(live_terminals) <= 1:
        return OracleResult(set(), {}, 0.0, 0)
    tree_nodes: Set[Node] = set(live_terminals[0])
    tree_edges: Set[Edge] = set()
    extra_space: Dict[Edge, float] = {}
    remaining = live_terminals[1:]
    total_cost = 0.0
    total_labels = 0
    while remaining:
        target_union: Set[Node] = set()
        owner: Dict[Node, int] = {}
        for index, terminal in enumerate(remaining):
            for node in terminal:
                target_union.add(node)
                owner[node] = index
        extra = (
            potential_factory(target_union)
            if potential_factory is not None
            else None
        )
        found = shortest_component_path(
            graph,
            net_name,
            tree_nodes,
            target_union,
            edge_cost,
            potential_scale,
            free_edges=tree_edges,
            extra_potential=extra,
            adjacency=adjacency,
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
