"""The block oracle: Steiner trees in the priced global routing graph.

Algorithm 1 (path composition): repeatedly connect a component of the
partial tree to the rest by a shortest path; approximation ratio
2 - 2/|W|, much better in practice (Sec. 5.3, Table II).  The shortest
path subroutine is plain Dijkstra.  The paper's goal orientation
(Sec. 2.2) is not used: on a 1000-net chip it made global routing
slower at identical routes (docs/PERFORMANCE.md, Sec. 9).

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


def shortest_component_path(
    graph: GlobalRoutingGraph,
    net_name: str,
    sources: Set[Node],
    targets: Set[Node],
    edge_cost: EdgeCost,
    free_edges: Optional[Set[Edge]] = None,
    adjacency: Optional[Adjacency] = None,
) -> Optional[Tuple[List[Node], float, int]]:
    """Dijkstra from a component to the nearest target set.

    ``free_edges`` traverse at zero cost (edges already in the tree);
    each must have positive capacity, as every edge of an earlier path
    has.  ``adjacency`` is the table of usable edges
    (:data:`Adjacency`), filled here as nodes are settled; it may be
    shared by calls on the same graph and capacities.
    Returns (node path, cost, labels) or None.
    """
    if adjacency is None:
        adjacency = {}
    if free_edges is None:
        free_edges = set()
    heap = StateHeap()
    push, pop = heap.push, heap.pop
    dist: Dict[Node, float] = {}
    parent: Dict[Node, Optional[Node]] = {}
    labels = 0
    for node in sources:
        dist[node] = 0.0
        parent[node] = None
        push(node, 0.0, False)
        labels += 1
    # Costs are non-negative, so a settled node is never relabelled.
    settled: Set[Node] = set()
    capacity = graph.capacity
    while heap.items:
        node, d = pop()
        if node in settled:
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
        for neighbour in row:
            edge = (node, neighbour) if node < neighbour else (neighbour, node)
            if edge in free_edges:
                cost = 0.0
            else:
                cost = edge_cost(net_name, edge)[0]
            nd = d + cost
            old = dist.get(neighbour, INFINITY)
            if nd < old - 1e-12:
                dist[neighbour] = nd
                parent[neighbour] = node
                push(neighbour, nd, old != INFINITY)
                labels += 1
    return None


def path_composition_steiner_tree(
    graph: GlobalRoutingGraph,
    net_name: str,
    terminals: Sequence[Set[Node]],
    edge_cost: EdgeCost,
    adjacency: Optional[Adjacency] = None,
) -> Optional[OracleResult]:
    """Algorithm 1: grow a tree by shortest component-to-rest paths.

    ``adjacency`` is a table shared with other calls on the same graph
    and capacities (see :func:`shortest_component_path`); by default
    each call fills its own.
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
        found = shortest_component_path(
            graph,
            net_name,
            tree_nodes,
            target_union,
            edge_cost,
            free_edges=tree_edges,
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
