"""Randomized rounding and rip-up-and-reroute (Sec. 2.4).

The fractional solution gives each net a convex combination of Steiner
forests; rounding picks one per net independently with probability
x_{n, b} (Raghavan-Thompson).  The few resulting capacity violations are
repaired in two stages:

1. *rechoosing*: nets on over-utilized edges switch to an alternative
   solution from their fractional support if that lowers the overflow;
2. *rerouting*: for the remaining violations, fresh oracle routes are
   computed with over-utilized edges heavily priced (the paper saw at
   most five such fresh routes per chip).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.chip.net import Net
from repro.groute.graph import Edge, GlobalRoute, GlobalRoutingGraph
from repro.groute.resources import ResourceModel
from repro.groute.sharing import FractionalSolution, SolutionKey
from repro.groute.steiner_oracle import path_composition_steiner_tree
from repro.util.rng import make_rng, weighted_choice

#: Stage-1 repair passes (rechoosing from the fractional support) before
#: the fresh reroutes of stage 2.
MAX_RECHOOSE_PASSES = 3


class RoundingStats:
    def __init__(self) -> None:
        self.rechosen_nets = 0
        self.fresh_reroutes = 0
        self.initial_violations = 0
        self.final_violations = 0
        #: Faults absorbed during rounding; the affected nets fell back
        #: to their best-weight fractional solution deterministically.
        self.rounding_faults = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "rechosen_nets": self.rechosen_nets,
            "fresh_reroutes": self.fresh_reroutes,
            "initial_violations": self.initial_violations,
            "final_violations": self.final_violations,
            "rounding_faults": self.rounding_faults,
        }


def _route_from_key(net_name: str, key: SolutionKey) -> GlobalRoute:
    edges, spaces = key
    return GlobalRoute(net_name, set(edges), dict(zip(edges, spaces)))


class RoundingPostprocessor:
    """Rounding + overflow repair over one fractional solution."""

    def __init__(
        self,
        graph: GlobalRoutingGraph,
        model: ResourceModel,
        seed: Optional[int] = None,
        fault_injector=None,
    ) -> None:
        self.graph = graph
        self.model = model
        self.rng = make_rng(seed)
        self.stats = RoundingStats()
        #: Optional :class:`repro.flow.faults.FaultInjector` probed at the
        #: "rounding" site per net.
        self.fault_injector = fault_injector

    # ------------------------------------------------------------------
    # Edge loads
    # ------------------------------------------------------------------
    def _edge_load(
        self, routes: Dict[str, GlobalRoute]
    ) -> Dict[Edge, float]:
        load: Dict[Edge, float] = {}
        for route in routes.values():
            width = self.model.net_width(route.net_name)
            for edge in route.edges:
                s = route.extra_space.get(edge, 0.0)
                load[edge] = load.get(edge, 0.0) + width + s
        return load

    def violations(self, routes: Dict[str, GlobalRoute]) -> Dict[Edge, float]:
        load = self._edge_load(routes)
        return {
            edge: used - self.graph.capacity(edge)
            for edge, used in load.items()
            if used > self.graph.capacity(edge) + 1e-9
        }

    # ------------------------------------------------------------------
    # Rounding
    # ------------------------------------------------------------------
    def round(self, solution: FractionalSolution) -> Dict[str, GlobalRoute]:
        routes: Dict[str, GlobalRoute] = {}
        for net_name, weights in solution.weights.items():
            keys = list(weights)
            probabilities = [weights[key] for key in keys]
            index = weighted_choice(self.rng, probabilities)
            try:
                if self.fault_injector is not None:
                    self.fault_injector.check("rounding", net=net_name)
            except Exception:  # noqa: BLE001 - per-net isolation
                # Deterministic degraded mode: skip the random draw and
                # take the heaviest-weight solution (the RNG was already
                # advanced above, so the other nets' draws are unchanged).
                self.stats.rounding_faults += 1
                index = max(range(len(keys)), key=lambda i: probabilities[i])
            routes[net_name] = _route_from_key(net_name, keys[index])
        return routes

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def repair(
        self,
        routes: Dict[str, GlobalRoute],
        solution: FractionalSolution,
        nets: Sequence[Net],
    ) -> Dict[str, GlobalRoute]:
        self.stats.initial_violations = len(self.violations(routes))
        nets_by_name = {net.name: net for net in nets}
        # Stage 1: rechoose from the fractional support.
        for _pass in range(MAX_RECHOOSE_PASSES):
            violated = self.violations(routes)
            if not violated:
                break
            changed = False
            overflow_edges = set(violated)
            for net_name, route in sorted(routes.items()):
                touching = route.edges & overflow_edges
                if not touching:
                    continue
                best_key = None
                best_gain = 0.0
                current_overflow = self._route_overflow(routes, net_name, route)
                for key, _weight in solution.support(net_name):
                    candidate = _route_from_key(net_name, key)
                    if candidate.edges == route.edges:
                        continue
                    overflow = self._route_overflow(routes, net_name, candidate)
                    gain = current_overflow - overflow
                    if gain > best_gain + 1e-12:
                        best_gain = gain
                        best_key = key
                if best_key is not None:
                    routes[net_name] = _route_from_key(net_name, best_key)
                    self.stats.rechosen_nets += 1
                    changed = True
                    overflow_edges = set(self.violations(routes))
                    if not overflow_edges:
                        break
            if not changed:
                break
        # Stage 2: fresh reroutes around remaining overflows.
        violated = self.violations(routes)
        if violated:
            for net_name, route in sorted(routes.items()):
                if not (route.edges & set(violated)):
                    continue
                fresh = self._fresh_route(nets_by_name.get(net_name), violated)
                if fresh is not None:
                    routes[net_name] = fresh
                    self.stats.fresh_reroutes += 1
                violated = self.violations(routes)
                if not violated:
                    break
        self.stats.final_violations = len(self.violations(routes))
        return routes

    def _route_overflow(
        self,
        routes: Dict[str, GlobalRoute],
        net_name: str,
        candidate: GlobalRoute,
    ) -> float:
        """Total overflow if ``net_name`` used ``candidate``."""
        load = self._edge_load(
            {name: r for name, r in routes.items() if name != net_name}
        )
        width = self.model.net_width(net_name)
        total = 0.0
        for edge, used in load.items():
            extra = width + candidate.extra_space.get(edge, 0.0) if edge in candidate.edges else 0.0
            over = used + extra - self.graph.capacity(edge)
            if over > 1e-9:
                total += over
        for edge in candidate.edges:
            if edge not in load:
                over = width + candidate.extra_space.get(edge, 0.0) - self.graph.capacity(edge)
                if over > 1e-9:
                    total += over
        return total

    def _fresh_route(
        self, net: Optional[Net], violated: Dict[Edge, float]
    ) -> Optional[GlobalRoute]:
        if net is None:
            return None
        penalty = 1000.0

        def edge_cost(net_name: str, edge: Edge) -> Tuple[float, float]:
            length = max(self.graph.edge_length(edge), self.graph.tile_size // 4)
            cost = float(length)
            if edge in violated:
                cost += penalty * self.graph.tile_size
            return cost, 0.0

        result = path_composition_steiner_tree(
            self.graph, net.name, self.graph.net_terminals(net), edge_cost
        )
        if result is None:
            return None
        return GlobalRoute(net.name, result.edges, result.extra_space)
