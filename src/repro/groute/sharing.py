"""Min-max resource sharing (Sec. 2.3, Algorithm 2).

The Mueller-Radke-Vygen multiplicative-weights scheme: in each of t
phases, every net gets a solution from the block oracle under current
resource prices; prices grow exponentially with usage
(y_r *= exp(eps * g_n^r(b))).  The average over phases is the fractional
solution; with t = ceil(96 ln|R| / omega^2) and eps = omega/12 it is a
sigma(1 + omega)-approximation (Thm 2.2).  In practice t = 125 and
eps = 1 work well (Sec. 2.3); t is a parameter here, eps the constant
:data:`EPSILON`.

Speed-ups from the paper implemented:

* *solution reuse*: the oracle is skipped when the previous solution's
  cost under current prices is still within a factor of its original
  cost (the resources it uses have not become much more expensive);
* prices are maintained as logarithms to avoid overflow with large t.

``threads`` > 1 simulates the shared-memory parallel resource sharing of
Sec. 5.1: several threads run oracles against the *same* prices, which
are stale by up to one block of concurrent work.  Mueller et al. [2011]
prove the volatility-tolerant block solvers keep the approximation
guarantee.  The simulation reproduces the staleness deterministically:
each phase walks the nets in blocks of ``threads``; every oracle of a
block sees one price snapshot, and the block's price updates are
applied only after it completes.  A block of one net is the serial
algorithm.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chip.net import Net
from repro.groute.graph import Edge, GlobalRoutingGraph
from repro.groute.resources import ResourceModel, SpacingMemo
from repro.obs import OBS
from repro.groute.steiner_oracle import (
    Adjacency,
    OracleResult,
    path_composition_steiner_tree,
)

#: Price growth rate eps of Algorithm 2 (Sec. 2.3).
EPSILON = 1.0

#: Scaling framework (Sec. 2.3): the probe congestion range that ends the
#: rescaling, and the most probes run before the full solve.
SCALING_TARGET = (0.4, 1.05)
SCALING_MAX_ROUNDS = 4

#: One candidate solution of a net: frozen edge set + extra space tuple.
SolutionKey = Tuple[Tuple[Edge, ...], Tuple[float, ...]]

#: A solution's resource usage: (edge usage g_{r(e)}, global usage g_r).
Usages = Tuple[Dict[Edge, float], Dict[str, float]]


def _solution_key(result: OracleResult) -> SolutionKey:
    edges = tuple(sorted(result.edges))
    spaces = tuple(result.extra_space.get(edge, 0.0) for edge in edges)
    return (edges, spaces)


class FractionalSolution:
    """Convex combinations x_{n, b} per net plus the final prices."""

    def __init__(self) -> None:
        #: net -> {solution key -> weight}; weights per net sum to 1.
        self.weights: Dict[str, Dict[SolutionKey, float]] = {}
        self.prices: Dict[object, float] = {}
        self.phases_run = 0
        self.oracle_calls = 0
        self.oracle_reuses = 0
        self.oracle_time = 0.0
        self.max_congestion = 0.0
        #: Oracle invocations that raised and were absorbed (the net
        #: simply gets no solution this phase).
        self.oracle_faults = 0
        #: Set when a stage deadline cut the phase loop short; the
        #: averaged solution over the phases run so far is still valid.
        self.deadline_hit = False

    def support(self, net_name: str) -> List[Tuple[SolutionKey, float]]:
        return sorted(
            self.weights.get(net_name, {}).items(), key=lambda kv: -kv[1]
        )


class ResourceSharingSolver:
    """Algorithm 2 over the global routing graph."""

    #: Reuse the previous solution while its current-price cost is
    #: below reuse_threshold x its cost when it was computed.
    reuse_threshold = 1.5

    def __init__(
        self,
        graph: GlobalRoutingGraph,
        model: ResourceModel,
        phases: int = 125,
        threads: int = 1,
        fault_injector=None,
        initial_log_prices: Optional[Dict[object, float]] = None,
    ) -> None:
        self.graph = graph
        self.model = model
        self.phases = phases
        #: Nets per block sharing one price snapshot (Sec. 5.1).
        self.threads = max(threads, 1)
        #: Optional :class:`repro.flow.faults.FaultInjector` probed at the
        #: "steiner_oracle" site before each oracle call.
        self.fault_injector = fault_injector
        # Log-prices: resource -> ln(y_r); edges keyed by Edge, globals by
        # name.  Initialized to ln(1) = 0 (Algorithm 2, line 1), or to a
        # previous run's final duals for warm-started incremental solves —
        # the old prices already encode where the chip is congested, so
        # far fewer phases reach a good average.
        self._log_price: Dict[object, float] = dict(initial_log_prices or {})

    # ------------------------------------------------------------------
    # Prices
    # ------------------------------------------------------------------
    def _global_prices(self) -> Dict[str, float]:
        out = {}
        for name, bound in self.model.bounds.items():
            out[name] = math.exp(self._log_price.get(name, 0.0)) / bound
        return out

    def _edge_cost_fn(self):
        """The oracle's edge cost under the current prices, and its memos.

        Prices stay fixed for the closure's lifetime (one block of
        :meth:`solve`), so each (net, edge) price is computed once, and
        each spacing search once per (space price, length)
        (:data:`SpacingMemo`).
        ``len(memo)`` counts the prices computed and ``len(spacing)``
        the searches run.  The price key holds the net because a
        block's closure serves several nets.
        """
        global_prices = self._global_prices()
        log_price = self._log_price
        priced_edge_cost = self.model.priced_edge_cost
        exp = math.exp
        memo: Dict[Tuple[str, Edge], Tuple[float, float]] = {}
        spacing: SpacingMemo = {}

        def edge_cost(net_name: str, edge: Edge) -> Tuple[float, float]:
            key = (net_name, edge)
            cost = memo.get(key)
            if cost is None:
                cost = memo[key] = priced_edge_cost(
                    net_name, edge, exp(log_price.get(edge, 0.0)),
                    global_prices, spacing,
                )
            return cost

        return edge_cost, memo, spacing

    # ------------------------------------------------------------------
    # Resource usage g_n^r(b)
    # ------------------------------------------------------------------
    def _usages(self, net_name: str, key: SolutionKey) -> Usages:
        """(edge usage g_{r(e)}, global usage g_r) of one solution."""
        edges, spaces = key
        edge_usage: Dict[Edge, float] = {}
        global_usage: Dict[str, float] = {}
        for edge, s in zip(edges, spaces):
            capacity = max(self.graph.capacity(edge), 1e-9)
            usage = self.model.edge_usage(net_name, edge, s)
            edge_usage[edge] = usage["space"] / capacity
            for name, value in usage.items():
                if name == "space":
                    continue
                bound = self.model.bounds.get(name)
                if bound:
                    global_usage[name] = (
                        global_usage.get(name, 0.0) + value / bound
                    )
        return edge_usage, global_usage

    def _solution_price(self, usages: Usages) -> float:
        """sum_r y_r g_n^r(b) under current prices, from :meth:`_usages`."""
        edge_usage, global_usage = usages
        total = 0.0
        for edge, usage in edge_usage.items():
            total += math.exp(self._log_price.get(edge, 0.0)) * usage
        for name, usage in global_usage.items():
            total += math.exp(self._log_price.get(name, 0.0)) * usage
        return total

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def solve(self, nets: Sequence[Net], deadline=None) -> FractionalSolution:
        solution = FractionalSolution()
        counts: Dict[str, Dict[SolutionKey, int]] = {net.name: {} for net in nets}
        terminals = {
            net.name: self.graph.net_terminals(net) for net in nets
        }
        #: net -> (its last oracle solution, that solution's usages and
        #: its price when computed).  Usages depend only on capacities
        #: and bounds, which a solve does not change, so each solution's
        #: are computed once and serve the reuse checks and the price
        #: updates of later phases.
        previous: Dict[str, Tuple[SolutionKey, Usages, float]] = {}
        #: Running resource-usage totals for the per-phase lambda estimate
        #: (sum over all recorded solutions; dividing by phases_run gives
        #: the congestion of the running average).  Maintained only while
        #: observability is on.
        running_usage: Dict[object, float] = {}
        #: One adjacency table for the whole solve: capacities do not
        #: change inside it.
        adjacency: Adjacency = {}
        for _phase in range(self.phases):
            if deadline is not None and deadline.expired:
                # Degrade gracefully: average over the phases completed
                # so far instead of aborting the stage.
                solution.deadline_hit = True
                if OBS.enabled:
                    OBS.event("sharing.deadline_hit", phase=solution.phases_run)
                break
            solution.phases_run += 1
            for block_start in range(0, len(nets), self.threads):
                # One price snapshot for the whole block (the concurrent
                # reads), taken at its first oracle call.
                edge_cost = None
                block_usages: List[Usages] = []
                for net in nets[block_start:block_start + self.threads]:
                    key = None
                    cached = previous.get(net.name)
                    if cached is not None:
                        cached_key, usages, cached_cost = cached
                        current_cost = self._solution_price(usages)
                        if current_cost <= self.reuse_threshold * cached_cost:
                            key = cached_key
                            solution.oracle_reuses += 1
                    if key is None:
                        if edge_cost is None:
                            edge_cost, prices_computed, searches = (
                                self._edge_cost_fn()
                            )
                        start = time.time()
                        try:
                            if self.fault_injector is not None:
                                self.fault_injector.check(
                                    "steiner_oracle", net=net.name
                                )
                            result = path_composition_steiner_tree(
                                self.graph,
                                net.name,
                                terminals[net.name],
                                edge_cost,
                                adjacency=adjacency,
                            )
                        except Exception:  # noqa: BLE001 - per-net isolation
                            # A faulting oracle costs the net one phase;
                            # the remaining phases (and its cached
                            # solution, if any) still contribute to the
                            # average.
                            solution.oracle_faults += 1
                            result = None
                        solution.oracle_time += time.time() - start
                        solution.oracle_calls += 1
                        if result is None:
                            continue
                        key = _solution_key(result)
                        usages = self._usages(net.name, key)
                        previous[net.name] = (
                            key, usages, self._solution_price(usages)
                        )
                    counts[net.name][key] = counts[net.name].get(key, 0) + 1
                    block_usages.append(usages)
                if edge_cost is not None and OBS.enabled:
                    OBS.count("sharing.edge_prices", len(prices_computed))
                    OBS.count("sharing.spacing_searches", len(searches))
                # Price update (Algorithm 2, line 7), after the block.
                for edge_usage, global_usage in block_usages:
                    for edge, usage in edge_usage.items():
                        if usage > 0:
                            self._log_price[edge] = (
                                self._log_price.get(edge, 0.0)
                                + EPSILON * usage
                            )
                    for name, usage in global_usage.items():
                        if usage > 0:
                            self._log_price[name] = (
                                self._log_price.get(name, 0.0)
                                + EPSILON * usage
                            )
                    if OBS.enabled:
                        for resource, usage in edge_usage.items():
                            running_usage[resource] = (
                                running_usage.get(resource, 0.0) + usage
                            )
                        for resource, usage in global_usage.items():
                            running_usage[resource] = (
                                running_usage.get(resource, 0.0) + usage
                            )
            if OBS.enabled:
                # Congestion of the running phase average: the per-phase
                # lambda trajectory of Fig. 6-style convergence plots.
                lam = (
                    max(running_usage.values(), default=0.0)
                    / solution.phases_run
                )
                OBS.gauge("sharing.lambda", lam)
                OBS.count("sharing.phases")
                OBS.event(
                    "sharing.phase",
                    phase=solution.phases_run,
                    lam=lam,
                    oracle_calls=solution.oracle_calls,
                    oracle_reuses=solution.oracle_reuses,
                )
        # Average over phases (Algorithm 2, line 10).
        for net_name, net_counts in counts.items():
            total = sum(net_counts.values())
            if total == 0:
                continue
            solution.weights[net_name] = {
                key: count / total for key, count in net_counts.items()
            }
        solution.prices = {
            resource: math.exp(value) for resource, value in self._log_price.items()
        }
        solution.max_congestion = self.fractional_congestion(solution)
        if OBS.enabled:
            OBS.count("sharing.oracle_calls", solution.oracle_calls)
            OBS.count("sharing.oracle_reuses", solution.oracle_reuses)
            OBS.count("sharing.oracle_faults", solution.oracle_faults)
            OBS.observe("sharing.oracle_time_s", solution.oracle_time)
            OBS.gauge("sharing.lambda", solution.max_congestion)
        return solution

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def fractional_congestion(self, solution: FractionalSolution) -> float:
        """max_r sum_n g_n^r of the fractional solution (lambda)."""
        edge_total: Dict[Edge, float] = {}
        global_total: Dict[str, float] = {}
        for net_name, weights in solution.weights.items():
            for key, weight in weights.items():
                edge_usage, global_usage = self._usages(net_name, key)
                for edge, usage in edge_usage.items():
                    edge_total[edge] = edge_total.get(edge, 0.0) + weight * usage
                for name, usage in global_usage.items():
                    global_total[name] = (
                        global_total.get(name, 0.0) + weight * usage
                    )
        worst = max(global_total.values(), default=0.0)
        if edge_total:
            worst = max(worst, max(edge_total.values()))
        return worst


def solve_with_scaling(
    graph: GlobalRoutingGraph,
    model: ResourceModel,
    nets: Sequence[Net],
    phases: int = 40,
    probe_phases: int = 8,
    **solver_kwargs,
) -> Tuple[FractionalSolution, List[float]]:
    """The scaling framework of Sec. 2.3.

    The approximation guarantee of Algorithm 2 needs lambda* in [1/2, 1];
    when the guessed objective bounds are off, the paper rescales all
    (global) resources - "for instance, by binary search".  This probes
    with few phases, multiplies the global bounds by the observed lambda
    until it lands in :data:`SCALING_TARGET` (at most
    :data:`SCALING_MAX_ROUNDS` probes), then runs the full solve.

    Returns (solution, probe lambda history).
    """
    history: List[float] = []
    lo, hi = SCALING_TARGET
    for _round in range(SCALING_MAX_ROUNDS):
        probe = ResourceSharingSolver(
            graph, model, phases=probe_phases, **solver_kwargs
        )
        fractional = probe.solve(nets)
        lam = fractional.max_congestion
        history.append(lam)
        if lo <= lam <= hi or lam <= 0.0:
            break
        # Scale global bounds so the congestion normalizes towards 1.
        for name in list(model.bounds):
            model.bounds[name] *= lam
    solver = ResourceSharingSolver(graph, model, phases=phases, **solver_kwargs)
    return solver.solve(nets), history

