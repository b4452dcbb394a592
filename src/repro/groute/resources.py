"""Resources and convex consumption functions (Sec. 2.1, Fig. 1).

Every constraint and the objective are *resources*.  A net using edge e
with allocated space w(n, e) + s consumes:

* **space** on e: gamma(s) = w + s (linear, the solid line of Fig. 1);
* **power**: coupling capacitance decreases convexly with extra space
  (dashed line): gamma(s) = length * (floor + coupling / (1 + s/pitch));
* **yield loss**: the probability of a short between neighbouring wires
  also falls convexly with spacing (dotted line): same shape, different
  coefficients.

Edge capacities are resources too (one per edge).  The oracle price of an
edge (Eq. 1) minimizes the priced resource consumption over the extra
space s in [0, s_max].  With both decay terms priced the objective is
price_space*s + P*b*L/(1 + s) + Y*d*L/(1 + s)^2 (+ const), which this
module minimizes by a golden-section search on the convex sum.  Each
term alone has a closed form, and the sum has one through the positive
root of a cubic; replacing the search by it is future work (ROADMAP,
global routing, step 2), since it changes results.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

from repro.chip.net import Net
from repro.groute.graph import Edge, GlobalRoutingGraph

#: Names of the global (non-edge) resources.
GLOBAL_RESOURCES = ("wirelength", "power", "yield")

#: Golden-section step of the Eq. 1 search, and its stopping interval.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_SPACE_TOL = 1e-3


#: Spacing-search memo: (space price, edge length) -> (f*, s*).  With
#: the power and yield prices fixed, the minimum of the Eq. 1 decay
#: terms depends on nothing else; a net's ``base`` is added afterwards.
SpacingMemo = Dict[Tuple[float, int], Tuple[float, float]]


def _spacing_search(
    price_space: float,
    price_power: float,
    price_yield: float,
    length: float,
    max_extra_space: float,
) -> Tuple[float, float]:
    """(f*, s*): the golden-section minimum of the Eq. 1 decay terms.

    Power + yield decay terms: p(s) = length * (a + b / (1 + s)),
    y(s) = length * (c + d / (1 + s)^2); minimize
      f(s) = price_space * s + P * p(s) + Y * y(s)
    on [0, max_extra_space].  f is written out at each evaluation with
    the operations of power_usage / yield_loss at pitch 1
    (s / 1.0 == s exactly).
    """
    lo = a = 0.0
    b = max_extra_space
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    f_lo, fc, fd = [
        price_space * s
        + price_power * (length * (0.4 + 0.6 / (1.0 + s)))
        + price_yield * (length * (0.1 + 0.9 / (1.0 + s) ** 2))
        for s in (lo, c, d)
    ]
    while b - a > _SPACE_TOL:
        left = fc < fd
        if left:
            b, d, fd = d, c, fc
            s = c = b - _INV_PHI * (b - a)
        else:
            a, c, fc = c, d, fd
            s = d = a + _INV_PHI * (b - a)
        f = (
            price_space * s
            + price_power * (length * (0.4 + 0.6 / (1.0 + s)))
            + price_yield * (length * (0.1 + 0.9 / (1.0 + s) ** 2))
        )
        if left:
            fc = f
        else:
            fd = f
    s_star = (a + b) / 2.0
    f_star = (
        price_space * s_star
        + price_power * (length * (0.4 + 0.6 / (1.0 + s_star)))
        + price_yield * (length * (0.1 + 0.9 / (1.0 + s_star) ** 2))
    )
    # The search interval's end 0 wins only if strictly cheaper.
    if f_lo < f_star:
        return f_lo, lo
    return f_star, s_star


def space_usage(width: float, s: float) -> float:
    """Space consumed on an edge: w(n, e) + s (track units)."""
    return width + s


def power_usage(length: float, s: float, pitch: float = 1.0) -> float:
    """Power consumption of a wire with extra space s (Fig. 1, dashed).

    Convex and decreasing in s: the area capacitance stays, the coupling
    part decays with separation.
    """
    return length * (0.4 + 0.6 / (1.0 + s / pitch))

def yield_loss(length: float, s: float, pitch: float = 1.0) -> float:
    """Expected yield loss (critical area) of a wire (Fig. 1, dotted).

    Shorts between neighbouring wires dominate; their critical area
    shrinks roughly quadratically with spacing.
    """
    return length * (0.1 + 0.9 / (1.0 + s / pitch) ** 2)


class ResourceModel:
    """Capacities, global resource bounds and priced edge costs.

    Every global resource (wirelength, power, yield) gets a guessed
    achievable bound (``bounds``), which resource sharing treats like
    an edge capacity (Sec. 2.1).
    """

    def __init__(
        self,
        graph: GlobalRoutingGraph,
        nets: Sequence[Net],
        optimize_spacing: bool = True,
        max_extra_space: float = 2.0,
        bounds: Optional[Dict[str, float]] = None,
    ) -> None:
        self.graph = graph
        self.nets = list(nets)
        self.optimize_spacing = optimize_spacing
        self.max_extra_space = max_extra_space
        self._net_width: Dict[str, float] = {
            net.name: (2.0 if net.wire_type == "wide" else 1.0) for net in self.nets
        }
        self.bounds: Dict[str, float] = dict(bounds or {})
        if not self.bounds:
            self.bounds = self._default_bounds()
        # Per-net detour bounds (Sec. 2.1: "constraints bounding, for
        # instance, detours of certain nets"): each bounded net gets its
        # own resource "detour:<net>" whose consumption is the net's
        # wirelength and whose capacity is the allowed total length.
        self.detour_resources: Dict[str, float] = {}
        for net in self.nets:
            if net.detour_bound is not None:
                name = f"detour:{net.name}"
                self.detour_resources[net.name] = float(net.detour_bound)
                self.bounds[name] = float(net.detour_bound)

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    def _default_bounds(self) -> Dict[str, float]:
        """Guess achievable global resource bounds (Sec. 2.1).

        Based on the sum of half-perimeter wirelengths with slack; the
        paper adapts the guess if needed (binary search), which
        :class:`repro.groute.sharing.ResourceSharingSolver` also supports.
        """
        hpwl = sum(net.half_perimeter() for net in self.nets)
        hpwl = max(hpwl, 1)
        return {
            "wirelength": 1.35 * hpwl,
            "power": 1.35 * power_usage(hpwl, 0.0),
            "yield": 1.35 * yield_loss(hpwl, 0.0),
        }

    def net_width(self, net_name: str) -> float:
        return self._net_width.get(net_name, 1.0)

    # ------------------------------------------------------------------
    # Resource usage of a route element
    # ------------------------------------------------------------------
    def edge_usage(
        self, net_name: str, edge: Edge, s: float
    ) -> Dict[str, float]:
        """gamma^r(s) for all resources r touched by (net, edge)."""
        width = self.net_width(net_name)
        length = self.graph.edge_length(edge)
        usage = {"space": space_usage(width, s)}
        if length > 0:
            usage["wirelength"] = float(length) * width
            usage["power"] = power_usage(length, s)
            usage["yield"] = yield_loss(length, s)
        else:
            # Vias: count them in the wirelength objective with an
            # equivalent-length penalty, and in yield (vias are defect
            # prone, Sec. 1.1).
            via_penalty = float(self.graph.tile_size) / 4.0
            usage["wirelength"] = via_penalty * width
            usage["yield"] = 0.2 * via_penalty
        if net_name in self.detour_resources:
            usage[f"detour:{net_name}"] = usage["wirelength"]
        return usage

    # ------------------------------------------------------------------
    # Priced edge cost with optimal extra space (Eq. 1)
    # ------------------------------------------------------------------
    def priced_edge_cost(
        self,
        net_name: str,
        edge: Edge,
        edge_price: float,
        global_prices: Dict[str, float],
        spacing: Optional[SpacingMemo] = None,
    ) -> Tuple[float, float]:
        """(cost, s*) of using ``edge``: Eq. 1 minimized over s >= 0.

        ``edge_price`` is y_{r(e)} / u(e); ``global_prices`` maps each
        global resource to y_r / u^r.  The price terms are those of
        :meth:`edge_usage` at s, added in the same order with the same
        floating-point operations, without building the usage dict.
        ``spacing`` memoizes the spacing searches; it is valid for one
        ``global_prices`` only (see :data:`SpacingMemo`).
        """
        width = self._net_width.get(net_name, 1.0)
        length = self.graph.edge_length(edge)
        capacity = max(self.graph.capacities.get(edge, 0.0), 1e-9)
        price_space = edge_price / capacity
        if length > 0:
            wirelength = float(length) * width
        else:
            via_penalty = float(self.graph.tile_size) / 4.0
            wirelength = via_penalty * width
        base = price_space * width
        base += global_prices.get("wirelength", 0.0) * wirelength
        if net_name in self.detour_resources:
            base += global_prices.get(f"detour:{net_name}", 0.0) * wirelength
        if length <= 0:
            # Vias: no power term; yield counts the via penalty.
            via_yield = 0.2 * via_penalty
            return base + global_prices.get("yield", 0.0) * via_yield, 0.0
        price_power = global_prices.get("power", 0.0)
        price_yield = global_prices.get("yield", 0.0)
        if not self.optimize_spacing:
            cost = base + price_power * power_usage(length, 0.0)
            return cost + price_yield * yield_loss(length, 0.0), 0.0
        if spacing is None:
            spacing = {}
        key = (price_space, length)
        found = spacing.get(key)
        if found is None:
            found = spacing[key] = _spacing_search(
                price_space, price_power, price_yield, float(length),
                self.max_extra_space,
            )
        f, s_star = found
        return base + f, s_star

    def usage_summary(
        self, routes: Dict[str, "object"]
    ) -> Dict[str, float]:
        """Total global resource usage of a set of GlobalRoute objects."""
        totals = {name: 0.0 for name in GLOBAL_RESOURCES}
        for route in routes.values():
            for edge in route.edges:
                s = route.extra_space.get(edge, 0.0)
                usage = self.edge_usage(route.net_name, edge, s)
                for name in GLOBAL_RESOURCES:
                    if name in usage:
                        totals[name] += usage[name]
        return totals

