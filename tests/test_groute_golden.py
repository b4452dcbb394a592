"""Golden digests of whole global-routing runs (Sec. 2.3, Algorithm 2).

``groute_golden.json`` pins, for each run below, a SHA-1 of the sorted
routes with their extra space, a SHA-1 of the fractional support (every
net's solution keys with their weights), ``max_congestion`` and a SHA-1
of the sorted final prices, all floats written with ``float.hex``, plus
the oracle call and reuse counts:

* :meth:`GlobalRouter.run` on two small chips (chip seeds 7 and 8);
* a :class:`ResourceModel` with ``optimize_spacing=False``;
* a chip with wide nets and a ``detour_bound`` net;
* :meth:`GlobalRouter.run_incremental` warm-started from a full run;
* :func:`solve_with_scaling` from a 10x too tight wirelength bound;
* :meth:`ResourceSharingSolver.solve` with ``threads=4`` (one price
  snapshot shared by the nets of a block, Sec. 5.1).

The solver-only runs are rounded and repaired with seed 1 so that every
run has routes.  The digests do not depend on ``PYTHONHASHSEED``.
Regenerate the file (only when a results change is intended) with::

    PYTHONPATH=src python tests/test_groute_golden.py
"""

import hashlib
import json
import math
import os

import pytest

from repro.chip.generator import ChipSpec, generate_chip
from repro.groute.resources import ResourceModel
from repro.groute.rounding import RoundingPostprocessor
from repro.groute.router import GlobalRouter
from repro.groute.sharing import ResourceSharingSolver, solve_with_scaling

GOLDEN_FIXTURE = os.path.join(os.path.dirname(__file__), "groute_golden.json")

PHASES = 8


def small_chip(seed, **spec_kwargs):
    return generate_chip(
        ChipSpec(
            "grgolden", rows=3, row_width_cells=6, net_count=12, seed=seed,
            **spec_kwargs,
        )
    )


def _sha1(items):
    return hashlib.sha1(json.dumps(items).encode()).hexdigest()


def routes_digest(routes):
    """SHA-1 over every route's sorted edges with their extra space."""
    items = []
    for name in sorted(routes):
        route = routes[name]
        edges = [
            [list(map(list, edge)), route.extra_space.get(edge, 0.0).hex()]
            for edge in sorted(route.edges)
        ]
        items.append([name, edges])
    return _sha1(items)


def support_digest(fractional):
    """SHA-1 over every net's solution keys and weights."""
    items = []
    for name in sorted(fractional.weights):
        support = sorted(
            [
                [list(map(list, edge)) for edge in edges],
                [s.hex() for s in spaces],
                weight.hex(),
            ]
            for (edges, spaces), weight in fractional.weights[name].items()
        )
        items.append([name, support])
    return _sha1(items)


def prices_digest(prices):
    """SHA-1 over the final prices, sorted by resource."""
    return _sha1(
        sorted([repr(resource), price.hex()] for resource, price in prices.items())
    )


def _record(routes, fractional):
    return {
        "routes": routes_digest(routes),
        "support": support_digest(fractional),
        "max_congestion": fractional.max_congestion.hex(),
        "prices": prices_digest(fractional.prices),
        "oracle_calls": fractional.oracle_calls,
        "oracle_reuses": fractional.oracle_reuses,
    }


def _router_record(result):
    return _record(result.routes, result.fractional)


def _rounded_record(router, fractional, nets):
    post = RoundingPostprocessor(router.graph, router.model, seed=1)
    routes = post.repair(post.round(fractional), fractional, nets)
    return _record(routes, fractional)


def _routable(router):
    return [n for n in router.chip.nets if not router.graph.is_local_net(n)]


def run_router(seed, optimize_spacing=True):
    router = GlobalRouter(small_chip(seed), phases=PHASES, seed=1)
    if not optimize_spacing:
        router.model = ResourceModel(
            router.graph, router.chip.nets, optimize_spacing=False
        )
    return _router_record(router.run())


def run_detour_wide(seed):
    chip = small_chip(seed, wide_net_fraction=0.5)
    router = GlobalRouter(chip, phases=PHASES, seed=1)
    routable = _routable(router)
    assert any(n.wire_type == "wide" for n in routable)
    victim = max(routable, key=lambda n: n.half_perimeter())
    victim.detour_bound = int(1.2 * victim.half_perimeter())
    # The resource model reads detour bounds when it is built.
    router.model = ResourceModel(router.graph, chip.nets)
    return _router_record(router.run())


def run_incremental(seed):
    router = GlobalRouter(small_chip(seed), phases=PHASES, seed=1)
    full = router.run()
    warm = {
        resource: math.log(price)
        for resource, price in full.fractional.prices.items()
        if price > 0.0
    }
    routed = sorted(full.routes)
    dirty = set(routed[::3])
    frozen = {
        name: route for name, route in full.routes.items() if name not in dirty
    }
    nets = [n for n in router.chip.nets if n.name in dirty]
    result = router.run_incremental(
        nets, warm_start=warm, phases=3, frozen_routes=frozen
    )
    return _router_record(result)


def run_scaling(seed):
    router = GlobalRouter(small_chip(seed), phases=PHASES, seed=1)
    routable = _routable(router)
    router.model.bounds["wirelength"] /= 10.0
    fractional, _history = solve_with_scaling(
        router.graph, router.model, routable, phases=PHASES, probe_phases=4
    )
    return _rounded_record(router, fractional, routable)


def run_parallel(seed):
    router = GlobalRouter(small_chip(seed), phases=PHASES, seed=1)
    routable = _routable(router)
    fractional = ResourceSharingSolver(
        router.graph, router.model, phases=PHASES, threads=4
    ).solve(routable)
    return _rounded_record(router, fractional, routable)


#: Entry name -> (run producing its record, chip seed, keyword arguments).
RUNS = {
    "router_7": (run_router, 7, {}),
    "router_8": (run_router, 8, {}),
    "no_spacing_7": (run_router, 7, {"optimize_spacing": False}),
    "detour_wide_3": (run_detour_wide, 3, {}),
    "incremental_7": (run_incremental, 7, {}),
    "scaling_7": (run_scaling, 7, {}),
    "parallel_7": (run_parallel, 7, {}),
}


def _load_golden():
    with open(GOLDEN_FIXTURE) as fh:
        return json.load(fh)


GOLDEN = _load_golden() if os.path.exists(GOLDEN_FIXTURE) else {}


def test_golden_covers_every_run():
    assert sorted(GOLDEN) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_reproduces_golden(name):
    run, seed, kwargs = RUNS[name]
    assert run(seed, **kwargs) == GOLDEN[name]


if __name__ == "__main__":
    golden = {
        name: run(seed, **kwargs) for name, (run, seed, kwargs) in sorted(RUNS.items())
    }
    with open(GOLDEN_FIXTURE, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} runs to {GOLDEN_FIXTURE}")
