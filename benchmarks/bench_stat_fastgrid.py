"""Sec. 3.6 statistics: fast-grid hit rate and on-track speed-up.

Paper: 97.89 % of the queries to the distance rule checking module can
be answered from the fast grid, speeding up on-track path search by
5.29x overall.

The bench routes the same chip once with the fast grid enabled and once
with it disabled (every query goes straight to the shape grid), and
reports hit rate and wall-clock ratio.
"""

import time

from benchmarks.common import print_table
from repro.chip.generator import ChipSpec, generate_chip
from repro.droute.router import DetailedRouter
from repro.droute.space import RoutingSpace

SPEC = ChipSpec("statfg", rows=3, row_width_cells=6, net_count=10, seed=7)


def _route(enabled: bool):
    chip = generate_chip(SPEC)
    space = RoutingSpace(chip, fast_grid_enabled=enabled)
    router = DetailedRouter(space)
    start = time.time()
    result = router.run()
    elapsed = time.time() - start
    return space, result, elapsed


def test_fastgrid_hit_rate_and_speedup(benchmark):
    def run_both():
        with_grid = _route(True)
        without_grid = _route(False)
        return with_grid, without_grid

    (space_on, result_on, time_on), (space_off, result_off, time_off) = (
        benchmark.pedantic(run_both, rounds=1, iterations=1)
    )
    hit_rate = space_on.fast_grid.hit_rate
    speedup = time_off / max(time_on, 1e-9)
    rows = [
        ["fast grid ON", f"{time_on:.2f}", f"{hit_rate:.2%}",
         len(result_on.routed)],
        ["fast grid OFF", f"{time_off:.2f}", "-", len(result_off.routed)],
        ["paper", "-", "97.89%", "-"],
    ]
    print_table(
        f"Sec. 3.6 stats: fast grid (measured speed-up {speedup:.2f}x, "
        "paper 5.29x)",
        ["configuration", "detailed routing s", "hit rate", "nets routed"],
        rows,
    )
    benchmark.extra_info["hit_rate"] = hit_rate
    benchmark.extra_info["speedup"] = speedup
    # Reproduction shape: high hit rate, clear speed-up, same coverage.
    assert hit_rate > 0.80
    assert speedup > 1.5
    assert len(result_on.routed) == len(result_off.routed)
