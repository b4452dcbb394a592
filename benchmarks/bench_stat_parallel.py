"""Sec. 5.1: parallelization models.

* Global routing: the volatility-tolerant block solvers let threads work
  against stale prices without losing the approximation guarantee.  The
  bench compares the serial Algorithm 2 against the simulated parallel
  variant at several thread counts - lambda must stay flat.
* Detailed routing: the region partition sequence balances estimated
  workload per thread and shrinks round by round; the bench reports the
  per-round balance factors.
* Worker pool: the real multiprocessing pool routes the partition
  rounds on 2 workers and must reproduce the serial wiring exactly.
  The run persists into ``BENCH_parallel.json`` — the deterministic
  work counters are gated by ``python -m repro.obs.regress``; the
  serial vs 2-worker wall clocks ride along report-only.
"""

import time

import pytest

from benchmarks.common import (
    bench_observability,
    obs_work_counters,
    print_table,
    write_bench_record,
)
from repro.chip.generator import ChipSpec, generate_chip
from repro.droute import pool
from repro.droute.router import DetailedRouter
from repro.droute.space import RoutingSpace
from repro.droute.partition import (
    assign_nets_to_rounds,
    balance_report,
    partition_sequence,
)
from repro.grid.tracks import build_track_plan
from repro.groute.capacity import estimate_capacities
from repro.groute.graph import GlobalRoutingGraph
from repro.groute.resources import ResourceModel
from repro.groute.sharing import ResourceSharingSolver

SPEC = ChipSpec("statpar", rows=3, row_width_cells=7, net_count=14, seed=41)


def test_parallel_sharing_quality(benchmark):
    chip = generate_chip(SPEC)
    graph = GlobalRoutingGraph(chip)
    estimate_capacities(graph, build_track_plan(chip))
    for edge in list(graph.capacities):
        graph.capacities[edge] *= 0.4
    routable = [n for n in chip.nets if not graph.is_local_net(n)]
    model = ResourceModel(graph, chip.nets)

    def run():
        rows = []
        lambdas = {}
        serial = ResourceSharingSolver(graph, model, phases=10)
        serial.reuse_threshold = 1.0
        serial = serial.solve(routable)
        rows.append(["serial", f"{serial.max_congestion:.4f}",
                     serial.oracle_calls])
        lambdas["serial"] = serial.max_congestion
        for threads in (2, 4, 8):
            parallel = ResourceSharingSolver(
                graph, model, phases=10, threads=threads
            ).solve(routable)
            rows.append([f"{threads} threads (simulated)",
                         f"{parallel.max_congestion:.4f}",
                         parallel.oracle_calls])
            lambdas[threads] = parallel.max_congestion
        return rows, lambdas

    rows, lambdas = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Sec. 5.1: volatility-tolerant parallel resource sharing",
        ["configuration", "lambda", "oracle calls"],
        rows,
    )
    benchmark.extra_info["lambdas"] = {str(k): v for k, v in lambdas.items()}
    for threads in (2, 4, 8):
        assert lambdas[threads] <= lambdas["serial"] * 1.15, (
            "stale-price blocks must not degrade congestion materially"
        )


def test_partition_balance(benchmark):
    chip = generate_chip(SPEC)

    def run():
        sequence = partition_sequence(chip, threads=8)
        rounds = assign_nets_to_rounds(chip, sequence)
        return sequence, rounds, balance_report(rounds)

    sequence, rounds, report = benchmark(run)
    rows = [
        [index, len(part.regions), row["nets"], f"{row['max_share']:.2f}"]
        for index, (part, row) in enumerate(zip(sequence, report))
    ]
    print_table(
        "Sec. 5.1: detailed routing partition rounds (max_share = worst "
        "thread load / ideal)",
        ["round", "regions", "nets routable", "max_share"],
        rows,
    )
    benchmark.extra_info["report"] = report
    # The region count shrinks and ends at 1; every net is assigned.
    counts = [len(part.regions) for part in sequence]
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] == 1
    assigned = sum(row["nets"] for row in report)
    assert assigned == len(chip.nets)


def _route_with_workers(workers):
    chip = generate_chip(SPEC)
    space = RoutingSpace(chip)
    router = DetailedRouter(space, workers=workers)
    start = time.time()
    result = router.run()
    elapsed = time.time() - start
    routes = {
        name: (
            sorted(
                (t, lv, s.layer, s.x0, s.y0, s.x1, s.y1)
                for s, lv, t in route.wire_items()
            ),
            sorted(
                (t, lv, v.via_layer, v.x, v.y)
                for v, lv, t in route.via_items()
            ),
        )
        for name, route in space.routes.items()
    }
    return result, routes, elapsed


def test_pool_serial_vs_two_workers(benchmark):
    if not pool.fork_available():
        pytest.skip("fork start method unavailable")

    def run():
        with bench_observability():
            serial, serial_routes, serial_s = _route_with_workers(1)
            serial_work = obs_work_counters("serial.")
        with bench_observability():
            par, par_routes, par_s = _route_with_workers(2)
            par_work = obs_work_counters("workers2.")
        return (serial, serial_routes, serial_s, serial_work,
                par, par_routes, par_s, par_work)

    (serial, serial_routes, serial_s, serial_work,
     par, par_routes, par_s, par_work) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    # The pool's whole contract: same wiring, different wall clock.
    assert par.routed == serial.routed
    assert par.failed == serial.failed
    assert par_routes == serial_routes
    assert not par.pool_degraded

    rows = [
        ["serial", f"{serial_s:.2f}", len(serial.routed),
         serial.wire_length, serial.via_count, "-", "-"],
        ["2 workers", f"{par_s:.2f}", len(par.routed),
         par.wire_length, par.via_count,
         int(par_work.get("workers2.pool.regions_dispatched", 0)),
         int(par_work.get("workers2.pool.rounds_parallel", 0))],
    ]
    print_table(
        "Sec. 5.1: crash-tolerant worker pool vs serial detailed routing",
        ["configuration", "route_s", "routed", "netlength", "vias",
         "regions", "par rounds"],
        rows,
    )
    work = {
        "serial.nets_routed": len(serial.routed),
        "serial.nets_failed": len(serial.failed),
        "workers2.nets_routed": len(par.routed),
        "workers2.nets_failed": len(par.failed),
        "workers2.identical_wiring": int(par_routes == serial_routes),
        "workers2.pool.rounds_parallel": par_work.get(
            "workers2.pool.rounds_parallel", 0
        ),
        "workers2.pool.regions_dispatched": par_work.get(
            "workers2.pool.regions_dispatched", 0
        ),
        "workers2.pool.regions_completed": par_work.get(
            "workers2.pool.regions_completed", 0
        ),
        "workers2.pool.worker_crashes": par_work.get(
            "workers2.pool.worker_crashes", 0
        ),
        "workers2.pool.region_retries": par_work.get(
            "workers2.pool.region_retries", 0
        ),
        "workers2.pool.degraded": par_work.get("workers2.pool.degraded", 0),
    }
    wall_clock = {
        "serial.route_s": serial_s,
        "workers2.route_s": par_s,
    }
    columns = {
        "chip": SPEC.name,
        "nets": len(generate_chip(SPEC).nets),
        "serial": {"netlength": serial.wire_length, "vias": serial.via_count},
        "workers2": {"netlength": par.wire_length, "vias": par.via_count},
    }
    path = write_bench_record("parallel", wall_clock, work, columns=columns)
    if path is not None:
        print(f"bench record appended to {path}")
    benchmark.extra_info["pool"] = {"work": work, "wall_clock": wall_clock}
