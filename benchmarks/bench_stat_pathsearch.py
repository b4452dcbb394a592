"""Path-search future-cost ablation: classic pi_H/pi_P vs pi_GR.

Two full flows over the same chip (the table-1 quick chip):

* ``classic`` - every search steered by the classic pi_H / pi_P
  future-cost policy (``NetConnector.corridor_future_cost`` off).
* ``pi_gr`` - the default: corridor-restricted searches steered by the
  corridor-tightened future cost pi_GR.  The stronger bound must cut
  labels pushed by at least 25% against the classic arm while wiring
  quality stays at parity.

The run persists into ``BENCH_pathsearch.json``; the label/pop counters
are gated by ``python -m repro.obs.regress``.
"""

import time
from unittest import mock

from benchmarks.common import (
    bench_observability,
    bench_specs,
    obs_work_counters,
    print_table,
    write_bench_record,
)
from repro.chip.generator import generate_chip
from repro.droute.connect import NetConnector
from repro.flow.bonnroute import BonnRouteFlow

#: The ablation runs on the table-1 quick chip in every mode: a full
#: flow per extra chip would dominate the bench suite for no additional
#: signal about the future cost.
SPEC = bench_specs()[0]

#: Arm name -> NetConnector.corridor_future_cost.
ARMS = (("classic", False), ("pi_gr", True))


def _run_flow():
    chip = generate_chip(SPEC)
    start = time.time()
    result = BonnRouteFlow(chip, gr_phases=10, seed=1).run()
    elapsed = time.time() - start
    metrics = result.metrics
    counters = obs_work_counters()
    return {
        "wall_s": elapsed,
        "netlength": metrics.netlength,
        "vias": metrics.vias,
        "errors": metrics.errors,
        "labels": int(counters.get("pathsearch.labels_pushed", 0)),
        "pops": int(counters.get("pathsearch.heap_pops", 0)),
        "processed": int(counters.get("pathsearch.vertices_processed", 0)),
        "searches": int(counters.get("pathsearch.searches", 0)),
        "stale_pops": int(counters.get("pathsearch.kernel.stale_pops", 0)),
        "pi_gr_searches": int(
            counters.get("pathsearch.kernel.pi_gr_searches", 0)
        ),
    }


def test_kernel_ablation(benchmark):
    def run():
        out = {}
        for name, corridor_future_cost in ARMS:
            with bench_observability(), mock.patch.object(
                NetConnector, "corridor_future_cost", corridor_future_cost
            ):
                out[name] = _run_flow()
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    classic, pi_gr = results["classic"], results["pi_gr"]

    rows = [
        [name, r["labels"], r["pops"], r["processed"], r["netlength"],
         r["vias"], r["errors"], f"{r['wall_s']:.2f}"]
        for name, r in results.items()
    ]
    print_table(
        "Path-search future-cost ablation (full flow, table-1 quick chip)",
        ["future cost", "labels", "pops", "processed", "netlength", "vias",
         "errors", "wall_s"],
        rows,
    )

    # The corridor-tightened future cost carries the acceptance bar:
    # >= 25% fewer labels pushed, wiring quality at parity.
    assert pi_gr["labels"] <= 0.75 * classic["labels"], (
        f"pi_GR must cut labels >= 25%: {pi_gr['labels']} vs "
        f"{classic['labels']}"
    )
    assert pi_gr["netlength"] == classic["netlength"]
    assert pi_gr["vias"] == classic["vias"]
    assert pi_gr["errors"] <= classic["errors"], (
        "pi_GR must not leave more DRC errors behind"
    )

    work = {}
    for name, r in results.items():
        for key in ("labels", "pops", "processed", "searches",
                    "stale_pops", "pi_gr_searches", "netlength", "vias",
                    "errors"):
            work[f"{name}.{key}"] = r[key]
    # Inverted parity flags: a regression raises them above 0, which is
    # exactly what the gate flags (a decrease only ever reads improved).
    work["parity.netlength_mismatch"] = int(
        pi_gr["netlength"] != classic["netlength"]
    )
    work["parity.vias_mismatch"] = int(pi_gr["vias"] != classic["vias"])
    wall_clock = {f"{name}.route_s": r["wall_s"] for name, r in results.items()}
    columns = {
        "chip": SPEC.name,
        "labels_reduction_pct": round(
            100.0 * (1 - pi_gr["labels"] / max(1, classic["labels"])), 1
        ),
    }
    path = write_bench_record("pathsearch", wall_clock, work, columns=columns)
    if path is not None:
        print(f"bench record appended to {path}")
    benchmark.extra_info["kernels"] = {
        "work": work, "wall_clock": wall_clock, "columns": columns,
    }
