"""Golden digests of whole detailed-routing runs (Sec. 5.1 schedule).

``droute_golden.json`` pins, for each run below, a SHA-1 of every net's
sorted wires and vias plus the failed set, ``retries`` and
``escalations``:

* the serial :class:`DetailedRouter` on the ``pooltest`` chip, chip
  seeds 11, 41 and 5;
* the ISR baseline flow (:class:`IsrFlow`) on the same chips;
* the ISR detailed router with track assignment on the seed-41
  ``statpar`` chip, whose ripups re-queue several nets at once (the
  re-queue order must not follow set iteration);
* a :class:`BonnRouteFlow` run on the seed-11 chip, without and with
  DRC cleanup; the cleanup run also pins the :class:`CleanupReport`
  counts, so the window-restricted pi_GR reroutes of ``DrcCleanup`` are
  covered.

:meth:`RoutingSession.route`, the entry point the routing benchmark
drives, must reproduce both :class:`BonnRouteFlow` records.

The digests do not depend on ``PYTHONHASHSEED``.  Regenerate the file
(only when a results change is intended) with::

    PYTHONPATH=src python tests/test_droute_golden.py
"""

import hashlib
import json
import os

import pytest

from repro.baseline.isr_detailed import IsrDetailedRouter
from repro.chip.generator import ChipSpec, generate_chip
from repro.droute.router import DetailedRouter
from repro.droute.space import RoutingSpace
from repro.engine.session import RoutingSession
from repro.flow.bonnroute import BonnRouteFlow
from repro.flow.isr_flow import IsrFlow

GOLDEN_FIXTURE = os.path.join(os.path.dirname(__file__), "droute_golden.json")

#: Chip seeds of the ``pooltest`` spec the serial and ISR runs cover.
CHIP_SEEDS = (11, 41, 5)


def pooltest_chip(seed):
    return generate_chip(
        ChipSpec("pooltest", rows=3, row_width_cells=6, net_count=12, seed=seed)
    )


def route_digest(space):
    """SHA-1 over every net's sorted wire and via tuples."""
    items = []
    for name in sorted(space.routes):
        route = space.routes[name]
        wires = sorted(
            (t, lv, s.layer, s.x0, s.y0, s.x1, s.y1)
            for s, lv, t in route.wire_items()
        )
        vias = sorted((t, lv, v.via_layer, v.x, v.y) for v, lv, t in route.via_items())
        items.append([name, wires, vias])
    return hashlib.sha1(json.dumps(items).encode()).hexdigest()


def _record(space, detailed):
    return {
        "digest": route_digest(space),
        "failed": sorted(detailed.failed),
        "retries": detailed.retries,
        "escalations": detailed.escalations,
    }


def run_detailed(seed):
    space = RoutingSpace(pooltest_chip(seed))
    result = DetailedRouter(space).run()
    return _record(space, result)


def run_isr(seed):
    result = IsrFlow(pooltest_chip(seed), cleanup=False).run()
    return _record(result.space, result.detailed_result)


def run_isr_track_assignment(seed):
    chip = generate_chip(
        ChipSpec("statpar", rows=3, row_width_cells=7, net_count=14, seed=seed)
    )
    space = RoutingSpace(chip)
    return _record(space, IsrDetailedRouter(space).run())


def _flow_record(result):
    record = _record(result.space, result.detailed_result)
    if result.cleanup_report is not None:
        summary = result.cleanup_report.summary()
        del summary["runtime"]
        record["cleanup"] = summary
    return record


def run_bonnroute(seed):
    return _flow_record(
        BonnRouteFlow(pooltest_chip(seed), gr_phases=4, seed=1, cleanup=False).run()
    )


def run_bonnroute_cleanup(seed):
    return _flow_record(
        BonnRouteFlow(pooltest_chip(seed), gr_phases=4, seed=1, cleanup=True).run()
    )


#: Entry name -> (run producing its record, chip seed).
RUNS = dict(
    [(f"detailed_{s}", (run_detailed, s)) for s in CHIP_SEEDS]
    + [(f"isr_{s}", (run_isr, s)) for s in CHIP_SEEDS]
    + [("isr_track_41", (run_isr_track_assignment, 41))]
    + [("bonnroute_11", (run_bonnroute, 11))]
    + [("bonnroute_cleanup_11", (run_bonnroute_cleanup, 11))]
)


def _load_golden():
    with open(GOLDEN_FIXTURE) as fh:
        return json.load(fh)


GOLDEN = _load_golden() if os.path.exists(GOLDEN_FIXTURE) else {}


def test_golden_covers_every_run():
    assert sorted(GOLDEN) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_reproduces_golden(name):
    run, seed = RUNS[name]
    assert run(seed) == GOLDEN[name]


@pytest.mark.parametrize("cleanup", [False, True])
def test_session_route_reproduces_flow_golden(cleanup):
    result = RoutingSession(pooltest_chip(11), gr_phases=4, seed=1).route(
        cleanup=cleanup
    )
    name = "bonnroute_cleanup_11" if cleanup else "bonnroute_11"
    assert _flow_record(result) == GOLDEN[name]


def test_flow_builds_its_session_from_its_settings():
    # ``--eco`` reroutes on the session the flow built, with these values.
    flow = BonnRouteFlow(
        pooltest_chip(11), gr_phases=7, seed=3, workers=2, region_timeout_s=9.0
    )
    session = flow.session
    assert (
        session.gr_phases, session.seed, session.workers, session.region_timeout_s
    ) == (7, 3, 2, 9.0)
    given = RoutingSession(pooltest_chip(11), gr_phases=5, seed=2)
    assert BonnRouteFlow(given.chip, session=given).session is given


if __name__ == "__main__":
    golden = {name: run(seed) for name, (run, seed) in sorted(RUNS.items())}
    with open(GOLDEN_FIXTURE, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} runs to {GOLDEN_FIXTURE}")
