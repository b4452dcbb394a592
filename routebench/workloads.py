"""The four benchmark workloads.

Each workload is a closed loop: ``setup`` builds the input state (timed
as set-up), ``run`` performs the measured requests one after the other
and records their latencies, and ``assess`` (untimed) fills in the
pass's failed nets, output-check failures and quality figures.

Inputs: every workload routes a fixed chip spec (size class and chip
seed below; ``--chip-seed`` swaps in another chip of the same class).
The run's ``--seed`` shuffles the order of the chip's netlist before the
router sees it, so each seed is a different input the router must route
to the same standard, while the amount of work stays in one size class
(chip seeds of one class differ by up to 2.5x in routing time, which
would drown any change under test).
"""

from __future__ import annotations

import random
import resource
import time
from typing import Dict, List, Optional

from repro.chip import generator
from repro.chip.generator import ChipSpec
from repro.drc.checker import DrcChecker
from repro.droute.router import DetailedRouter
from repro.droute.space import RoutingSpace
from repro.engine.changes import MovePin
from repro.engine.session import RoutingSession
from repro.groute.router import GlobalRouter

from check import check_detailed, check_global

#: Global-routing phases of every flow and global run.
GR_PHASES = 10

#: ECO pin move, in dbu (to the right).
ECO_DX = 240

#: ECO edits per pass.
ECO_EDITS = 8


class Pass:
    """Outcome of one measured pass."""

    def __init__(self) -> None:
        #: Wall time of each request in the pass, in seconds.
        self.latencies: List[float] = []
        self.attempted = 0
        #: Nets the router gave up on or left open.
        self.router_failed: List[str] = []
        #: Nets the router reported routed that fail the output check.
        self.check_failed: List[str] = []
        #: Deterministic quality figures (identical for one code + seed).
        self.quality: Dict[str, float] = {}


def _chip(spec: ChipSpec, chip_seed: Optional[int], seed: int):
    if chip_seed is not None:
        spec = ChipSpec(**dict(spec.as_dict(), seed=chip_seed))
    chip = generator.generate_chip(spec)
    random.Random(seed).shuffle(chip.nets)
    return chip


def _detailed_quality(pass_: Pass, chip, space, routed, failed) -> None:
    pass_.attempted = len(chip.nets)
    pass_.router_failed = sorted(set(failed))
    pass_.check_failed = check_detailed(chip, space, set(routed) - set(failed))
    pass_.quality = {
        "netlength_dbu": space.total_wire_length(),
        "vias": space.total_via_count(),
        "drc_errors": DrcChecker(space).run().error_count,
    }


class FlowMedium:
    """Full BonnRoute flow: preroute, global, detailed, DRC cleanup."""

    name = "flow_medium"
    spec = ChipSpec("flow_medium", rows=2, row_width_cells=4, net_count=4, seed=1015)

    def setup(self, chip_seed, seed):
        chip = _chip(self.spec, chip_seed, seed)
        return RoutingSession(chip, gr_phases=GR_PHASES, seed=1)

    def run(self, session):
        pass_ = Pass()
        start = time.perf_counter()
        result = session.route()
        pass_.latencies.append(time.perf_counter() - start)
        return pass_, result

    def assess(self, session, pass_, result) -> None:
        detailed = result.detailed_result
        _detailed_quality(
            pass_, session.chip, session.space, detailed.routed, detailed.failed
        )
        pass_.quality["gr_max_congestion"] = result.global_result.fractional.max_congestion


class EcoEdits:
    """Route once in set-up, then single-pin ECO moves one at a time."""

    name = "eco_edits"
    spec = ChipSpec("eco_edits", rows=2, row_width_cells=5, net_count=8, seed=3)

    def setup(self, chip_seed, seed):
        chip = _chip(self.spec, chip_seed, seed)
        session = RoutingSession(chip, gr_phases=GR_PHASES, seed=1)
        session.route()
        return session, self.pick_edits(chip, session.space, ECO_EDITS)

    @staticmethod
    def pick_edits(chip, space, count):
        """``count`` right moves on distinct nets, least-conflicting first
        (the selection of benchmarks/bench_eco_incremental.py)."""
        candidates = []
        for net in chip.nets:
            for pin in net.pins:
                if pin.bounding_box().x_hi + ECO_DX > chip.die.x_hi - 80:
                    continue
                conflicts = set()
                for layer, rect in pin.shapes:
                    conflicts |= space.conflicting_nets(layer, rect.translated(ECO_DX, 0))
                conflicts.discard(net.name)
                candidates.append((len(conflicts), net.name, pin.name))
        candidates.sort()
        edits, used = [], set()
        for _conflicts, net_name, pin_name in candidates:
            if net_name not in used:
                used.add(net_name)
                edits.append(MovePin(net_name, pin_name, ECO_DX, 0))
        return edits[:count]

    def run(self, state):
        session, edits = state
        pass_ = Pass()
        failed = set()
        for edit in edits:
            start = time.perf_counter()
            session.apply_changes([edit])
            session.reroute()
            pass_.latencies.append(time.perf_counter() - start)
            failed.update(
                name for name, rec in session.records.items() if rec.status == "failed"
            )
        return pass_, failed

    def assess(self, state, pass_, failed) -> None:
        session, edits = state
        routed = [n for n, rec in session.records.items() if rec.status == "routed"]
        _detailed_quality(pass_, session.chip, session.space, routed, failed)
        pass_.quality["edits"] = len(edits)


class GlobalLarge:
    """Global routing only (Alg 2 sharing, rounding, repair)."""

    name = "global_large"
    spec = ChipSpec("global_large", rows=12, row_width_cells=40, net_count=1000, seed=7)

    def setup(self, chip_seed, seed):
        chip = _chip(self.spec, chip_seed, seed)
        return RoutingSession(chip, gr_phases=GR_PHASES, seed=1)

    def run(self, session):
        pass_ = Pass()
        start = time.perf_counter()
        router = GlobalRouter(
            session.chip, phases=GR_PHASES, seed=1, track_plan=session.plan
        )
        result = router.run()
        pass_.latencies.append(time.perf_counter() - start)
        return pass_, result

    def assess(self, session, pass_, result) -> None:
        graph = result.graph
        routable = [n.name for n in session.chip.nets if n.name not in result.local_nets]
        pass_.attempted = len(routable)
        pass_.router_failed = sorted(set(routable) - set(result.routes))
        pass_.check_failed = check_global(session.chip, graph, result.routes)
        pass_.quality = {
            "netlength_dbu": sum(r.wire_length(graph) for r in result.routes.values()),
            "vias": sum(r.via_count() for r in result.routes.values()),
            "gr_max_congestion": result.fractional.max_congestion,
        }


class DroutePool2:
    """Detailed routing without corridors on a 2-process worker pool."""

    name = "droute_pool2"
    spec = ChipSpec("droute_pool2", rows=3, row_width_cells=7, net_count=14, seed=41)

    def setup(self, chip_seed, seed):
        chip = _chip(self.spec, chip_seed, seed)
        return RoutingSpace(chip)

    def run(self, space):
        pass_ = Pass()
        start = time.perf_counter()
        result = DetailedRouter(space, workers=2).run(list(space.chip.nets))
        pass_.latencies.append(time.perf_counter() - start)
        return pass_, result

    def assess(self, space, pass_, result) -> None:
        _detailed_quality(pass_, space.chip, space, result.routed, result.failed)
        pass_.quality["pool_degraded"] = int(result.pool_degraded)


WORKLOADS = {w.name: w for w in (FlowMedium, EcoEdits, GlobalLarge, DroutePool2)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
