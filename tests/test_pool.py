"""Tests for the crash-tolerant parallel detailed-routing pool (Sec. 5.1).

The router runs one schedule at every worker count (critical nets,
partition rounds, one deferred drain); the pool only executes a round's
first attempts.  Determinism comparisons therefore demand bit-identical
routes between ``workers=1`` and ``workers > 1``.  The serial results
themselves are pinned across interpreter launches and hash seeds by
``tests/droute_golden.json``.
"""

import random

import pytest

from repro.chip.generator import ChipSpec, generate_chip
from repro.droute import pool
from repro.droute.partition import (
    PartitionRound,
    assign_nets_to_rounds,
    partition_sequence,
)
from repro.droute.router import DetailedRouter
from repro.droute.space import RoutingSpace
from repro.flow.faults import FaultInjector, FaultPlan, FaultSpec
from repro.geometry.rect import Rect

POOL_SPEC = ChipSpec("pooltest", rows=3, row_width_cells=6, net_count=12, seed=11)

needs_fork = pytest.mark.skipif(
    not pool.fork_available(), reason="fork start method unavailable"
)


def run_router(workers, fault_plan=None, **kwargs):
    """Fresh chip + space; returns (result, per-net route item sets)."""
    chip = generate_chip(POOL_SPEC)
    space = RoutingSpace(chip)
    injector = FaultInjector(fault_plan) if fault_plan is not None else None
    router = DetailedRouter(
        space, workers=workers, fault_injector=injector, **kwargs
    )
    result = router.run()
    routes = {
        name: (
            sorted(
                (t, lv, s.layer, s.x0, s.y0, s.x1, s.y1)
                for s, lv, t in route.wire_items()
            ),
            sorted(
                (t, lv, v.via_layer, v.x, v.y) for v, lv, t in route.via_items()
            ),
        )
        for name, route in space.routes.items()
    }
    return result, routes, injector


def round_zero_victim():
    """A net routed in a multi-region round (so worker faults can fire)."""
    chip = generate_chip(POOL_SPEC)
    sequence = partition_sequence(chip, 4)
    rounds = assign_nets_to_rounds(chip, sequence)
    return rounds[0][0][1].name


class TestRegionOfBisection:
    def test_bisect_matches_linear_scan_randomized(self):
        chip = generate_chip(POOL_SPEC)
        rng = random.Random(7)
        die = chip.die
        for part in partition_sequence(chip, 8):
            assert part._cut_xs is not None or len(part.regions) == 1
            for _ in range(300):
                x0 = rng.randrange(die.x_lo - 50, die.x_hi + 50)
                y0 = rng.randrange(die.y_lo - 50, die.y_hi + 50)
                box = Rect(
                    x0, y0, x0 + rng.randrange(0, 400), y0 + rng.randrange(0, 400)
                )
                assert part.region_of(box) == part._region_of_linear(box)
            # Cut-edge boxes exercise the closed-upper-edge tie case.
            for cut in part._cut_xs or ():
                for width in (0, 1, 37):
                    box = Rect(cut, die.y_lo + 60, cut + width, die.y_lo + 90)
                    assert part.region_of(box) == part._region_of_linear(box)

    def test_irregular_regions_fall_back_to_linear(self):
        # Two stacked regions do not tile the x-axis: no cut list.
        part = PartitionRound(
            [Rect(0, 0, 100, 50), Rect(0, 50, 100, 100)], safety_margin=0
        )
        assert part._cut_xs is None
        assert part.region_of(Rect(10, 10, 20, 20)) == 0
        assert part.region_of(Rect(10, 60, 20, 70)) == 1
        assert part.region_of(Rect(10, 10, 20, 70)) is None

    def test_net_assignment_unchanged_by_bisection(self):
        chip = generate_chip(POOL_SPEC)
        sequence = partition_sequence(chip, 4)
        fast = assign_nets_to_rounds(chip, sequence)
        for part in sequence:
            part._cut_xs = None  # force the linear oracle
        slow = assign_nets_to_rounds(chip, sequence)
        assert [
            [(r, n.name) for r, n in rnd] for rnd in fast
        ] == [[(r, n.name) for r, n in rnd] for rnd in slow]


@needs_fork
class TestPoolDeterminism:
    def test_workers_match_serial_exactly(self):
        serial, serial_routes, _ = run_router(1)
        for workers in (2, 4):
            par, par_routes, _ = run_router(workers)
            assert par.routed == serial.routed
            assert par.failed == serial.failed
            assert par.wire_length == serial.wire_length
            assert par.via_count == serial.via_count
            assert par_routes == serial_routes
            assert not par.pool_degraded

    def test_worker_count_only_sets_processes_not_structure(self):
        # DetailedRouter.partition_threads governs the partition rounds;
        # workers=3 must still reproduce the serial result bit-identically.
        serial, serial_routes, _ = run_router(1)
        par, par_routes, _ = run_router(3)
        assert par_routes == serial_routes
        assert par.summary()["wire_length"] == serial.summary()["wire_length"]

    def test_degrades_cleanly_without_fork(self, monkeypatch):
        monkeypatch.setattr(pool, "fork_available", lambda: False)
        serial, serial_routes, _ = run_router(1)
        par, par_routes, _ = run_router(2)
        assert par.pool_degraded
        assert any(e["kind"] == "pool_unavailable" for e in par.pool_events)
        assert par_routes == serial_routes


@needs_fork
class TestCrashRecovery:
    def test_worker_kill_is_recovered(self):
        victim = round_zero_victim()
        plan = FaultPlan([FaultSpec("worker", nets=[victim], kind="kill")], seed=5)
        result, _routes, injector = run_router(2, fault_plan=plan)
        crashes = [e for e in result.pool_events if e["kind"] == "worker_crash"]
        assert crashes, result.pool_events
        assert victim in crashes[0]["charged_nets"]
        assert victim in result.routed
        assert len(result.routed) == 12
        assert injector.fire_count("worker") == 1
        assert not result.pool_degraded

    def test_worker_stall_is_killed_and_recovered(self):
        victim = round_zero_victim()
        plan = FaultPlan(
            [FaultSpec("worker", nets=[victim], kind="stall", stall_s=30.0)],
            seed=5,
        )
        result, _routes, _ = run_router(
            2, fault_plan=plan, region_timeout_s=2.0
        )
        timeouts = [e for e in result.pool_events if e["kind"] == "worker_timeout"]
        assert timeouts, result.pool_events
        assert victim in result.routed
        assert len(result.routed) == 12

    def test_repeated_crashes_degrade_pool_and_still_complete(self):
        # Unlimited kills on every net: every spawned worker dies, the
        # supervisor runs out of incident budget and degrades the whole
        # pool to in-process serial execution — which must still finish.
        chip = generate_chip(POOL_SPEC)
        names = [net.name for net in chip.nets]
        plan = FaultPlan(
            [FaultSpec("worker", nets=names, kind="kill", fires_per_net=None)],
            seed=5,
        )
        result, _routes, _ = run_router(2, fault_plan=plan)
        assert result.pool_degraded
        assert any(e["kind"] == "degraded" for e in result.pool_events)
        assert len(result.routed) == 12

    def test_crash_result_matches_serial(self):
        # Recovery must not change the answer, only the path taken.
        serial, serial_routes, _ = run_router(1)
        victim = round_zero_victim()
        plan = FaultPlan([FaultSpec("worker", nets=[victim], kind="kill")], seed=5)
        result, routes, _ = run_router(2, fault_plan=plan)
        assert routes == serial_routes
        assert result.routed == serial.routed


class TestRoundCheckpointResume:
    def _flow(self, **kwargs):
        from repro.flow.bonnroute import BonnRouteFlow

        return BonnRouteFlow(
            generate_chip(POOL_SPEC), gr_phases=4, seed=1, cleanup=False,
            **kwargs,
        )

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
    def test_kill_after_round_one_resumes_to_same_result(self, tmp_path, workers):
        import json

        path = str(tmp_path / "ckpt.json")
        baseline = self._flow().run()

        class Stop(Exception):
            pass

        flow = self._flow(workers=workers, checkpoint_path=path)
        orig_save = flow._save_checkpoint

        def kill_after_first_round(*args, **kwargs):
            orig_save(*args, **kwargs)
            partial = kwargs.get("detailed_partial")
            if partial and partial["rounds_done"] == 1:
                raise Stop()

        flow._save_checkpoint = kill_after_first_round
        with pytest.raises(Stop):
            flow.run()

        with open(path) as handle:
            checkpoint = json.load(handle)
        assert checkpoint["stage"] == "global"
        assert checkpoint["detailed_partial"]["rounds_done"] == 1

        resumed = self._flow(
            workers=workers, checkpoint_path=path, resume=True
        ).run()
        assert resumed.failure_report.resumed_from == "global+round1"
        assert resumed.metrics.netlength == baseline.metrics.netlength
        assert resumed.metrics.vias == baseline.metrics.vias
        assert (
            resumed.detailed_result.routed == baseline.detailed_result.routed
        )


@needs_fork
class TestSessionWorkers:
    def test_full_route_uses_the_session_pool_settings(self, monkeypatch):
        from repro.engine.session import RoutingSession

        seen = []
        original_run = DetailedRouter.run

        def recording_run(router, nets=None):
            if router.session is not None:
                seen.append((router.workers, router.region_timeout_s))
            return original_run(router, nets)

        monkeypatch.setattr(DetailedRouter, "run", recording_run)
        session = RoutingSession(
            generate_chip(POOL_SPEC), gr_phases=4, seed=1,
            workers=2, region_timeout_s=30.0,
        )
        session.route(cleanup=False)
        assert seen == [(2, 30.0)]


@needs_fork
class TestCliWorkers:
    def test_route_accepts_workers_flag(self, tmp_path):
        from repro.__main__ import main

        chip_path = str(tmp_path / "chip.txt")
        routes_path = str(tmp_path / "routes.txt")
        assert main([
            "generate", chip_path, "--rows", "2", "--cells", "4",
            "--nets", "4", "--seed", "2",
        ]) == 0
        assert main([
            "route", chip_path, routes_path, "--gr-phases", "6",
            "--no-cleanup", "--workers", "2", "--region-timeout", "30",
        ]) == 0
        assert open(routes_path).read().startswith("ROUTES")


@needs_fork
class TestFaultParity:
    def test_transient_fault_fires_identically_at_any_worker_count(self):
        victim = round_zero_victim()
        plan_kwargs = dict(nets=[victim], kind="raise")
        serial, serial_routes, serial_inj = run_router(
            1, fault_plan=FaultPlan([FaultSpec("path_search", **plan_kwargs)], seed=9)
        )
        par, par_routes, par_inj = run_router(
            2, fault_plan=FaultPlan([FaultSpec("path_search", **plan_kwargs)], seed=9)
        )
        assert [f[:2] for f in par_inj.fired] == [f[:2] for f in serial_inj.fired]
        assert par.routed == serial.routed
        assert par.failed == serial.failed
        assert par_routes == serial_routes


@needs_fork
class TestMetricRepatriation:
    """Worker counters/gauges/histograms must fold back into the parent."""

    def _routing_metrics(self):
        from repro.obs import OBS

        counters = {
            name: value
            for name, value in OBS.counters.items()
            if name.startswith(("pathsearch.", "droute."))
        }
        histograms = {
            name: (histogram.count, histogram.total)
            for name, histogram in OBS.histograms.items()
            if name == "pathsearch.labels_per_search"
        }
        return counters, histograms

    def test_parallel_histogram_and_counter_totals_match_serial(self):
        from repro.obs import OBS

        OBS.reset()
        OBS.configure(enabled=True)
        try:
            serial, _, _ = run_router(1)
            serial_counters, serial_histograms = self._routing_metrics()

            OBS.reset()
            OBS.configure(enabled=True)
            parallel, _, _ = run_router(2)
            parallel_counters, parallel_histograms = self._routing_metrics()
            parallel_gauges = dict(OBS.gauges)
        finally:
            OBS.reset()
            OBS.enabled = False

        assert serial.routed == parallel.routed
        # Merge conflicts would re-route nets in the parent and
        # double-count work; the healthy-run premise of this parity
        # check is conflict-free merging.
        assert parallel_counters.get("pool.merge_conflicts", 0) == 0
        assert serial_histograms["pathsearch.labels_per_search"][0] > 0
        assert parallel_histograms == serial_histograms
        assert parallel_counters == serial_counters
        # Gauges repatriate too: workers publish resource telemetry the
        # serial path never sets, and it must survive the merge.
        assert parallel_gauges.get("resource.rss_bytes", 0) > 0
        assert (
            parallel_gauges.get("resource.rss_peak_bytes", 0)
            >= parallel_gauges.get("resource.rss_bytes", 0)
        )
