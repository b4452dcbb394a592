"""Tests for the fault-tolerant runtime (deadlines, ladder, checkpoints).

Covers the resilience building blocks in isolation and their integration
into the detailed router and the BonnRoute flow:

* escalation-ladder order and rung parameters;
* retry exhaustion producing a structured ``NetFailure`` (no exception);
* deadline expiry mid-search leaving the routing space consistent;
* checkpoint -> kill -> resume producing the same metrics as an
  uninterrupted run with the same seed.
"""

import pytest

from repro.chip.generator import ChipSpec, generate_chip
from repro.flow.bonnroute import BonnRouteFlow
from repro.flow.faults import FaultPlan, FaultSpec
from repro.flow.resilience import (
    Deadline,
    DeadlineExceeded,
    NetFailure,
    FlowFailureReport,
    REASON_EXCEPTION,
    REASON_RETRIES_EXHAUSTED,
    escalation_ladder,
)
from repro.grid.shapegrid import RipupLevel
from repro.io.checkpoint import load_checkpoint


def _chip(name="resil", nets=6, seed=3):
    return generate_chip(
        ChipSpec(name, rows=2, row_width_cells=5, net_count=nets, seed=seed)
    )


class TestDeadline:
    def test_never_expires_without_budget(self):
        deadline = Deadline(None)
        deadline.check()
        assert not deadline.expired
        assert deadline.remaining is None

    def test_expiry_with_fake_clock(self):
        now = [0.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        deadline.check()
        now[0] = 4.9
        assert not deadline.expired
        now[0] = 5.1
        assert deadline.expired
        with pytest.raises(DeadlineExceeded):
            deadline.check()

    def test_soonest_picks_tightest(self):
        now = [0.0]
        short = Deadline(1.0, clock=lambda: now[0])
        long = Deadline(10.0, clock=lambda: now[0])
        assert Deadline.soonest(long, short) is short
        assert Deadline.soonest(None, long) is long
        assert Deadline.soonest(None, Deadline(None)) is None


class TestEscalationLadder:
    def test_rung_order(self):
        ladder = escalation_ladder(max_retry_rounds=2)
        assert [r.name for r in ladder] == [
            "baseline",
            "expanded_corridor_1",
            "expanded_corridor_2",
            "off_track",
            "isr_fallback",
        ]

    def test_rung_parameters_escalate(self):
        ladder = escalation_ladder(max_retry_rounds=2)
        baseline, exp1, exp2, off_track, isr = ladder
        assert baseline.ripup_level == -2
        assert exp1.ripup_level == int(RipupLevel.RESERVED)
        assert exp2.ripup_level == int(RipupLevel.NORMAL)
        assert exp1.corridor_expansion == 1
        assert exp2.corridor_expansion == 2
        # The degraded rungs drop the corridor and force off-track access.
        assert off_track.corridor_expansion is None
        assert off_track.force_off_track_access
        assert off_track.engine == "interval"
        assert isr.engine == "isr"
        assert isr.force_off_track_access

    def test_ladder_scales_with_retry_rounds(self):
        assert len(escalation_ladder(max_retry_rounds=1)) == 4
        assert len(escalation_ladder(max_retry_rounds=3)) == 6


class TestNetFailure:
    def test_round_trip(self):
        failure = NetFailure(
            "n1", "detailed", REASON_EXCEPTION, attempts=3,
            rungs_tried=["baseline", "off_track"], error="boom",
            open_connections=1,
        )
        assert NetFailure.from_dict(failure.as_dict()).as_dict() == failure.as_dict()

    def test_report_histogram_and_recovery(self):
        report = FlowFailureReport()
        report.record_failure(NetFailure("a", "detailed", REASON_EXCEPTION))
        report.record_failure(
            NetFailure("b", "detailed", REASON_RETRIES_EXHAUSTED)
        )
        report.record_failure(NetFailure("c", "detailed", REASON_EXCEPTION))
        assert report.reasons_histogram() == {
            REASON_EXCEPTION: 2, REASON_RETRIES_EXHAUSTED: 1,
        }
        report.record_recovery("a", "off_track")
        assert "a" not in report.net_failures
        assert report.recovered_nets == {"a": "off_track"}


class TestRetryExhaustion:
    def test_persistent_fault_yields_net_failure_not_exception(self):
        """A net whose interval search always faults must come out as a
        structured failure or an isr_fallback recovery - never a raise."""
        chip = _chip("exhaust", nets=6, seed=3)
        victim = chip.nets[0].name
        plan = FaultPlan(
            [FaultSpec("path_search", nets=[victim], fires_per_net=None)],
            seed=1,
        )
        result = BonnRouteFlow(
            chip, gr_phases=4, seed=1, cleanup=False, fault_plan=plan
        ).run()
        detailed = result.detailed_result
        if victim in detailed.failed:
            failure = detailed.failures[victim]
            assert failure.reason in ("exception", "unroutable")
            assert failure.attempts >= 1
            assert "baseline" in failure.rungs_tried
            assert victim in result.failure_report.net_failures
        else:
            # The node-search fallback engine survives interval faults.
            assert detailed.recovered.get(victim) == "isr_fallback"

    def test_failures_reach_flow_metrics(self):
        chip = _chip("metrics", nets=6, seed=3)
        victim = chip.nets[0].name
        plan = FaultPlan(
            [
                FaultSpec("path_search", nets=[victim], fires_per_net=None),
                FaultSpec("pin_access", nets=[victim], fires_per_net=None),
            ],
            seed=1,
        )
        result = BonnRouteFlow(
            chip, gr_phases=4, seed=1, cleanup=False, fault_plan=plan
        ).run()
        metrics = result.metrics.as_dict()
        assert "failed_nets" in metrics and "failure_reasons" in metrics
        if result.detailed_result.failed:
            assert metrics["failed_nets"] == sorted(
                result.detailed_result.failed
            )


def _assert_no_half_committed_wiring(space, detailed):
    """Nets not reported as routed may hold only RESERVED-level wiring
    (pin-access reservations made during preprocessing) - an aborted
    search must never leave NORMAL/CRITICAL route wiring behind."""
    reserved = int(RipupLevel.RESERVED)
    routed = set(detailed.routed)
    for name, route in space.routes.items():
        if name in routed or route.is_empty():
            continue
        levels = [lvl for _item, lvl, _t in route.wire_items()]
        levels += [lvl for _item, lvl, _t in route.via_items()]
        assert all(lvl == reserved for lvl in levels), (
            name, sorted(set(levels)),
        )


class TestDeadlineMidSearch:
    def test_expired_deadline_leaves_space_consistent(self):
        """An already-expired stage budget aborts every net before any
        route wiring commits; the space stays consistent."""
        chip = _chip("dead", nets=4, seed=2)
        flow = BonnRouteFlow(
            chip, gr_phases=4, seed=1, cleanup=False, stage_budget_s=0.0
        )
        result = flow.run()
        detailed = result.detailed_result
        # Every non-prerouted net must be accounted for as a failure
        # (stage budget or timeout), not silently dropped.
        assert detailed.failed, "a zero stage budget must fail the nets"
        for name in detailed.failed:
            assert name in detailed.failures
            assert detailed.failures[name].reason in (
                "timeout", "stage-budget", "unroutable", "exception",
            )
        _assert_no_half_committed_wiring(result.space, detailed)

    def test_net_deadline_failure_reports_timeout(self):
        chip = _chip("timeout", nets=4, seed=2)
        flow = BonnRouteFlow(
            chip, gr_phases=4, seed=1, cleanup=False, net_timeout_s=0.0
        )
        result = flow.run()
        detailed = result.detailed_result
        assert detailed.failed, "a zero net deadline must fail the nets"
        for name in detailed.failed:
            assert detailed.failures[name].reason == "timeout"
        _assert_no_half_committed_wiring(result.space, detailed)

    def test_expired_connector_deadline_commits_nothing(self):
        """Unit-level: connect_net with an expired deadline returns
        deadline_expired and leaves wire/via totals untouched."""
        from repro.droute.area import RoutingArea
        from repro.droute.router import DetailedRouter
        from repro.droute.space import RoutingSpace

        chip = _chip("unit", nets=4, seed=2)
        space = RoutingSpace(chip)
        router = DetailedRouter(space)
        router.preprocess_pin_access(chip.nets)
        before = {
            name: (len(route.wires), len(route.vias))
            for name, route in space.routes.items()
        }
        now = [0.0]
        expired = Deadline(1.0, clock=lambda: now[0])
        now[0] = 10.0
        connection = router.connector.connect_net(
            chip.nets[0], RoutingArea.everywhere(), deadline=expired
        )
        assert connection.deadline_expired
        assert not connection.success
        after = {
            name: (len(route.wires), len(route.vias))
            for name, route in space.routes.items()
        }
        assert after == before


class TestCheckpointResume:
    def _metric_fields(self, metrics):
        d = metrics.as_dict()
        return {
            k: d[k]
            for k in ("netlength", "vias", "scenic_25", "scenic_50",
                      "errors", "failed_nets")
        }

    def test_kill_after_global_then_resume_matches(self, tmp_path):
        spec = ChipSpec("ckpt", rows=2, row_width_cells=5, net_count=8, seed=3)
        baseline = BonnRouteFlow(
            generate_chip(spec), gr_phases=5, seed=1, cleanup=False
        ).run()

        path = str(tmp_path / "flow.ckpt.json")

        class Killed(Exception):
            pass

        class KillAfterGlobal(BonnRouteFlow):
            def _detailed_router(self, space, session):
                raise Killed()

        with pytest.raises(Killed):
            KillAfterGlobal(
                generate_chip(spec), gr_phases=5, seed=1, cleanup=False,
                checkpoint_path=path,
            ).run()
        checkpoint = load_checkpoint(path)
        assert checkpoint is not None and checkpoint["stage"] == "global"

        resumed = BonnRouteFlow(
            generate_chip(spec), gr_phases=5, seed=1, cleanup=False,
            checkpoint_path=path, resume=True,
        ).run()
        assert resumed.failure_report.resumed_from == "global"
        assert self._metric_fields(resumed.metrics) == self._metric_fields(
            baseline.metrics
        )

    def test_resume_after_detailed_skips_rerouting(self, tmp_path):
        spec = ChipSpec("ckpt2", rows=2, row_width_cells=4, net_count=5, seed=2)
        path = str(tmp_path / "flow.ckpt.json")
        first = BonnRouteFlow(
            generate_chip(spec), gr_phases=4, seed=1, cleanup=False,
            checkpoint_path=path,
        ).run()
        checkpoint = load_checkpoint(path)
        assert checkpoint["stage"] == "detailed"

        resumed = BonnRouteFlow(
            generate_chip(spec), gr_phases=4, seed=1, cleanup=False,
            checkpoint_path=path, resume=True,
        ).run()
        assert resumed.failure_report.resumed_from == "detailed"
        assert resumed.detailed_result.routed == first.detailed_result.routed
        assert self._metric_fields(resumed.metrics) == self._metric_fields(
            first.metrics
        )

    def test_checkpoint_rejects_wrong_chip(self, tmp_path):
        from repro.io.checkpoint import CheckpointError

        spec = ChipSpec("right", rows=2, row_width_cells=4, net_count=4, seed=2)
        path = str(tmp_path / "flow.ckpt.json")
        BonnRouteFlow(
            generate_chip(spec), gr_phases=4, seed=1, cleanup=False,
            checkpoint_path=path,
        ).run()
        with pytest.raises(CheckpointError):
            load_checkpoint(path, chip_name="wrong")
        with pytest.raises(CheckpointError):
            load_checkpoint(path, seed=999)


class TestInjectedRecoveryRate:
    def test_ladder_recovers_most_injected_nets(self):
        """The ISSUE acceptance scenario: transient path-search faults on
        ~10 % of nets; the flow completes, routes >= 90 % of the injected
        nets via the ladder, and reports the rest as structured opens."""
        chip = generate_chip(
            ChipSpec("inject", rows=3, row_width_cells=6, net_count=12, seed=5)
        )
        plan = FaultPlan.parse(["path_search:0.35"], seed=11)
        injected = plan.injected_nets(
            "path_search", [n.name for n in chip.nets]
        )
        assert injected, "plan must inject at least one net"
        result = BonnRouteFlow(
            chip, gr_phases=4, seed=1, cleanup=False, fault_plan=plan
        ).run()
        detailed = result.detailed_result
        recovered = [n for n in injected if n in detailed.routed]
        assert len(recovered) >= 0.9 * len(injected)
        for name in injected:
            if name not in detailed.routed:
                assert name in detailed.failures
