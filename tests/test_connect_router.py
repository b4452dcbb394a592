"""Integration tests: net connection (Sec. 4.4) and the detailed router."""

import pytest

from repro.chip.generator import ChipSpec, generate_chip
from repro.drc.checker import DrcChecker
from repro.droute.area import RoutingArea
from repro.droute.connect import NetConnector
from repro.droute.partition import (
    assign_nets_to_rounds,
    balance_report,
    partition_sequence,
)
from repro.droute.pinaccess import PinAccessPlanner
from repro.droute.router import DetailedRouter
from repro.droute.space import RoutingSpace


@pytest.fixture(scope="module")
def routed():
    spec = ChipSpec("crtest", rows=3, row_width_cells=6, net_count=10, seed=7)
    chip = generate_chip(spec)
    space = RoutingSpace(chip)
    router = DetailedRouter(space)
    result = router.run()
    return chip, space, router, result


class TestConnector:
    def test_single_net_connects(self):
        spec = ChipSpec("conn1", rows=2, row_width_cells=4, net_count=4, seed=2)
        chip = generate_chip(spec)
        space = RoutingSpace(chip)
        planner = PinAccessPlanner(space)
        connector = NetConnector(space, planner=planner)
        net = chip.nets[0]
        result = connector.connect_net(net, RoutingArea.everywhere())
        assert result.success
        route = space.routes[net.name]
        assert route.wire_length > 0

    def test_route_electrically_connected(self):
        spec = ChipSpec("conn2", rows=2, row_width_cells=4, net_count=4, seed=2)
        chip = generate_chip(spec)
        space = RoutingSpace(chip)
        connector = NetConnector(space, planner=PinAccessPlanner(space))
        net = chip.nets[0]
        assert connector.connect_net(net, RoutingArea.everywhere()).success
        report = DrcChecker(space).run(spacing=False, same_net=False)
        assert report.opens <= len(chip.nets) - 1  # other nets unrouted

    def test_suspension_restores_pins(self):
        spec = ChipSpec("conn3", rows=2, row_width_cells=4, net_count=4, seed=2)
        chip = generate_chip(spec)
        space = RoutingSpace(chip)
        net = chip.nets[0]
        layer, rect = net.pins[0].shapes[0]
        before = len(space.shape_grid.query("wiring", layer, rect))
        token = space.suspend_net(net.name)
        during = len(space.shape_grid.query("wiring", layer, rect))
        space.restore_net(token)
        after = len(space.shape_grid.query("wiring", layer, rect))
        assert during < before
        assert after == before


class TestDetailedRouter:
    def test_all_nets_routed(self, routed):
        chip, space, router, result = routed
        assert result.failed == set()
        assert len(result.routed) == len(chip.nets)

    def test_no_opens(self, routed):
        chip, space, router, result = routed
        report = DrcChecker(space).run(spacing=False, same_net=False)
        assert report.opens == 0

    def test_wire_length_positive(self, routed):
        _chip, _space, _router, result = routed
        assert result.wire_length > 0
        assert result.via_count > 0

    def test_critical_nets_first(self):
        # Record the first attempts in the order the run makes them.
        chip = generate_chip(
            ChipSpec("crtest", rows=3, row_width_cells=6, net_count=10, seed=7)
        )
        chip.nets[7].weight = 2.0
        chip.nets[3].weight = 3.0
        router = DetailedRouter(RoutingSpace(chip))
        first_tries = []
        attempt = router._attempt

        def recording_attempt(net, attempt_index, rung, stage_deadline):
            if attempt_index == 0 and net.name not in first_tries:
                first_tries.append(net.name)
            return attempt(net, attempt_index, rung, stage_deadline)

        router._attempt = recording_attempt
        router.run()
        assert first_tries[:2] == ["n3", "n7"]
        assert sorted(first_tries[2:]) == sorted(
            net.name for net in chip.nets if net.weight <= 1.0
        )

    def test_summary_fields(self, routed):
        *_, result = routed
        summary = result.summary()
        for key in ("nets", "routed", "failed", "opens", "wire_length", "vias"):
            assert key in summary

    def test_fast_grid_hit_rate_high(self, routed):
        _chip, space, *_ = routed
        assert space.fast_grid.hit_rate > 0.7

    def test_corridor_restriction_respected(self):
        spec = ChipSpec("corr", rows=2, row_width_cells=4, net_count=4, seed=2)
        chip = generate_chip(spec)
        space = RoutingSpace(chip)
        net = chip.nets[0]
        box = net.bounding_box().expanded(10 * 80)
        clipped = box.intersection(chip.die) or chip.die
        corridors = {
            net.name: RoutingArea.from_boxes(
                [(z, clipped) for z in chip.stack.indices]
            )
        }
        router = DetailedRouter(space, corridors=corridors)
        result = router.run([net])
        assert net.name in result.routed
        route = space.routes[net.name]
        margin = 8 * 80 * (router.max_retry_rounds + 1)
        for stick in route.wires:
            assert clipped.expanded(margin).contains_rect(stick.as_rect())


class TestPartition:
    def test_sequence_shrinks_to_one_region(self):
        spec = ChipSpec("part", rows=2, row_width_cells=4, net_count=4, seed=2)
        chip = generate_chip(spec)
        sequence = partition_sequence(chip, threads=4)
        assert len(sequence[-1].regions) == 1
        counts = [len(r.regions) for r in sequence]
        assert counts == sorted(counts, reverse=True)

    def test_regions_cover_die(self):
        spec = ChipSpec("part2", rows=2, row_width_cells=4, net_count=4, seed=2)
        chip = generate_chip(spec)
        for part in partition_sequence(chip, threads=4):
            total = sum(r.area for r in part.regions)
            assert total == chip.die.area

    def test_every_net_assigned(self):
        spec = ChipSpec("part3", rows=3, row_width_cells=6, net_count=10, seed=7)
        chip = generate_chip(spec)
        sequence = partition_sequence(chip, threads=4)
        rounds = assign_nets_to_rounds(chip, sequence)
        assigned = [net.name for round_nets in rounds for _r, net in round_nets]
        assert sorted(assigned) == sorted(n.name for n in chip.nets)

    def test_balance_report_structure(self):
        spec = ChipSpec("part4", rows=3, row_width_cells=6, net_count=10, seed=7)
        chip = generate_chip(spec)
        sequence = partition_sequence(chip, threads=4)
        rounds = assign_nets_to_rounds(chip, sequence)
        report = balance_report(rounds)
        assert len(report) == len(sequence)
        for row in report:
            assert row["max_share"] >= 0.0

    def test_bad_thread_count_rejected(self):
        spec = ChipSpec("part5", rows=2, row_width_cells=4, net_count=4, seed=2)
        chip = generate_chip(spec)
        with pytest.raises(ValueError):
            partition_sequence(chip, threads=0)
