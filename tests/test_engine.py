"""Engine-layer tests: RoutingSession, ECO changes, incremental reroute.

Covers the incremental-routing acceptance criteria: a seeded ECO pass
editing <= 5 % of the nets re-routes only the dirty/conflict set
(verified through the ``engine.nets_rerouted`` counter and the ECO
pass's ``droute.net`` span count being >= 5x smaller than the full
flow's), stays DRC-clean relative to a from-scratch reroute of the
edited chip, and lands within 2 % of it on netlength and via count.
Plus unit coverage for the change vocabulary, dirty tracking,
conflict/capacity propagation, session checkpointing (schema v2) and
the dirty-subset partition assignment.
"""

import pytest

from repro.baseline.cleanup import DrcCleanup
from repro.chip.generator import ChipSpec, generate_chip
from repro.chip.net import Net, Pin
from repro.drc.checker import DrcChecker
from repro.droute.partition import assign_nets_to_rounds, partition_sequence
from repro.engine.changes import (
    AddNet,
    MovePin,
    RemoveNet,
    ResizeBlockage,
    change_from_dict,
    changes_from_json,
    changes_to_json,
)
from repro.engine.dirty import (
    REASON_ADDED,
    REASON_CAPACITY,
    REASON_CONFLICT,
    REASON_EDITED,
    REASON_RIPUP,
    DirtyTracker,
)
from repro.engine.session import (
    STATUS_ROUTED,
    RoutingSession,
)
from repro.geometry.rect import Rect
from repro.groute.graph import GlobalRoute
from repro.io.checkpoint import (
    CHECKPOINT_VERSION,
    SCHEMA_NAME,
    CheckpointError,
    build_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.obs import OBS
from repro.tech.wiring import StickFigure

MINI_SPEC = ChipSpec("engmini", rows=2, row_width_cells=4, net_count=6, seed=3)


@pytest.fixture(autouse=True)
def _clean_singleton():
    """The process-wide OBS singleton must not leak state across tests."""
    OBS.reset()
    OBS.enabled = False
    yield
    OBS.reset()
    OBS.enabled = False


@pytest.fixture
def mini_session():
    return RoutingSession(generate_chip(MINI_SPEC))


class TestDirtyTracker:
    def test_first_reason_sticks(self):
        tracker = DirtyTracker()
        assert tracker.mark("a", REASON_EDITED)
        assert not tracker.mark("a", REASON_CONFLICT, propagated=True)
        assert tracker.reason("a") == REASON_EDITED
        assert tracker.propagated_names() == set()

    def test_direct_mark_upgrades_propagated(self):
        tracker = DirtyTracker()
        tracker.mark("a", REASON_CONFLICT, propagated=True)
        assert tracker.propagated_names() == {"a"}
        tracker.mark("a", REASON_EDITED)
        assert tracker.reason("a") == REASON_EDITED
        assert tracker.propagated_names() == set()

    def test_discard_and_histogram(self):
        tracker = DirtyTracker()
        tracker.mark("a", REASON_EDITED)
        tracker.mark("b", REASON_RIPUP, propagated=True)
        tracker.mark("c", REASON_RIPUP, propagated=True)
        assert tracker.reasons_histogram() == {
            REASON_EDITED: 1, REASON_RIPUP: 2,
        }
        tracker.discard("b")
        assert tracker.names() == {"a", "c"}
        assert tracker.propagated_names() == {"c"}
        assert len(tracker) == 2 and "a" in tracker and bool(tracker)
        tracker.clear()
        assert not tracker


class TestChangeSerialization:
    def test_round_trip_all_ops(self):
        net = Net(
            "eco_new",
            [
                Pin("p0", [(1, Rect(100, 100, 140, 140))]),
                Pin("p1", [(1, Rect(500, 100, 540, 140))]),
            ],
            wire_type="default",
            weight=2.0,
        )
        changes = [
            AddNet(net),
            RemoveNet("gone"),
            MovePin("n1", "0/A", 40, -80),
            ResizeBlockage(2, expand=120),
            ResizeBlockage(0, rect=Rect(0, 0, 400, 80)),
        ]
        parsed = changes_from_json(changes_to_json(changes))
        assert [c.op for c in parsed] == [c.op for c in changes]
        assert parsed[0].net.name == "eco_new"
        assert parsed[0].net.pins[0].shapes == [(1, Rect(100, 100, 140, 140))]
        assert parsed[0].net.weight == 2.0
        assert parsed[1].net_name == "gone"
        assert (parsed[2].dx, parsed[2].dy) == (40, -80)
        assert parsed[3].expand == 120 and parsed[3].rect is None
        assert parsed[4].rect == Rect(0, 0, 400, 80)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown ECO op"):
            change_from_dict({"op": "teleport_net"})
        with pytest.raises(ValueError, match="changes"):
            changes_from_json({"edits": []})

    def test_resize_wants_exactly_one_spec(self):
        with pytest.raises(ValueError):
            ResizeBlockage(0)
        with pytest.raises(ValueError):
            ResizeBlockage(0, rect=Rect(0, 0, 1, 1), expand=5)

    def test_bad_pin_shape_rejected(self):
        with pytest.raises(ValueError, match="pin shape"):
            change_from_dict(
                {"op": "add_net", "net": "x",
                 "pins": [{"name": "p", "shapes": [[1, 2, 3]]}]}
            )


class TestApplyChanges:
    def test_add_net_marks_added(self, mini_session):
        session = mini_session
        chip = session.chip
        before = len(chip.nets)
        net = Net(
            "eco_new",
            [
                Pin("p0", [(1, Rect(420, 420, 460, 460))]),
                Pin("p1", [(1, Rect(1220, 420, 1260, 460))]),
            ],
        )
        count = session.apply_changes([AddNet(net)])
        assert count == len(session.dirty)
        assert len(chip.nets) == before + 1
        assert chip.net("eco_new") is net
        assert "eco_new" in session.records
        assert session.dirty.reason("eco_new") == REASON_ADDED
        assert "eco_new" not in session.dirty.propagated_names()

    def test_move_pin_translates_shapes(self, mini_session):
        session = mini_session
        net = session.chip.nets[0]
        pin = net.pins[-1]
        old_shapes = list(pin.shapes)
        session.apply_changes([MovePin(net.name, pin.name, 40, -40)])
        assert pin.shapes == [
            (layer, rect.translated(40, -40)) for layer, rect in old_shapes
        ]
        assert pin.circuit_id is None
        assert session.dirty.reason(net.name) == REASON_EDITED

    def test_move_pin_conflict_propagates(self, mini_session):
        session = mini_session
        net = session.chip.nets[0]
        pin = net.pins[-1]
        victim = session.chip.nets[1].name
        layer, rect = pin.shapes[0]
        dx = 160
        target = rect.translated(dx, 0)
        mid_y = (target.y_lo + target.y_hi) // 2
        # Routed wiring of another net right where the pin lands.
        session.space.add_wire(
            victim,
            "default",
            StickFigure(layer, target.x_lo, mid_y, target.x_hi + 200, mid_y),
        )
        session.apply_changes([MovePin(net.name, pin.name, dx, 0)])
        assert victim in session.dirty
        assert session.dirty.reason(victim) == REASON_CONFLICT
        assert victim in session.dirty.propagated_names()

    def test_move_pin_unknown_pin_raises(self, mini_session):
        net = mini_session.chip.nets[0]
        with pytest.raises(KeyError, match="no pin"):
            mini_session.apply_changes([MovePin(net.name, "nope", 1, 1)])

    def test_remove_net_drops_record_and_wiring(self, mini_session):
        session = mini_session
        name = session.chip.nets[0].name
        session.space.add_wire(
            name, "default", StickFigure(1, 400, 440, 800, 440)
        )
        assert session.space.routes[name].wires
        session.dirty.mark(name, REASON_EDITED)
        session.apply_changes([RemoveNet(name)])
        with pytest.raises(KeyError):
            session.chip.net(name)
        assert name not in session.records
        assert name not in session.dirty
        assert name not in session.space.routes
        # Its pin shapes left the grid: nothing conflicts there any more.
        assert all(
            name not in session.space.conflicting_nets(layer, rect)
            for net in session.chip.nets
            for layer, rect in [(1, session.chip.die)]
        )

    def test_remove_unknown_net_raises_before_mutation(self, mini_session):
        records_before = dict(mini_session.records)
        with pytest.raises(KeyError):
            mini_session.apply_changes([RemoveNet("ghost")])
        assert mini_session.records == records_before

    def test_resize_blockage_marks_geometry_and_capacity(self, mini_session):
        session = mini_session
        chip = session.chip
        blockage = chip.blockages[0]
        graph = session.graph
        # A net whose (fabricated) global route crosses a tile edge
        # incident to the blockage: capacity propagation must catch it.
        cap_victim = chip.nets[2].name
        node = (*graph.tile_of_point(blockage.rect.x_lo, blockage.rect.y_lo),
                blockage.layer)
        _other, edge = next(iter(graph.neighbors(node)))
        session.record(cap_victim).global_route = GlobalRoute(
            cap_victim, {edge}
        )
        # A net with wiring inside the blockage's new extent: geometry
        # conflict propagation must catch it too.
        geo_victim = chip.nets[3].name
        mid_y = (blockage.rect.y_lo + blockage.rect.y_hi) // 2
        session.space.add_wire(
            geo_victim,
            "default",
            StickFigure(
                blockage.layer, blockage.rect.x_lo + 40, mid_y,
                blockage.rect.x_lo + 400, mid_y,
            ),
        )
        old_rect = blockage.rect
        session.apply_changes([ResizeBlockage(0, expand=40)])
        assert blockage.rect == old_rect.expanded(40)
        assert session.dirty.reason(cap_victim) == REASON_CAPACITY
        assert session.dirty.reason(geo_victim) == REASON_CONFLICT
        assert {cap_victim, geo_victim} <= session.dirty.propagated_names()
        assert session._capacities_stale

    def test_resize_blockage_bad_index(self, mini_session):
        with pytest.raises(IndexError, match="no blockage"):
            mini_session.apply_changes(
                [ResizeBlockage(len(mini_session.chip.blockages), expand=1)]
            )


class TestSessionState:
    def test_state_round_trip(self, mini_session):
        session = mini_session
        names = [net.name for net in session.chip.nets]
        session.record(names[0]).status = STATUS_ROUTED
        session.record(names[0]).prerouted = True
        session.record(names[1]).is_local = True
        session.record(names[1]).corridor_detour = 1.25
        session.record(names[1]).access_pins = ["0/A", "1/Z"]
        session.dirty.mark(names[2], REASON_CAPACITY, propagated=True)
        state = session.session_state()

        other = RoutingSession(generate_chip(MINI_SPEC))
        other.restore_state(state)
        assert other.record(names[0]).status == STATUS_ROUTED
        assert other.record(names[0]).prerouted
        assert other.record(names[1]).is_local
        assert other.record(names[1]).corridor_detour == 1.25
        assert other.record(names[1]).access_pins == ["0/A", "1/Z"]
        assert other.dirty.names() == {names[2]}
        assert other.dirty.reason(names[2]) == REASON_CAPACITY
        assert other.session_state() == state


class TestCheckpointVersioning:
    def test_v1_checkpoint_rejected_with_clear_error(self, tmp_path):
        path = str(tmp_path / "old.json")
        save_checkpoint(path, {"version": 1, "stage": "global", "chip": "c"})
        with pytest.raises(CheckpointError, match="pre-engine"):
            load_checkpoint(path)

    def test_foreign_schema_rejected(self, tmp_path):
        path = str(tmp_path / "foreign.json")
        save_checkpoint(
            path, {"schema": "other-tool", "version": CHECKPOINT_VERSION}
        )
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(path)

    def test_v2_round_trip_carries_session_payload(self, tmp_path, mini_session):
        session = mini_session
        name = session.chip.nets[0].name
        session.record(name).status = STATUS_ROUTED
        session.dirty.mark(name, REASON_EDITED)
        checkpoint = build_checkpoint(
            stage="detailed",
            chip_name=session.chip.name,
            seed=1,
            tile_size=session.graph.tile_size,
            routes={},
            global_routes={},
            local_nets=[],
            prerouted=[],
            session=session.session_state(),
        )
        assert checkpoint["schema"] == SCHEMA_NAME
        assert checkpoint["version"] == CHECKPOINT_VERSION
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, checkpoint)
        loaded = load_checkpoint(path, chip_name=session.chip.name, seed=1)
        assert loaded is not None
        restored = RoutingSession(generate_chip(MINI_SPEC))
        restored.restore_state(loaded["session"])
        assert restored.record(name).status == STATUS_ROUTED
        assert restored.dirty.names() == {name}
        assert restored.session_state() == session.session_state()


class TestPartitionDirtySubset:
    def test_subset_assignment_resolves_names_and_dedups(self):
        chip = generate_chip(
            ChipSpec("engpart", rows=3, row_width_cells=6, net_count=10, seed=7)
        )
        sequence = partition_sequence(chip, threads=4)
        subset = [net.name for net in chip.nets[:3]]
        mixed = subset + [chip.net(subset[0]), subset[1]]  # dupes + Net objects
        rounds = assign_nets_to_rounds(chip, sequence, nets=mixed)
        assigned = [net.name for round_nets in rounds for _r, net in round_nets]
        assert sorted(assigned) == sorted(subset)

    def test_default_still_covers_every_net(self):
        chip = generate_chip(
            ChipSpec("engpart2", rows=2, row_width_cells=4, net_count=6, seed=2)
        )
        sequence = partition_sequence(chip, threads=2)
        rounds = assign_nets_to_rounds(chip, sequence)
        assigned = [net.name for round_nets in rounds for _r, net in round_nets]
        assert sorted(assigned) == sorted(net.name for net in chip.nets)


# ----------------------------------------------------------------------
# End-to-end ECO acceptance: full route once, edit <= 5 % of the nets,
# re-route incrementally, compare against a from-scratch run.
# ----------------------------------------------------------------------
ECO_SPEC = ChipSpec("ecotest", rows=3, row_width_cells=6, net_count=20, seed=7)


def _pick_eco_edit(chip, space):
    """A deterministic pin move that stays inside the die.

    Chosen against the *routed* space: of the pins with room to move,
    take the one whose destination conflicts with the fewest routed
    nets, so the ECO touches a genuinely small neighbourhood (ties
    broken by name for determinism).
    """
    dx = 240
    candidates = []
    for net in chip.nets:
        for pin in net.pins:
            box = pin.bounding_box()
            if box.x_hi + dx > chip.die.x_hi - 80:
                continue
            conflicts = set()
            for layer, rect in pin.shapes:
                conflicts |= space.conflicting_nets(layer, rect.translated(dx, 0))
            conflicts.discard(net.name)
            candidates.append((len(conflicts), net.name, pin.name))
    assert candidates, "no pin can move right by 240 dbu"
    _count, net_name, pin_name = min(candidates)
    return MovePin(net_name, pin_name, dx, 0)


class EcoScenario:
    """Shared measurements of the full-flow + ECO + from-scratch runs."""


@pytest.fixture(scope="module")
def eco(tmp_path_factory):
    from repro.flow.bonnroute import BonnRouteFlow

    scenario = EcoScenario()
    chip = generate_chip(ECO_SPEC)
    checkpoint_path = str(tmp_path_factory.mktemp("eco") / "ckpt.json")

    OBS.reset()
    OBS.configure(enabled=True)
    result = BonnRouteFlow(
        chip, gr_phases=6, seed=1, cleanup=False,
        checkpoint_path=checkpoint_path,
    ).run()
    scenario.full_droute_spans = int(
        OBS.span_totals.get("droute.net", [0, 0.0])[0]
    )
    scenario.full_failed = set(result.detailed_result.failed)
    session = result.session
    scenario.session = session
    scenario.chip = chip
    scenario.checkpoint_path = checkpoint_path
    scenario.state_after_full = session.session_state()

    change = _pick_eco_edit(chip, session.space)
    scenario.change = change

    OBS.reset()
    OBS.configure(enabled=True)
    scenario.dirty_count = session.apply_changes([change])
    scenario.report = session.reroute(cleanup=False)
    scenario.eco_droute_spans = int(
        OBS.span_totals.get("droute.net", [0, 0.0])[0]
    )
    scenario.eco_counters = dict(OBS.counters)
    OBS.reset()
    OBS.enabled = False
    # The cleanup finisher runs outside the span measurement (it is the
    # same finisher for both flows and must not distort the span ratio).
    DrcCleanup(session.space).run()
    scenario.eco_netlength = session.space.total_wire_length()
    scenario.eco_vias = session.space.total_via_count()
    scenario.eco_drc_errors = DrcChecker(session.space).run().error_count

    # From-scratch reference: the same edit applied to a fresh chip,
    # then a full (non-incremental) route of it.
    chip2 = generate_chip(ECO_SPEC)
    scratch = RoutingSession(chip2, gr_phases=6, seed=1)
    scratch.apply_changes(
        [MovePin(change.net_name, change.pin_name, change.dx, change.dy)]
    )
    scratch_result = scratch.route(cleanup=True)
    scenario.scratch_netlength = scratch_result.space.total_wire_length()
    scenario.scratch_vias = scratch_result.space.total_via_count()
    scenario.scratch_drc_errors = scratch_result.metrics.errors
    scenario.scratch_failed = set(scratch_result.detailed_result.failed)
    return scenario


class TestEcoAcceptance:
    def test_full_flow_populates_records(self, eco):
        session = eco.session
        names = {net.name for net in eco.chip.nets}
        assert names <= set(session.records)
        routed = session.routed_names()
        assert routed, "full flow routed nothing"
        for name in routed:
            rec = session.records[name]
            assert rec.status == STATUS_ROUTED
            assert rec.corridor is not None or rec.prerouted
        assert not session.dirty.names() - eco.full_failed

    def test_edit_is_at_most_five_percent(self, eco):
        edited_nets = {eco.change.net_name}
        assert len(edited_nets) <= max(1, len(eco.chip.nets) * 5 // 100)

    def test_dirty_set_is_small_and_reported(self, eco):
        report = eco.report
        assert report.nets_total == len(eco.chip.nets)
        assert report.nets_dirty == eco.dirty_count
        assert 1 <= report.nets_dirty <= report.nets_total // 4
        assert report.dirty_reasons.get(REASON_EDITED, 0) >= 1
        assert report.ripups_propagated >= 0

    def test_reroutes_only_the_dirty_set(self, eco):
        report = eco.report
        # Everything rerouted entered through an edit or propagation,
        # never the frozen remainder of the chip.
        assert report.nets_rerouted <= report.nets_dirty + report.ripups_propagated
        assert report.nets_rerouted <= report.nets_total // 4
        assert eco.eco_counters.get("engine.nets_rerouted") == report.nets_rerouted
        assert eco.eco_counters.get("engine.changes_applied") == 1
        assert eco.eco_counters.get("engine.nets_dirty", 0) >= 1

    def test_eco_is_five_times_cheaper_than_full_flow(self, eco):
        assert eco.eco_droute_spans >= 1
        assert eco.full_droute_spans >= 5 * eco.eco_droute_spans, (
            f"ECO pass routed {eco.eco_droute_spans} nets vs "
            f"{eco.full_droute_spans} in the full flow"
        )

    def test_eco_result_is_drc_clean(self, eco):
        assert eco.report.nets_failed <= len(eco.scratch_failed)
        assert eco.eco_drc_errors <= eco.scratch_drc_errors

    def test_eco_metrics_match_from_scratch_within_two_percent(self, eco):
        assert eco.eco_netlength == pytest.approx(
            eco.scratch_netlength, rel=0.02
        )
        assert eco.eco_vias == pytest.approx(eco.scratch_vias, rel=0.02)

    def test_dirty_state_cleared_after_reroute(self, eco):
        assert not eco.session.dirty

    def test_checkpoint_is_v2_with_session_payload(self, eco):
        loaded = load_checkpoint(
            eco.checkpoint_path, chip_name=eco.chip.name, seed=1
        )
        assert loaded is not None
        assert loaded["schema"] == SCHEMA_NAME
        assert loaded["version"] == CHECKPOINT_VERSION
        payload = loaded["session"]
        assert payload is not None
        restored = RoutingSession(generate_chip(ECO_SPEC))
        restored.restore_state(payload)
        full = eco.state_after_full["records"]
        for name, record in (payload.get("records") or {}).items():
            assert restored.record(name).as_dict() == record
            assert record["status"] == full[name]["status"]
