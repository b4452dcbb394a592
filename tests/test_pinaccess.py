"""Tests for off-track pin access (Sec. 4.3, Fig. 7)."""

import hashlib

import pytest

from repro.chip.cells import CellTemplate, CircuitInstance
from repro.chip.design import Chip
from repro.chip.generator import ChipSpec, generate_chip
from repro.chip.net import Net, Pin
from repro.droute import pinaccess
from repro.droute.pinaccess import PinAccessPlanner
from repro.droute.router import DetailedRouter
from repro.droute.space import RoutingSpace
from repro.geometry.rect import Rect
from repro.grid.blockgrid import min_segment_length
from repro.obs import OBS
from repro.tech.stacks import example_rules, example_stack, example_wiretypes


@pytest.fixture(scope="module")
def space():
    spec = ChipSpec("patest", rows=2, row_width_cells=5, net_count=6, seed=11)
    return RoutingSpace(generate_chip(spec))


def figure7_template(obstructions=()):
    """The three-pin cell of Fig. 7 (pitch 80), optionally with the
    blockage bar above its pins."""
    return CellTemplate(
        "FIG7",
        width=10 * 80,
        height=960,
        pins={
            "P1": [(1, Rect(150, 430, 190, 470))],
            "P2": [(1, Rect(390, 430, 430, 470))],
            "P3": [(1, Rect(630, 430, 670, 470))],
        },
        obstructions=list(obstructions),
    )


def _canonical(paths):
    return [
        (p.pin_name, p.layer, p.endpoint, p.length, tuple(p.points), p.via)
        for p in paths
    ]


class TestCatalogue:
    def test_catalogue_nonempty_for_typical_pin(self, space):
        planner = PinAccessPlanner(space)
        pin = space.chip.nets[0].pins[0]
        paths = planner.build_catalogue(pin)
        assert paths, "typical pin should have access paths"

    def test_paths_start_at_pin_and_end_on_track(self, space):
        planner = PinAccessPlanner(space)
        pin = space.chip.nets[0].pins[0]
        for path in planner.build_catalogue(pin):
            assert path.points[0] == pin.reference_point()
            ex, ey, ez = space.graph.position(path.endpoint)
            assert path.points[-1] == (ex, ey)
            if path.via is not None:
                assert (path.via.x, path.via.y) == (ex, ey)
                assert ez == path.layer + 1

    def test_paths_respect_tau(self, space):
        planner = PinAccessPlanner(space)
        pin = space.chip.nets[0].pins[0]
        tau = space.chip.rules.same_net_rules(1).min_segment_length
        for path in planner.build_catalogue(pin):
            if len(path.points) > 1:
                assert min_segment_length(path.points) >= tau

    def test_paths_sorted_by_length(self, space):
        planner = PinAccessPlanner(space)
        pin = space.chip.nets[0].pins[1]
        paths = planner.build_catalogue(pin)
        lengths = [p.length for p in paths]
        assert lengths == sorted(lengths)

    def test_sticks_cover_polyline(self, space):
        planner = PinAccessPlanner(space)
        pin = space.chip.nets[0].pins[0]
        for path in planner.build_catalogue(pin):
            sticks = path.sticks()
            total = sum(s.length for s in sticks)
            assert total == sum(
                abs(a[0] - b[0]) + abs(a[1] - b[1])
                for a, b in zip(path.points, path.points[1:])
            )


class TestGridSearchReuse:
    def test_one_search_per_endpoint_position(self, space):
        """Endpoints sharing an (x, y) on two layers share one search."""
        pin = space.chip.nets[0].pins[0]
        # Uncapped endpoints and paths: every vertex in the window is a
        # candidate and no early exit skips a search.
        planner = PinAccessPlanner(space, max_endpoints=10_000, max_paths=10_000)
        pitch = space.chip.stack[pin.layers[0]].pitch
        window = pin.bounding_box().expanded(planner.radius_pitches * pitch)
        graph = space.graph
        positions = []
        for z in (pin.layers[0], pin.layers[0] + 1):
            for vertex in graph.vertices_in_rect(
                z, window.x_lo, window.y_lo, window.x_hi, window.y_hi
            ):
                positions.append(graph.position(vertex)[:2])
        assert len(set(positions)) < len(positions), "no shared positions"
        OBS.reset()
        OBS.configure(enabled=True)
        try:
            planner.build_catalogue(pin)
            searches = OBS.counters.get("pinaccess.grid_searches", 0)
        finally:
            OBS.reset()
            OBS.enabled = False
        assert searches == len(set(positions))

    def test_grid_builds_counts_constructions(self, space, monkeypatch):
        """``pinaccess.grid_builds`` equals the BlockageGrid
        constructions, and positions with equal Alg. 3 coordinates
        share a grid."""
        built = []

        class CountingGrid(pinaccess.BlockageGrid):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pinaccess, "BlockageGrid", CountingGrid)
        pin = space.chip.nets[0].pins[0]
        planner = PinAccessPlanner(space, max_endpoints=10_000, max_paths=10_000)
        OBS.reset()
        OBS.configure(enabled=True)
        try:
            planner.build_catalogue(pin)
            builds = OBS.counters.get("pinaccess.grid_builds", 0)
            searches = OBS.counters.get("pinaccess.grid_searches", 0)
        finally:
            OBS.reset()
            OBS.enabled = False
        assert builds == len(built)
        assert 0 < builds < searches


#: sha256 of every catalogue DetailedRouter preprocessing builds on the
#: eco_edits benchmark chip, recorded with the per-endpoint search and
#: the generic addressable heap; any change to a path's points, length,
#: endpoint or via (including which of several equally short polylines
#: is returned) changes it.
ECO_CATALOGUE_DIGEST = (
    "ce1eb227dcc67f04db32e27e88a8120f0f3b3906b9ce7300739e86cf325aa50a"
)


class TestCatalogueDigest:
    def test_eco_chip_catalogues_unchanged(self):
        chip = generate_chip(
            ChipSpec("eco_edits", rows=2, row_width_cells=5, net_count=8, seed=3)
        )
        router = DetailedRouter(RoutingSpace(chip))
        build = router.planner.build_catalogue
        records = []

        def recording_build(pin, radius_pitches=None):
            paths = build(pin, radius_pitches)
            for p in paths:
                via = None if p.via is None else (p.via.via_layer, p.via.x, p.via.y)
                records.append((pin.name, p.points, p.length, p.endpoint, via))
            return paths

        router.planner.build_catalogue = recording_build
        router.preprocess_pin_access(chip.nets)
        assert records
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        assert digest == ECO_CATALOGUE_DIGEST


class TestConflictFreeSolution:
    def _planner_and_catalogues(self, space):
        planner = PinAccessPlanner(space)
        by_circuit = {}
        for net in space.chip.nets:
            for pin in net.pins:
                by_circuit.setdefault(pin.circuit_id, []).append(pin)
        pins = next(
            pins for _cid, pins in sorted(by_circuit.items()) if len(pins) >= 2
        )
        return planner, planner.circuit_catalogues(pins)

    def test_solution_is_conflict_free(self, space):
        planner, catalogues = self._planner_and_catalogues(space)
        solution = planner.conflict_free_solution(catalogues)
        assert solution is not None
        chosen = list(solution.values())
        for i, a in enumerate(chosen):
            for b in chosen[i + 1:]:
                assert not planner.paths_conflict(a, b)

    def test_coverage_first(self, space):
        """The B&B prefers assigning more pins over shorter paths."""
        planner, catalogues = self._planner_and_catalogues(space)
        solution = planner.conflict_free_solution(catalogues)
        covered = len(solution)
        nonempty = sum(1 for paths in catalogues.values() if paths)
        # Every pin with a catalogue should be covered here (fresh space).
        assert covered == nonempty

    def test_empty_catalogues_give_none(self, space):
        planner = PinAccessPlanner(space)
        assert planner.conflict_free_solution({}) is None
        assert planner.conflict_free_solution({"p": []}) is None

    def test_figure7_greedy_failure_avoided(self):
        """Fig. 7: three pins behind a blockage bar; a greedy first-fit
        choice can block the third pin, the B&B must not."""
        stack = example_stack(4)
        template = figure7_template(obstructions=[(1, Rect(60, 530, 740, 570))])
        inst = CircuitInstance(0, template, 1000, 1000)
        pins = {
            name: Pin(f"0/{name}", inst.pin_shapes(name), circuit_id=0)
            for name in ("P1", "P2", "P3")
        }
        nets = [
            Net("a", [pins["P1"], Pin("x", [(1, Rect(4000, 1000, 4040, 1040))])]),
            Net("b", [pins["P2"], Pin("y", [(1, Rect(4000, 2000, 4040, 2040))])]),
            Net("c", [pins["P3"], Pin("z", [(1, Rect(4000, 3000, 4040, 3040))])]),
        ]
        chip = Chip(
            "fig7", Rect(0, 0, 6000, 6000), stack, example_rules(4),
            example_wiretypes(stack), circuits=[inst], nets=nets,
        )
        space = RoutingSpace(chip)
        planner = PinAccessPlanner(space)
        catalogues = planner.circuit_catalogues(list(pins.values()))
        assert all(catalogues[f"0/{n}"] for n in ("P1", "P2", "P3"))
        solution = planner.conflict_free_solution(catalogues)
        assert solution is not None
        assert len(solution) == 3, "all three pins must get access paths"


class TestCircuitCatalogues:
    def test_second_instance_paths_start_at_its_pins(self):
        """One template placed twice at origins congruent mod the pitch:
        the second instance's catalogues are its own (each path starts
        at that instance's pin) and equal a fresh build."""
        stack = example_stack(4)
        template = figure7_template()
        instances = [
            CircuitInstance(0, template, 1000, 1000),
            CircuitInstance(1, template, 4200, 4200),
        ]
        pins = [
            [
                Pin(f"{inst.instance_id}/{name}", inst.pin_shapes(name),
                    circuit_id=inst.instance_id)
                for name in ("P1", "P2", "P3")
            ]
            for inst in instances
        ]
        nets = [
            Net(f"n{i}", [first, second])
            for i, (first, second) in enumerate(zip(*pins))
        ]
        chip = Chip(
            "twice", Rect(0, 0, 8000, 8000), stack, example_rules(4),
            example_wiretypes(stack), circuits=instances, nets=nets,
        )
        space = RoutingSpace(chip)
        planner = PinAccessPlanner(space)
        catalogues = {}
        for instance_pins in pins:
            catalogues.update(planner.circuit_catalogues(instance_pins))
        fresh = PinAccessPlanner(space)
        for pin in pins[1]:
            paths = catalogues[pin.name]
            assert paths
            for path in paths:
                assert path.points[0] == pin.reference_point()
            assert _canonical(paths) == _canonical(fresh.build_catalogue(pin))


class TestReservation:
    def test_reserve_adds_shapes(self, space):
        planner = PinAccessPlanner(space)
        pin = space.chip.nets[1].pins[0]
        paths = planner.build_catalogue(pin)
        assert paths
        before = space.shape_grid.total_interval_count()
        planner.reserve(paths[0])
        assert space.shape_grid.total_interval_count() >= before
        route = space.routes[paths[0].net_name]
        assert route.wires or route.vias
