"""Pin access demo (Sec. 4.3, Fig. 7).

Builds the paper's Fig. 7 situation - three pins of different nets behind
a blockage bar - and contrasts a greedy first-fit access choice (which
can wall in the last pin) with the conflict-free solution found by
branch-and-bound with destructive bounding.

Run:  python examples/pin_access_demo.py
"""

from repro.chip.cells import CellTemplate, CircuitInstance
from repro.chip.design import Chip
from repro.chip.net import Net, Pin
from repro.droute.pinaccess import PinAccessPlanner
from repro.droute.space import RoutingSpace
from repro.geometry.rect import Rect
from repro.tech.stacks import example_rules, example_stack, example_wiretypes


def build_fig7_chip() -> Chip:
    stack = example_stack(4)
    pitch = 80
    template = CellTemplate(
        "FIG7",
        width=10 * pitch,
        height=960,
        pins={
            "P1": [(1, Rect(150, 430, 190, 470))],
            "P2": [(1, Rect(390, 430, 430, 470))],
            "P3": [(1, Rect(630, 430, 670, 470))],
        },
        obstructions=[(1, Rect(60, 530, 740, 570))],
    )
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
    return Chip(
        "fig7", Rect(0, 0, 6000, 6000), stack, example_rules(4),
        example_wiretypes(stack), circuits=[inst], nets=nets,
    )


def greedy_solution(planner, catalogues):
    """First-fit: each pin takes its shortest non-conflicting path."""
    chosen = {}
    for name in sorted(catalogues):
        for path in catalogues[name]:
            if not any(
                planner.paths_conflict(path, other) for other in chosen.values()
            ):
                chosen[name] = path
                break
    return chosen


def main() -> None:
    chip = build_fig7_chip()
    space = RoutingSpace(chip)
    planner = PinAccessPlanner(space)
    pins = [pin for net in chip.nets for pin in net.pins if pin.circuit_id == 0]
    catalogues = planner.circuit_catalogues(pins)

    print("Catalogue sizes per pin:")
    for name in sorted(catalogues):
        paths = catalogues[name]
        print(f"  {name}: {len(paths)} paths, endpoints "
              f"{[space.graph.position(p.endpoint) for p in paths[:3]]}...")

    greedy = greedy_solution(planner, catalogues)
    print(f"\nGreedy first-fit covers {len(greedy)}/{len(catalogues)} pins")
    for name, path in sorted(greedy.items()):
        print(f"  {name} -> endpoint {space.graph.position(path.endpoint)}")

    solution = planner.conflict_free_solution(catalogues)
    print(f"\nConflict-free B&B covers {len(solution)}/{len(catalogues)} pins")
    for name, path in sorted(solution.items()):
        ex, ey, ez = space.graph.position(path.endpoint)
        via = " +via" if path.via is not None else ""
        print(f"  {name} -> ({ex}, {ey}, M{ez}){via}, length {path.length}")

    if len(solution) > len(greedy):
        print("\n=> The branch-and-bound recovered pins the greedy choice "
              "walled in (the Fig. 7 failure mode).")
    else:
        print("\n=> Both covered all pins here; the B&B additionally "
              "optimizes endpoint spreading and continuations.")


if __name__ == "__main__":
    main()
