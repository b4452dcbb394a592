"""A line-oriented text interchange format (DEF-flavoured).

Chip format::

    CHIP <name> DIE <x_lo> <y_lo> <x_hi> <y_hi> LAYERS <n>
    LAYER <index> <H|V> PITCH <p> WIDTH <w> SPACING <s>
    BLOCKAGE <layer> <x_lo> <y_lo> <x_hi> <y_hi> [label]
    CIRCUIT <id> <template> <x> <y> <N|FN>
    NET <name> WIRETYPE <type> WEIGHT <w>
    PIN <net> <name> <circuit_id|-> <layer> <x_lo> <y_lo> <x_hi> <y_hi>
    END

Routes format::

    ROUTES <chip_name>
    ROUTE <net> WIRETYPE <type>
    WIRE <net> <layer> <x0> <y0> <x1> <y1> <level> <type>
    VIA <net> <via_layer> <x> <y> <level> <type>
    END

Cell templates are not serialized (the text chip stores placed pin
shapes and obstruction rectangles directly); reloaded chips route
identically but lose the template/orientation metadata.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.chip.design import Blockage, Chip
from repro.chip.net import Net, Pin
from repro.droute.route import NetRoute, ViaInstance
from repro.geometry.rect import Rect
from repro.tech.layers import Direction, Layer, LayerStack
from repro.tech.stacks import example_rules, example_wiretypes
from repro.tech.wiring import StickFigure


class FormatError(ValueError):
    """Raised on malformed interchange text."""


# ----------------------------------------------------------------------
# Chip writer
# ----------------------------------------------------------------------
def dump_chip(chip: Chip) -> str:
    lines: List[str] = []
    die = chip.die
    lines.append(
        f"CHIP {chip.name} DIE {die.x_lo} {die.y_lo} {die.x_hi} {die.y_hi} "
        f"LAYERS {len(chip.stack)}"
    )
    for layer in chip.stack:
        direction = "H" if layer.direction is Direction.HORIZONTAL else "V"
        lines.append(
            f"LAYER {layer.index} {direction} PITCH {layer.pitch} "
            f"WIDTH {layer.min_width} SPACING {layer.min_spacing}"
        )
    for blockage in chip.blockages:
        r = blockage.rect
        lines.append(
            f"BLOCKAGE {blockage.layer} {r.x_lo} {r.y_lo} {r.x_hi} {r.y_hi} "
            f"{blockage.label}"
        )
    for circuit in chip.circuits:
        lines.append(
            f"CIRCUIT {circuit.instance_id} {circuit.template.name} "
            f"{circuit.x} {circuit.y} {circuit.orientation.value}"
        )
        for layer, rect in circuit.obstruction_shapes():
            lines.append(
                f"BLOCKAGE {layer} {rect.x_lo} {rect.y_lo} {rect.x_hi} "
                f"{rect.y_hi} circuit:{circuit.instance_id}"
            )
    for net in chip.nets:
        lines.append(f"NET {net.name} WIRETYPE {net.wire_type} WEIGHT {net.weight}")
        for pin in net.pins:
            owner = pin.circuit_id if pin.circuit_id is not None else "-"
            for layer, rect in pin.shapes:
                lines.append(
                    f"PIN {net.name} {pin.name} {owner} {layer} "
                    f"{rect.x_lo} {rect.y_lo} {rect.x_hi} {rect.y_hi}"
                )
    lines.append("END")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Chip parser
# ----------------------------------------------------------------------
def load_chip(text: str) -> Chip:
    name: Optional[str] = None
    die: Optional[Rect] = None
    layer_specs: List[Layer] = []
    blockages: List[Blockage] = []
    nets_meta: Dict[str, Tuple[str, float]] = {}
    net_order: List[str] = []
    pin_shapes: Dict[Tuple[str, str], List[Tuple[int, Rect]]] = {}
    pin_owner: Dict[Tuple[str, str], Optional[int]] = {}
    pin_order: Dict[str, List[str]] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        keyword = tokens[0]
        try:
            if keyword == "CHIP":
                name = tokens[1]
                die = Rect(int(tokens[3]), int(tokens[4]), int(tokens[5]), int(tokens[6]))
            elif keyword == "LAYER":
                direction = (
                    Direction.HORIZONTAL if tokens[2] == "H" else Direction.VERTICAL
                )
                layer_specs.append(
                    Layer(int(tokens[1]), direction, int(tokens[4]),
                          int(tokens[6]), int(tokens[8]))
                )
            elif keyword == "BLOCKAGE":
                label = tokens[6] if len(tokens) > 6 else "blockage"
                blockages.append(
                    Blockage(
                        int(tokens[1]),
                        Rect(int(tokens[2]), int(tokens[3]), int(tokens[4]),
                             int(tokens[5])),
                        label,
                    )
                )
            elif keyword == "CIRCUIT":
                pass  # placement metadata only; shapes arrive as BLOCKAGEs
            elif keyword == "NET":
                net_name = tokens[1]
                nets_meta[net_name] = (tokens[3], float(tokens[5]))
                net_order.append(net_name)
            elif keyword == "PIN":
                net_name, pin_name = tokens[1], tokens[2]
                owner = None if tokens[3] == "-" else int(tokens[3])
                rect = Rect(int(tokens[5]), int(tokens[6]), int(tokens[7]),
                            int(tokens[8]))
                key = (net_name, pin_name)
                if key not in pin_shapes:
                    pin_order.setdefault(net_name, []).append(pin_name)
                pin_shapes.setdefault(key, []).append((int(tokens[4]), rect))
                pin_owner[key] = owner
            elif keyword in ("END", "ROUTES", "ROUTE", "WIRE", "VIA"):
                pass
            else:
                raise FormatError(f"unknown keyword {keyword!r}")
        except (IndexError, ValueError) as error:
            raise FormatError(f"line {line_no}: {raw!r}: {error}") from error

    if name is None or die is None or not layer_specs:
        raise FormatError("missing CHIP or LAYER lines")
    stack = LayerStack(layer_specs)
    nets: List[Net] = []
    for net_name in net_order:
        wire_type, weight = nets_meta[net_name]
        pins = [
            Pin(pin_name, pin_shapes[(net_name, pin_name)],
                circuit_id=pin_owner[(net_name, pin_name)])
            for pin_name in pin_order.get(net_name, [])
        ]
        nets.append(Net(net_name, pins, wire_type=wire_type, weight=weight))
    num_layers = len(layer_specs)
    return Chip(
        name, die, stack, example_rules(num_layers),
        example_wiretypes(stack), circuits=[], nets=nets, blockages=blockages,
    )


# ----------------------------------------------------------------------
# Routes
# ----------------------------------------------------------------------
def dump_routes(routes: Dict[str, NetRoute], chip_name: str = "chip") -> str:
    lines = [f"ROUTES {chip_name}"]
    for net_name in sorted(routes):
        route = routes[net_name]
        lines.append(f"ROUTE {net_name} WIRETYPE {route.wire_type}")
        for stick, level, type_name in route.wire_items():
            lines.append(
                f"WIRE {net_name} {stick.layer} {stick.x0} {stick.y0} "
                f"{stick.x1} {stick.y1} {level} {type_name}"
            )
        for via, level, type_name in route.via_items():
            lines.append(
                f"VIA {net_name} {via.via_layer} {via.x} {via.y} "
                f"{level} {type_name}"
            )
    lines.append("END")
    return "\n".join(lines) + "\n"


def load_routes(text: str) -> Dict[str, NetRoute]:
    routes: Dict[str, NetRoute] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        keyword = tokens[0]
        try:
            if keyword == "ROUTE":
                routes[tokens[1]] = NetRoute(tokens[1], tokens[3])
            elif keyword == "WIRE":
                net_name = tokens[1]
                stick = StickFigure(
                    int(tokens[2]), int(tokens[3]), int(tokens[4]),
                    int(tokens[5]), int(tokens[6]),
                )
                routes[net_name].add_wire(stick, int(tokens[7]), tokens[8])
            elif keyword == "VIA":
                net_name = tokens[1]
                via = ViaInstance(int(tokens[2]), int(tokens[3]), int(tokens[4]))
                routes[net_name].add_via(via, int(tokens[5]), tokens[6])
            elif keyword in ("ROUTES", "END"):
                pass
            else:
                raise FormatError(f"unknown keyword {keyword!r}")
        except (IndexError, ValueError, KeyError) as error:
            raise FormatError(f"line {line_no}: {raw!r}: {error}") from error
    return routes


# ----------------------------------------------------------------------
# File helpers
# ----------------------------------------------------------------------
def write_chip_file(chip: Chip, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(dump_chip(chip))


def read_chip_file(path: str) -> Chip:
    with open(path) as handle:
        return load_chip(handle.read())


def write_routes_file(routes: Dict[str, NetRoute], path: str, chip_name: str = "chip") -> None:
    with open(path, "w") as handle:
        handle.write(dump_routes(routes, chip_name))


def read_routes_file(path: str) -> Dict[str, NetRoute]:
    with open(path) as handle:
        return load_routes(handle.read())
