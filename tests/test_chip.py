"""Tests for the chip model and the synthetic generator."""

from collections import Counter

import pytest

from repro.chip.cells import CircuitInstance, Orientation, example_cell_library
from repro.chip.design import Blockage, Chip
from repro.chip.generator import ChipSpec, TABLE_CHIP_SPECS, generate_chip
from repro.chip.net import Net, Pin
from repro.geometry.rect import Rect
from repro.tech.stacks import example_rules, example_stack, example_wiretypes


def _tiny_chip():
    stack = example_stack(4)
    return Chip(
        "tiny",
        Rect(0, 0, 1000, 1000),
        stack,
        example_rules(4),
        example_wiretypes(stack),
        nets=[
            Net(
                "n0",
                [
                    Pin("p0", [(1, Rect(0, 0, 40, 40))]),
                    Pin("p1", [(1, Rect(900, 900, 940, 940))]),
                ],
            )
        ],
    )


class TestPinsAndNets:
    def test_pin_requires_shapes(self):
        with pytest.raises(ValueError):
            Pin("empty", [])

    def test_net_requires_two_pins(self):
        with pytest.raises(ValueError):
            Net("n", [Pin("p", [(1, Rect(0, 0, 1, 1))])])

    def test_net_backlink(self):
        chip = _tiny_chip()
        net = chip.net("n0")
        assert all(pin.net is net for pin in net.pins)

    def test_half_perimeter(self):
        net = _tiny_chip().net("n0")
        assert net.half_perimeter() == 940 + 940


class TestCells:
    def test_pin_shapes_translate(self):
        lib = example_cell_library()
        inst = CircuitInstance(0, lib[0], 1000, 2000)
        for layer, rect in inst.pin_shapes("A"):
            template_rect = lib[0].pins["A"][0][1]
            assert rect == template_rect.translated(1000, 2000)

    def test_fn_orientation_mirrors_x(self):
        lib = example_cell_library()
        n = CircuitInstance(0, lib[0], 0, 0, Orientation.N)
        fn = CircuitInstance(1, lib[0], 0, 0, Orientation.FN)
        n_rect = n.pin_shapes("A")[0][1]
        fn_rect = fn.pin_shapes("A")[0][1]
        width = lib[0].width
        assert fn_rect.x_lo == width - n_rect.x_hi
        assert fn_rect.x_hi == width - n_rect.x_lo
        assert fn_rect.y_lo == n_rect.y_lo


class TestChip:
    def test_duplicate_net_name_rejected(self):
        chip = _tiny_chip()
        with pytest.raises(ValueError):
            chip.add_net(
                Net(
                    "n0",
                    [
                        Pin("x", [(1, Rect(0, 0, 1, 1))]),
                        Pin("y", [(1, Rect(5, 5, 6, 6))]),
                    ],
                )
            )

    def test_requires_default_wiretype(self):
        stack = example_stack(4)
        with pytest.raises(ValueError):
            Chip("bad", Rect(0, 0, 10, 10), stack, example_rules(4), {})

    def test_obstruction_shapes_include_blockages(self):
        chip = _tiny_chip()
        chip.blockages.append(Blockage(1, Rect(0, 0, 10, 10), "rail"))
        shapes = chip.obstruction_shapes()
        assert any(owner is None for _, _, owner in shapes)


class TestGenerator:
    def test_deterministic(self):
        spec = TABLE_CHIP_SPECS[0]
        a = generate_chip(spec)
        b = generate_chip(spec)
        assert [n.name for n in a.nets] == [n.name for n in b.nets]
        assert [p.name for n in a.nets for p in n.pins] == [
            p.name for n in b.nets for p in n.pins
        ]

    def test_seed_changes_netlist(self):
        base = TABLE_CHIP_SPECS[0]
        other = ChipSpec("alt", base.rows, base.row_width_cells, base.net_count, seed=999)
        a = generate_chip(base)
        b = generate_chip(other)
        pins_a = [p.name for n in a.nets for p in n.pins]
        pins_b = [p.name for n in b.nets for p in n.pins]
        assert pins_a != pins_b

    def test_requested_net_count_reached(self):
        chip = generate_chip(TABLE_CHIP_SPECS[0])
        assert len(chip.nets) == TABLE_CHIP_SPECS[0].net_count

    def test_each_pin_used_once(self):
        chip = generate_chip(TABLE_CHIP_SPECS[1])
        names = [p.name for n in chip.nets for p in n.pins]
        assert len(names) == len(set(names))

    def test_terminal_histogram_spans_table2_classes(self):
        chip = generate_chip(TABLE_CHIP_SPECS[-1])
        hist = Counter(n.terminal_count for n in chip.nets)
        assert hist[2] > 0 and hist[3] > 0 and hist[4] > 0
        assert any(5 <= k <= 10 for k in hist)
        assert any(k >= 11 for k in hist)

    def test_pins_inside_die(self):
        chip = generate_chip(TABLE_CHIP_SPECS[0])
        for pin in chip.all_pins():
            for layer, rect in pin.shapes:
                assert chip.die.contains_rect(rect)

    def test_power_rails_present(self):
        chip = generate_chip(TABLE_CHIP_SPECS[0])
        labels = Counter(b.label for b in chip.blockages)
        assert labels["power_rail"] >= 2
        assert labels["power_strap"] >= 1
