"""Synthetic chip generator.

The paper evaluates on eight proprietary IBM 22 nm / 32 nm designs with
120 k - 960 k nets.  This generator is the documented substitution
(DESIGN.md): it produces seeded standard-cell instances with the features
that exercise every router code path - rows of library cells with off-grid
pins and internal obstructions, power rails and straps blocking track
segments, a clustered netlist whose terminal-count histogram spans the
classes of Table II, and a share of wide-wire (layer-restricted) nets.

Scale is reduced to what pure Python can route in seconds to minutes; the
eight ``TABLE_CHIP_SPECS`` mirror the relative sizes of the paper's chips.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.chip.cells import (
    CellTemplate,
    CircuitInstance,
    Orientation,
    example_cell_library,
)
from repro.chip.design import Blockage, Chip
from repro.chip.net import Net, Pin
from repro.geometry.rect import Rect
from repro.tech.stacks import (
    THIN_PITCH,
    THIN_WIDTH,
    example_rules,
    example_stack,
    example_wiretypes,
)
from repro.util.rng import make_rng

#: Standard-cell row height used by the example library, in dbu.
ROW_HEIGHT = 960

#: Placement slot pitch of the sharded generator, in dbu.  Every slot is
#: wide enough for the widest library cell (DFF, 800 dbu), so a cell's
#: position depends only on its slot — no left-to-right running sum —
#: which is what makes regions generatable independently.
SLOT_PITCH = 960

#: Die margin around the cell rows, in dbu (both generators).
DIE_MARGIN = 4 * THIN_PITCH


class ChipSpec:
    """Parameters of a synthetic chip."""

    def __init__(
        self,
        name: str,
        rows: int,
        row_width_cells: int,
        net_count: int,
        seed: int = 1,
        num_layers: int = 6,
        tech: str = "22nm",
        wide_net_fraction: float = 0.03,
        big_fanout_nets: int = 2,
        big_fanout_max: int = 20,
    ) -> None:
        if rows < 1:
            raise ValueError(f"ChipSpec rows must be >= 1, got {rows}")
        if row_width_cells < 1:
            raise ValueError(
                f"ChipSpec row_width_cells must be >= 1, got {row_width_cells}"
            )
        if net_count < 1:
            raise ValueError(f"ChipSpec net_count must be >= 1, got {net_count}")
        if num_layers < 2:
            raise ValueError(f"ChipSpec num_layers must be >= 2, got {num_layers}")
        self.name = name
        self.rows = rows
        self.row_width_cells = row_width_cells
        self.net_count = net_count
        self.seed = seed
        self.num_layers = num_layers
        self.tech = tech
        self.wide_net_fraction = wide_net_fraction
        self.big_fanout_nets = big_fanout_nets
        self.big_fanout_max = big_fanout_max

    def __repr__(self) -> str:
        return f"ChipSpec({self.name}, {self.rows}x{self.row_width_cells} cells, {self.net_count} nets)"

    def as_dict(self) -> Dict[str, object]:
        """Plain-JSON form (round-trips through a shard manifest)."""
        return {
            "name": self.name,
            "rows": self.rows,
            "row_width_cells": self.row_width_cells,
            "net_count": self.net_count,
            "seed": self.seed,
            "num_layers": self.num_layers,
            "tech": self.tech,
            "wide_net_fraction": self.wide_net_fraction,
            "big_fanout_nets": self.big_fanout_nets,
            "big_fanout_max": self.big_fanout_max,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChipSpec":
        return cls(**data)


#: Eight specs mirroring the relative sizes of Table I's chips 1-8
#: (chips 5 and 8 are the paper's 32 nm designs and the largest ones).
TABLE_CHIP_SPECS: List[ChipSpec] = [
    ChipSpec("chip1", rows=6, row_width_cells=14, net_count=45, seed=101),
    ChipSpec("chip2", rows=6, row_width_cells=15, net_count=48, seed=102),
    ChipSpec("chip3", rows=6, row_width_cells=15, net_count=50, seed=103),
    ChipSpec("chip4", rows=7, row_width_cells=14, net_count=52, seed=104),
    ChipSpec("chip5", rows=8, row_width_cells=18, net_count=80, seed=105, tech="32nm"),
    ChipSpec("chip6", rows=9, row_width_cells=18, net_count=95, seed=106),
    ChipSpec("chip7", rows=9, row_width_cells=19, net_count=100, seed=107),
    ChipSpec("chip8", rows=12, row_width_cells=22, net_count=160, seed=108, tech="32nm"),
]


def chip_spec(name: str) -> ChipSpec:
    """Look up a Table I spec by name, with an actionable error.

    Matches the PR 1 tech/rules KeyError convention: the error names the
    valid alternatives instead of echoing the bad key alone.
    """
    for spec in TABLE_CHIP_SPECS:
        if spec.name == name:
            return spec
    valid = ", ".join(spec.name for spec in TABLE_CHIP_SPECS)
    raise KeyError(f"unknown chip spec {name!r}; valid specs: {valid}")


def _place_rows(
    spec: ChipSpec, library: Sequence[CellTemplate], rng
) -> Tuple[List[CircuitInstance], int, int]:
    """Fill rows left to right with random cells; returns (instances, W, H)."""
    instances: List[CircuitInstance] = []
    max_row_width = 0
    instance_id = 0
    for row in range(spec.rows):
        x = DIE_MARGIN
        y = DIE_MARGIN + row * ROW_HEIGHT
        for _ in range(spec.row_width_cells):
            template = library[rng.randrange(len(library))]
            orientation = Orientation.N if rng.random() < 0.5 else Orientation.FN
            instances.append(CircuitInstance(instance_id, template, x, y, orientation))
            instance_id += 1
            x += template.width
            # Occasional placement gap (whitespace for routing).
            if rng.random() < 0.25:
                x += THIN_PITCH * rng.randrange(1, 4)
        max_row_width = max(max_row_width, x)
    width = max_row_width + DIE_MARGIN
    height = 2 * DIE_MARGIN + spec.rows * ROW_HEIGHT
    return instances, width, height


def _power_grid(width: int, height: int, rows: int) -> List[Blockage]:
    """Horizontal M1 power rails on row boundaries + sparse M2 straps."""
    rails: List[Blockage] = []
    rail_half = THIN_WIDTH
    for row in range(rows + 1):
        y = DIE_MARGIN + row * ROW_HEIGHT
        rails.append(
            Blockage(1, Rect(0, y - rail_half, width, y + rail_half), "power_rail")
        )
    strap_period = 24 * THIN_PITCH
    x = strap_period
    while x < width - THIN_PITCH:
        rails.append(
            Blockage(2, Rect(x - THIN_WIDTH, 0, x + THIN_WIDTH, height), "power_strap")
        )
        x += strap_period
    return rails


def _free_pins(
    instances: Sequence[CircuitInstance],
) -> Tuple[List[Tuple[int, str, bool]], Dict[int, CircuitInstance]]:
    """All (instance_id, pin_name, is_output) triples plus an id lookup."""
    by_id = {inst.instance_id: inst for inst in instances}
    pins: List[Tuple[int, str, bool]] = []
    for inst in instances:
        for pin_name in inst.template.pins:
            is_output = pin_name in ("Z", "Q", "QN")
            pins.append((inst.instance_id, pin_name, is_output))
    return pins, by_id


def _terminal_count(rng, big: bool, big_max: int = 20) -> int:
    """Terminal-count distribution spanning Table II's classes."""
    if big:
        return rng.randrange(12, big_max + 1)
    roll = rng.random()
    if roll < 0.60:
        return 2
    if roll < 0.78:
        return 3
    if roll < 0.88:
        return 4
    if roll < 0.97:
        return rng.randrange(5, 11)
    return rng.randrange(11, 21)


def _build_nets(
    spec: ChipSpec,
    rng,
    instances: Sequence[CircuitInstance],
    quota: int,
    big_nets: int,
    prefix: str,
) -> List[Net]:
    """Up to ``quota`` clustered nets over the pins of ``instances``.

    Each net takes a free output as driver and the free inputs nearest
    to it as sinks; its first ``big_nets`` nets draw from the big-fanout
    tail of :func:`_terminal_count`.  Nets are named ``prefix`` + their
    index.  The one netlist builder of both generators.
    """
    all_pins, by_id = _free_pins(instances)
    outputs = [p for p in all_pins if p[2]]
    inputs = [p for p in all_pins if not p[2]]
    rng.shuffle(outputs)
    rng.shuffle(inputs)
    used: set = set()

    def make_pin(instance_id: int, pin_name: str) -> Pin:
        inst = by_id[instance_id]
        return Pin(
            f"{instance_id}/{pin_name}",
            inst.pin_shapes(pin_name),
            circuit_id=instance_id,
        )

    def nearest_free_inputs(x: int, y: int, k: int) -> List[Tuple[int, str, bool]]:
        """k unused input pins, biased towards (x, y) (clustered netlists)."""
        candidates = [p for p in inputs if (p[0], p[1]) not in used]
        if not candidates:
            return []
        locality = 6 * ROW_HEIGHT

        def distance_key(p: Tuple[int, str, bool]) -> Tuple[float, int]:
            inst = by_id[p[0]]
            cx, cy = inst.bounding_box().center
            dist = abs(cx - x) + abs(cy - y)
            # Jittered distance: keeps nets local without making them
            # degenerate chains along one row.
            return (dist + rng.randrange(0, locality), p[0])

        candidates.sort(key=distance_key)
        return candidates[:k]

    nets: List[Net] = []
    output_index = 0
    while len(nets) < quota and output_index < len(outputs):
        driver = outputs[output_index]
        output_index += 1
        if (driver[0], driver[1]) in used:
            continue
        big = len(nets) < big_nets
        sinks_wanted = _terminal_count(rng, big, spec.big_fanout_max) - 1
        # Keep at least one input pin in reserve per net still to be built,
        # so big-fanout nets cannot starve the rest of the netlist.
        free_inputs = sum(1 for p in inputs if (p[0], p[1]) not in used)
        nets_remaining = quota - len(nets) - 1
        sinks_wanted = max(1, min(sinks_wanted, free_inputs - nets_remaining))
        inst = by_id[driver[0]]
        cx, cy = inst.bounding_box().center
        sinks = nearest_free_inputs(cx, cy, sinks_wanted)
        if not sinks:
            continue
        used.add((driver[0], driver[1]))
        for sink in sinks:
            used.add((sink[0], sink[1]))
        pins = [make_pin(driver[0], driver[1])] + [make_pin(s[0], s[1]) for s in sinks]
        wire_type = "default"
        weight = 1.0
        if rng.random() < spec.wide_net_fraction and len(pins) == 2:
            wire_type = "wide"
            weight = 2.0
        nets.append(
            Net(f"{prefix}{len(nets)}", pins, wire_type=wire_type, weight=weight)
        )
    return nets


def generate_chip(spec: ChipSpec) -> Chip:
    """Generate the chip for ``spec`` deterministically from its seed."""
    rng = make_rng(spec.seed)
    library = example_cell_library()
    instances, width, height = _place_rows(spec, library, rng)
    blockages = _power_grid(width, height, spec.rows)
    stack = example_stack(spec.num_layers)
    rules = example_rules(spec.num_layers)
    wire_types = example_wiretypes(stack)
    nets = _build_nets(
        spec, rng, instances, spec.net_count, spec.big_fanout_nets, "n"
    )
    return Chip(
        name=spec.name,
        die=Rect(0, 0, width, height),
        stack=stack,
        rules=rules,
        wire_types=wire_types,
        circuits=instances,
        nets=nets,
        blockages=blockages,
    )


# ----------------------------------------------------------------------
# Region-sharded generation (memory-bounded, 1e5-1e6 net instances)
# ----------------------------------------------------------------------
class ShardPlan:
    """Region grid of a sharded instance.

    The sharded generator places cells on a fixed slot grid (one slot
    per :data:`SLOT_PITCH` column, one row per :data:`ROW_HEIGHT`), so
    the die dimensions, the power grid and each cell's position are
    functions of the spec alone.  Regions are rectangular blocks of
    slots; each region's cells and nets are generated from a seed
    derived from ``(spec.seed, region_index)``, independent of every
    other region — which is what lets 10^5-net instances stream to disk
    one region at a time.
    """

    def __init__(
        self,
        spec: ChipSpec,
        rows_per_region: int = 4,
        cols_per_region: int = 16,
    ) -> None:
        if rows_per_region < 1:
            raise ValueError(
                f"ShardPlan rows_per_region must be >= 1, got {rows_per_region}"
            )
        if cols_per_region < 1:
            raise ValueError(
                f"ShardPlan cols_per_region must be >= 1, got {cols_per_region}"
            )
        self.spec = spec
        self.rows_per_region = rows_per_region
        self.cols_per_region = cols_per_region
        self.region_rows = math.ceil(spec.rows / rows_per_region)
        self.region_cols = math.ceil(spec.row_width_cells / cols_per_region)
        self.num_regions = self.region_rows * self.region_cols
        self.width = 2 * DIE_MARGIN + spec.row_width_cells * SLOT_PITCH
        self.height = 2 * DIE_MARGIN + spec.rows * ROW_HEIGHT
        # Net quota per region: spread the total evenly, remainder to
        # the lowest-indexed regions.
        base, extra = divmod(spec.net_count, self.num_regions)
        self._quota = [
            base + (1 if index < extra else 0) for index in range(self.num_regions)
        ]

    def __repr__(self) -> str:
        return (
            f"ShardPlan({self.spec.name}, {self.region_rows}x{self.region_cols} "
            f"regions, {self.num_regions} shards)"
        )

    def die(self) -> Rect:
        return Rect(0, 0, self.width, self.height)

    def region_slots(self, index: int) -> Tuple[int, int, int, int]:
        """Closed slot bounds (row_lo, row_hi, col_lo, col_hi) of a region."""
        if not 0 <= index < self.num_regions:
            raise IndexError(
                f"region {index} out of range; plan has {self.num_regions} regions"
            )
        r, c = divmod(index, self.region_cols)
        row_lo = r * self.rows_per_region
        row_hi = min(row_lo + self.rows_per_region, self.spec.rows) - 1
        col_lo = c * self.cols_per_region
        col_hi = min(col_lo + self.cols_per_region, self.spec.row_width_cells) - 1
        return row_lo, row_hi, col_lo, col_hi

    def region_box(self, index: int) -> Rect:
        """Die rectangle covered by a region's slots (dbu)."""
        row_lo, row_hi, col_lo, col_hi = self.region_slots(index)
        return Rect(
            DIE_MARGIN + col_lo * SLOT_PITCH,
            DIE_MARGIN + row_lo * ROW_HEIGHT,
            DIE_MARGIN + (col_hi + 1) * SLOT_PITCH,
            DIE_MARGIN + (row_hi + 1) * ROW_HEIGHT,
        )

    def region_net_quota(self, index: int) -> int:
        return self._quota[index]

    def region_seed(self, index: int) -> int:
        """Deterministic per-region seed mixed from the spec seed."""
        return (self.spec.seed * 0x9E3779B1 + index * 0x85EBCA77 + 1) & 0x7FFFFFFF

    def power_blockages(self) -> List[Blockage]:
        """The global power grid (independent of any region's contents)."""
        return _power_grid(self.width, self.height, self.spec.rows)


class ShardRegion:
    """One generated region: its nets plus its fixed blockages.

    ``blockages`` holds the cells' internal obstructions as labelled
    chip-level blockages (``circuit:<id>``) — the same convention the
    text interchange format uses, so shard-loaded and in-memory chips
    agree shape for shape.  The power grid is *not* included (it is
    global; :meth:`ShardPlan.power_blockages` owns it).
    """

    __slots__ = ("index", "box", "nets", "blockages", "cells")

    def __init__(
        self,
        index: int,
        box: Rect,
        nets: List[Net],
        blockages: List[Blockage],
        cells: int,
    ) -> None:
        self.index = index
        self.box = box
        self.nets = nets
        self.blockages = blockages
        self.cells = cells

    def __repr__(self) -> str:
        return f"ShardRegion({self.index}, {len(self.nets)} nets, {self.cells} cells)"


#: Fraction of slots occupied by a cell in the sharded generator.
SLOT_OCCUPANCY = 0.92


def generate_region(
    spec: ChipSpec,
    plan: ShardPlan,
    index: int,
    library: Optional[Sequence[CellTemplate]] = None,
) -> ShardRegion:
    """Generate one region deterministically from ``(spec.seed, index)``."""
    if library is None:
        library = example_cell_library()
    rng = make_rng(plan.region_seed(index))
    row_lo, row_hi, col_lo, col_hi = plan.region_slots(index)
    instances: List[CircuitInstance] = []
    for row in range(row_lo, row_hi + 1):
        for col in range(col_lo, col_hi + 1):
            if rng.random() >= SLOT_OCCUPANCY:
                continue
            template = library[rng.randrange(len(library))]
            orientation = Orientation.N if rng.random() < 0.5 else Orientation.FN
            x = DIE_MARGIN + col * SLOT_PITCH
            y = DIE_MARGIN + row * ROW_HEIGHT
            instance_id = row * spec.row_width_cells + col
            instances.append(
                CircuitInstance(instance_id, template, x, y, orientation)
            )

    blockages: List[Blockage] = []
    for inst in instances:
        for layer, rect in inst.obstruction_shapes():
            blockages.append(Blockage(layer, rect, f"circuit:{inst.instance_id}"))

    # The big-fanout nets (Table II's tail) live in region 0.
    nets = _build_nets(
        spec, rng, instances, plan.region_net_quota(index),
        spec.big_fanout_nets if index == 0 else 0, f"n{index}_",
    )
    return ShardRegion(
        index, plan.region_box(index), nets, blockages, len(instances)
    )


def iter_regions(
    spec: ChipSpec, plan: Optional[ShardPlan] = None
) -> Iterator[ShardRegion]:
    """All regions of a sharded instance, one at a time (streaming)."""
    if plan is None:
        plan = ShardPlan(spec)
    library = example_cell_library()
    for index in range(plan.num_regions):
        yield generate_region(spec, plan, index, library)


def generate_chip_sharded(
    spec: ChipSpec, plan: Optional[ShardPlan] = None
) -> Chip:
    """The in-memory reference of the sharded generator.

    Assembles every region into one :class:`Chip` (circuits empty, cell
    obstructions as labelled blockages — the text-format convention).
    Bit-identical to streaming the same plan to disk and loading all
    shards back; the property test in ``tests/test_shards.py`` holds the
    two paths together.
    """
    if plan is None:
        plan = ShardPlan(spec)
    blockages = plan.power_blockages()
    nets: List[Net] = []
    for region in iter_regions(spec, plan):
        nets.extend(region.nets)
        blockages.extend(region.blockages)
    stack = example_stack(spec.num_layers)
    return Chip(
        name=spec.name,
        die=plan.die(),
        stack=stack,
        rules=example_rules(spec.num_layers),
        wire_types=example_wiretypes(stack),
        circuits=[],
        nets=nets,
        blockages=blockages,
    )


def stream_chip_shards(
    spec: ChipSpec,
    out_dir: str,
    plan: Optional[ShardPlan] = None,
) -> str:
    """Stream a sharded instance to ``out_dir``; returns the manifest path.

    Writes one text shard per region plus ``manifest.json`` (die, layer
    count, spec, global power blockages, shard index).  Peak memory is
    one region, not the chip: each region is generated, serialized and
    dropped before the next one starts.
    """
    from repro.io.shards import ShardWriter

    if plan is None:
        plan = ShardPlan(spec)
    writer = ShardWriter(out_dir, spec, plan)
    for region in iter_regions(spec, plan):
        writer.write_region(region)
    return writer.finish()


def scale_spec(
    net_count: int,
    seed: int = 7,
    name: Optional[str] = None,
    rows_per_region: int = 2,
    cols_per_region: int = 8,
    nets_per_region: int = 8,
) -> Tuple[ChipSpec, ShardPlan]:
    """A spec + plan sized for ``net_count`` nets in small routable shards.

    Used by the scale benchmark and the CI smoke: regions are kept small
    (~``nets_per_region`` nets over ``rows_per_region x cols_per_region``
    slots) so one region routes in seconds with a bounded die.
    """
    if net_count < 1:
        raise ValueError(f"scale_spec net_count must be >= 1, got {net_count}")
    regions = math.ceil(net_count / nets_per_region)
    region_cols = max(1, math.ceil(math.sqrt(regions)))
    region_rows = math.ceil(regions / region_cols)
    spec = ChipSpec(
        name or f"scale{net_count}",
        rows=region_rows * rows_per_region,
        row_width_cells=region_cols * cols_per_region,
        net_count=net_count,
        seed=seed,
    )
    plan = ShardPlan(
        spec, rows_per_region=rows_per_region, cols_per_region=cols_per_region
    )
    return spec, plan
