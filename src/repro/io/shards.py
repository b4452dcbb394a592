"""Sharded chip instances on disk: manifest + per-region netlist shards.

A sharded instance is a directory::

    manifest.json      die, layer count, spec, power blockages, shard index
    shard_00000.chip   one region's nets/pins + cell-obstruction blockages

The manifest holds everything global (the die box, the power grid, the
generating :class:`~repro.chip.generator.ChipSpec`); each shard holds one
region's netlist in the text-format line grammar (``BLOCKAGE``/``NET``/
``PIN``), written by :func:`~repro.io.textformat.blockage_line` and
:func:`~repro.io.textformat.net_lines` and read by
:class:`~repro.io.textformat.NetlistReader`, the same writer and reader
chip files use.  A shard keeps its own ``SHARD`` header and rejects the
chip file's ``CHIP``/``LAYER``/``CIRCUIT`` lines with
:class:`ShardFormatError`.  The split is what bounds memory: a 10^5-net
instance streams to disk one region at a time, and a router working on
one region loads one shard, not the chip.

:class:`ShardStore` is the lazy loader: an LRU cache of resident shards
(``shards.loads``/``shards.evictions`` counters, ``shards.resident``
gauge) with :meth:`ShardStore.chip_for_region` building a region-die
:class:`~repro.chip.design.Chip` whose routing space is sized by the
region, not the instance.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.chip.design import Blockage, Chip
from repro.chip.net import Net
from repro.geometry.rect import Rect
from repro.io.textformat import NetlistReader, blockage_line, net_lines
from repro.obs import OBS
from repro.tech.stacks import (
    THIN_PITCH,
    example_rules,
    example_stack,
    example_wiretypes,
)

#: Schema of ``manifest.json``.
MANIFEST_SCHEMA = "repro-chip-shards"
MANIFEST_VERSION = 1

#: Die halo around a region box when routing one shard standalone, in
#: thin-layer pitches (room for access paths and detours at the border).
REGION_HALO_PITCHES = 8


class ShardFormatError(ValueError):
    """Raised on a malformed manifest or shard file."""


class ShardData:
    """One parsed shard: a region's nets plus its fixed blockages."""

    __slots__ = ("index", "box", "nets", "blockages")

    def __init__(
        self, index: int, box: Rect, nets: List[Net], blockages: List[Blockage]
    ) -> None:
        self.index = index
        self.box = box
        self.nets = nets
        self.blockages = blockages

    def __repr__(self) -> str:
        return f"ShardData({self.index}, {len(self.nets)} nets)"


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def dump_shard(region) -> str:
    """Serialize a :class:`~repro.chip.generator.ShardRegion` (or
    :class:`ShardData`) to the shard text grammar."""
    box = region.box
    lines = [f"SHARD {region.index} BOX {box.x_lo} {box.y_lo} {box.x_hi} {box.y_hi}"]
    lines.extend(blockage_line(blockage) for blockage in region.blockages)
    for net in region.nets:
        lines.extend(net_lines(net))
    lines.append("END")
    return "\n".join(lines) + "\n"


def load_shard(text: str) -> ShardData:
    """Parse one shard file back into nets/blockages (canonical order)."""
    index: Optional[int] = None
    box: Optional[Rect] = None
    netlist = NetlistReader()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        keyword = tokens[0]
        try:
            if keyword == "SHARD":
                index = int(tokens[1])
                box = Rect(
                    int(tokens[3]), int(tokens[4]), int(tokens[5]), int(tokens[6])
                )
            elif keyword == "END":
                pass
            elif not netlist.read(tokens):
                raise ShardFormatError(f"unknown keyword {keyword!r}")
        except (IndexError, ValueError) as error:
            raise ShardFormatError(f"line {line_no}: {raw!r}: {error}") from error
    if index is None or box is None:
        raise ShardFormatError("missing SHARD header line")
    return ShardData(index, box, netlist.nets(), netlist.blockages)


def shard_file_name(index: int) -> str:
    return f"shard_{index:05d}.chip"


# ----------------------------------------------------------------------
# Streaming writer
# ----------------------------------------------------------------------
class ShardWriter:
    """Writes shards one region at a time, then the manifest.

    Only the manifest's shard index (a few dicts per region) stays in
    memory; region data is serialized and dropped as it arrives.
    """

    def __init__(self, out_dir: str, spec, plan) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.spec = spec
        self.plan = plan
        self._shards: List[Dict[str, object]] = []
        self._total_nets = 0
        self._total_pins = 0
        self._finished = False

    def write_region(self, region) -> Path:
        if self._finished:
            raise RuntimeError("ShardWriter already finished")
        if region.index != len(self._shards):
            raise ValueError(
                f"regions must arrive in order; expected {len(self._shards)}, "
                f"got {region.index}"
            )
        path = self.out_dir / shard_file_name(region.index)
        path.write_text(dump_shard(region), encoding="utf-8")
        pins = sum(len(net.pins) for net in region.nets)
        box = region.box
        self._shards.append(
            {
                "index": region.index,
                "file": path.name,
                "box": [box.x_lo, box.y_lo, box.x_hi, box.y_hi],
                "nets": len(region.nets),
                "pins": pins,
                "cells": region.cells,
            }
        )
        self._total_nets += len(region.nets)
        self._total_pins += pins
        return path

    def finish(self) -> str:
        """Write ``manifest.json``; returns its path."""
        if self._finished:
            raise RuntimeError("ShardWriter already finished")
        self._finished = True
        die = self.plan.die()
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "version": MANIFEST_VERSION,
            "name": self.spec.name,
            "spec": self.spec.as_dict(),
            "die": [die.x_lo, die.y_lo, die.x_hi, die.y_hi],
            "num_layers": self.spec.num_layers,
            "regions": {
                "rows": self.plan.region_rows,
                "cols": self.plan.region_cols,
                "rows_per_region": self.plan.rows_per_region,
                "cols_per_region": self.plan.cols_per_region,
            },
            "power_blockages": [
                [b.layer, b.rect.x_lo, b.rect.y_lo, b.rect.x_hi, b.rect.y_hi,
                 b.label]
                for b in self.plan.power_blockages()
            ],
            "total_nets": self._total_nets,
            "total_pins": self._total_pins,
            "shards": self._shards,
        }
        path = self.out_dir / "manifest.json"
        path.write_text(
            json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        return str(path)


# ----------------------------------------------------------------------
# Lazy loader
# ----------------------------------------------------------------------
class ShardStore:
    """Lazy, LRU-bounded access to a sharded instance on disk."""

    #: Resident-shard budget; the least recently used shard is dropped
    #: beyond it.
    max_resident = 16

    def __init__(self, manifest_path: str) -> None:
        self.manifest_path = Path(manifest_path)
        if self.manifest_path.is_dir():
            self.manifest_path = self.manifest_path / "manifest.json"
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except OSError as error:
            raise ShardFormatError(
                f"cannot read shard manifest {self.manifest_path}: {error}"
            ) from error
        except json.JSONDecodeError as error:
            raise ShardFormatError(
                f"{self.manifest_path} is not valid JSON: {error}"
            ) from error
        if manifest.get("schema") != MANIFEST_SCHEMA:
            raise ShardFormatError(
                f"{self.manifest_path}: not a {MANIFEST_SCHEMA} manifest "
                f"(schema={manifest.get('schema')!r})"
            )
        self.manifest = manifest
        self.dir = self.manifest_path.parent
        self.name: str = manifest["name"]
        self.die = Rect(*manifest["die"])
        self.num_layers: int = manifest["num_layers"]
        self.total_nets: int = manifest["total_nets"]
        self.power_blockages: List[Blockage] = [
            Blockage(entry[0], Rect(entry[1], entry[2], entry[3], entry[4]),
                     entry[5])
            for entry in manifest["power_blockages"]
        ]
        self._index: List[Dict[str, object]] = list(manifest["shards"])
        self._boxes: List[Rect] = [Rect(*s["box"]) for s in self._index]
        self._resident: "OrderedDict[int, ShardData]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return (
            f"ShardStore({self.name}, {len(self)} shards, "
            f"{self.total_nets} nets, {len(self._resident)} resident)"
        )

    def shard_box(self, index: int) -> Rect:
        return self._boxes[index]

    @property
    def resident_count(self) -> int:
        return len(self._resident)

    def shard(self, index: int) -> ShardData:
        """The shard's parsed data, loading (and possibly evicting) LRU."""
        if not 0 <= index < len(self._index):
            raise IndexError(
                f"shard {index} out of range; store has {len(self._index)} shards"
            )
        data = self._resident.get(index)
        if data is not None:
            self._resident.move_to_end(index)
            return data
        path = self.dir / str(self._index[index]["file"])
        data = load_shard(path.read_text(encoding="utf-8"))
        if data.index != index:
            raise ShardFormatError(
                f"{path}: header says shard {data.index}, manifest says {index}"
            )
        while len(self._resident) >= self.max_resident:
            self._resident.popitem(last=False)
            if OBS.enabled:
                OBS.count("shards.evictions")
        self._resident[index] = data
        if OBS.enabled:
            OBS.count("shards.loads")
            OBS.gauge("shards.resident", len(self._resident))
        return data

    # ------------------------------------------------------------------
    # Chip reconstruction
    # ------------------------------------------------------------------
    def _base(self) -> Tuple:
        stack = example_stack(self.num_layers)
        return stack, example_rules(self.num_layers), example_wiretypes(stack)

    def chip_full(self) -> Chip:
        """Assemble the whole instance (small cases, property tests).

        Streams shards through the LRU in index order; the result holds
        every net, so this is only memory-bounded on the shard side.
        """
        stack, rules, wire_types = self._base()
        nets: List[Net] = []
        blockages = list(self.power_blockages)
        for index in range(len(self)):
            data = self.shard(index)
            nets.extend(data.nets)
            blockages.extend(data.blockages)
        return Chip(
            self.name, self.die, stack, rules, wire_types,
            circuits=[], nets=nets, blockages=blockages,
        )

    def chip_for_region(self, index: int) -> Chip:
        """A standalone chip for one region: its die is the region box
        plus a routing halo, so the routing space (track plan, grids,
        fast grid) is sized by the region — peak RSS is bounded by the
        shard, not the instance."""
        data = self.shard(index)
        halo = REGION_HALO_PITCHES * THIN_PITCH
        die = Rect(
            max(self.die.x_lo, data.box.x_lo - halo),
            max(self.die.y_lo, data.box.y_lo - halo),
            min(self.die.x_hi, data.box.x_hi + halo),
            min(self.die.y_hi, data.box.y_hi + halo),
        )
        blockages: List[Blockage] = []
        for blockage in self.power_blockages + data.blockages:
            clipped = blockage.rect.intersection(die)
            if clipped is not None:
                blockages.append(Blockage(blockage.layer, clipped, blockage.label))
        stack, rules, wire_types = self._base()
        return Chip(
            f"{self.name}#shard{index}", die, stack, rules, wire_types,
            circuits=[], nets=list(data.nets), blockages=blockages,
        )
