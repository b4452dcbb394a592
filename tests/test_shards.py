"""Streamed/sharded instance generation and the lazy shard store.

The load-bearing property: the sharded generator's in-memory assembly
(:func:`generate_chip_sharded`) and the round trip through disk shards
(:func:`stream_chip_shards` + :meth:`ShardStore.chip_full`) describe the
*same chip*, bit for bit — and shard loading order cannot matter,
because each shard is parsed independently and assembled in index order.
"""

import json
import random

import pytest

from repro.chip.generator import (
    ChipSpec,
    ShardPlan,
    TABLE_CHIP_SPECS,
    chip_spec,
    generate_chip,
    generate_chip_sharded,
    generate_region,
    iter_regions,
    scale_spec,
    stream_chip_shards,
)
from repro.io.shards import (
    ShardFormatError,
    ShardStore,
    dump_shard,
    load_shard,
)
from repro.io.textformat import FormatError, dump_chip, load_chip


def canonical_chip(chip):
    """Order-stable content signature of a chip's nets and blockages."""
    nets = tuple(
        (
            net.name,
            net.wire_type,
            net.weight,
            tuple(
                (
                    pin.name,
                    pin.circuit_id,
                    tuple(
                        (layer, rect.x_lo, rect.y_lo, rect.x_hi, rect.y_hi)
                        for layer, rect in pin.shapes
                    ),
                )
                for pin in net.pins
            ),
        )
        for net in chip.nets
    )
    blockages = tuple(
        (b.layer, b.rect.x_lo, b.rect.y_lo, b.rect.x_hi, b.rect.y_hi, b.label)
        for b in chip.blockages
    )
    return nets, blockages


@pytest.fixture(scope="module")
def small_spec():
    return ChipSpec("shardtest", rows=4, row_width_cells=16, net_count=60, seed=3)


@pytest.fixture(scope="module")
def small_plan(small_spec):
    return ShardPlan(small_spec, rows_per_region=2, cols_per_region=8)


class TestStreamedEqualsInMemory:
    def test_round_trip_bit_identical(self, tmp_path, small_spec, small_plan):
        reference = generate_chip_sharded(small_spec, small_plan)
        manifest = stream_chip_shards(small_spec, str(tmp_path), small_plan)
        loaded = ShardStore(manifest).chip_full()
        assert canonical_chip(loaded) == canonical_chip(reference)
        assert loaded.die == reference.die
        assert loaded.name == reference.name

    @pytest.mark.parametrize("seed", [1, 9, 42])
    def test_round_trip_across_seeds(self, tmp_path, seed):
        spec = ChipSpec(
            f"shardseed{seed}", rows=2, row_width_cells=8, net_count=12, seed=seed
        )
        plan = ShardPlan(spec, rows_per_region=1, cols_per_region=4)
        manifest = stream_chip_shards(spec, str(tmp_path / str(seed)), plan)
        assert canonical_chip(ShardStore(manifest).chip_full()) == canonical_chip(
            generate_chip_sharded(spec, plan)
        )

    def test_net_quota_spread(self, small_spec, small_plan):
        quotas = [
            small_plan.region_net_quota(i)
            for i in range(small_plan.num_regions)
        ]
        assert sum(quotas) == small_spec.net_count
        assert max(quotas) - min(quotas) <= 1

    def test_regions_generate_independently(self, small_spec, small_plan):
        """Generating region k alone equals generating it mid-stream."""
        alone = generate_region(small_spec, small_plan, 3)
        streamed = list(iter_regions(small_spec, small_plan))[3]
        assert [n.name for n in alone.nets] == [n.name for n in streamed.nets]
        assert dump_shard(alone) == dump_shard(streamed)


class TestShardLoadingOrder:
    def test_load_order_independent(self, tmp_path, small_spec, small_plan):
        manifest = stream_chip_shards(small_spec, str(tmp_path), small_plan)
        sequential = ShardStore(manifest)
        reference = canonical_chip(sequential.chip_full())
        shuffled = ShardStore(manifest)
        order = list(range(len(shuffled)))
        random.Random(5).shuffle(order)
        for index in order:
            shuffled.shard(index)
        assert canonical_chip(shuffled.chip_full()) == reference

    def test_shard_parse_round_trip(self, small_spec, small_plan):
        region = generate_region(small_spec, small_plan, 1)
        data = load_shard(dump_shard(region))
        assert data.index == region.index
        assert data.box == region.box
        assert dump_shard(data) == dump_shard(region)


class TestShardStore:
    def test_lru_eviction_bounds_residency(self, tmp_path, small_spec, small_plan):
        manifest = stream_chip_shards(small_spec, str(tmp_path), small_plan)
        store = ShardStore(manifest)
        store.max_resident = 2
        for index in range(len(store)):
            store.shard(index)
            assert store.resident_count <= 2
        # Reloading an evicted shard gives back identical content.
        first = dump_shard(store.shard(0))
        assert first == dump_shard(load_shard(
            (tmp_path / "shard_00000.chip").read_text(encoding="utf-8")
        ))

    def test_chip_for_region_is_bounded(self, tmp_path, small_spec, small_plan):
        manifest = stream_chip_shards(small_spec, str(tmp_path), small_plan)
        store = ShardStore(manifest)
        chip = store.chip_for_region(3)
        box = store.shard_box(3)
        assert chip.die.width < store.die.width
        assert chip.die.x_lo <= box.x_lo and chip.die.x_hi >= box.x_hi
        names = {net.name for net in chip.nets}
        assert names == {net.name for net in store.shard(3).nets}
        assert all(name.startswith("n3_") for name in names)
        for blockage in chip.blockages:
            assert blockage.rect.intersection(chip.die) is not None

    def test_store_accepts_directory(self, tmp_path, small_spec, small_plan):
        stream_chip_shards(small_spec, str(tmp_path), small_plan)
        store = ShardStore(str(tmp_path))
        assert len(store) == small_plan.num_regions
        assert store.total_nets == small_spec.net_count

    def test_bad_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"schema": "something-else"}), encoding="utf-8")
        with pytest.raises(ShardFormatError):
            ShardStore(str(path))

    def test_bad_shard_line_rejected(self):
        with pytest.raises(ShardFormatError):
            load_shard("SHARD 0 BOX 0 0 10 10\nWAT 1 2 3\nEND\n")


SHARD_HEADER = "SHARD 0 BOX 0 0 10 10"
CHIP_HEADER = "CHIP c DIE 0 0 10 10 LAYERS 1"
LAYER_LINE = "LAYER 1 H PITCH 80 WIDTH 40 SPACING 40"


class TestOneNetlistGrammar:
    """Chip and shard files share the ``BLOCKAGE``/``NET``/``PIN`` lines
    and nothing else."""

    def test_chip_netlist_lines_load_as_a_shard(self):
        chip = generate_chip(
            ChipSpec("grammar", rows=2, row_width_cells=5, net_count=8, seed=3)
        )
        netlist = [
            line for line in dump_chip(chip).splitlines()
            if line.split()[0] in ("BLOCKAGE", "NET", "PIN")
        ]
        data = load_shard("\n".join([SHARD_HEADER] + netlist))
        loaded = load_chip(dump_chip(chip))
        assert canonical_chip(data) == canonical_chip(loaded)

    @pytest.mark.parametrize(
        "load, text, error",
        [
            (load_shard, f"{SHARD_HEADER}\n{LAYER_LINE}", ShardFormatError),
            (load_shard, f"{SHARD_HEADER}\n{CHIP_HEADER}", ShardFormatError),
            (load_shard, f"{SHARD_HEADER}\nCIRCUIT 0 INV 0 0 N", ShardFormatError),
            (load_chip, f"{CHIP_HEADER}\n{LAYER_LINE}\n{SHARD_HEADER}", FormatError),
        ],
        ids=["shard_layer", "shard_chip", "shard_circuit", "chip_shard"],
    )
    def test_neither_file_takes_the_others_lines(self, load, text, error):
        with pytest.raises(error, match="unknown keyword"):
            load(text + "\nEND\n")


class TestShardRegionRoute:
    def test_route_reads_only_its_shard(self, tmp_path, monkeypatch, capsys):
        """``route --shard-region`` parses the region's own shard and no
        other: routing reads only the routing space built from it."""
        from repro.__main__ import main

        shard_dir = str(tmp_path / "shards")
        assert main([
            "chipgen", shard_dir, "--rows", "8", "--cols", "32",
            "--nets", "128", "--seed", "5",
            "--rows-per-region", "2", "--cols-per-region", "8",
        ]) == 0
        read = set()
        original = ShardStore.shard

        def spy(store, index):
            read.add(index)
            return original(store, index)

        monkeypatch.setattr(ShardStore, "shard", spy)
        code = main([
            "route", shard_dir + "/manifest.json", str(tmp_path / "routes.txt"),
            "--shard-region", "0", "--seed", "1",
        ])
        capsys.readouterr()
        assert code == 0
        assert read == {0}


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(rows=0), "rows"),
            (dict(row_width_cells=0), "row_width_cells"),
            (dict(net_count=0), "net_count"),
            (dict(num_layers=1), "num_layers"),
        ],
    )
    def test_bad_spec_names_field(self, kwargs, field):
        base = dict(rows=2, row_width_cells=4, net_count=4)
        base.update(kwargs)
        with pytest.raises(ValueError, match=field):
            ChipSpec("bad", **base)

    def test_unknown_spec_lists_valid_names(self):
        with pytest.raises(KeyError) as excinfo:
            chip_spec("not_a_spec")
        message = str(excinfo.value)
        assert "not_a_spec" in message
        for spec in TABLE_CHIP_SPECS:
            assert spec.name in message

    def test_known_spec_lookup(self):
        name = TABLE_CHIP_SPECS[0].name
        assert chip_spec(name).name == name

    def test_scale_spec_covers_requested_nets(self):
        spec, plan = scale_spec(1000)
        assert spec.net_count == 1000
        assert sum(
            plan.region_net_quota(i) for i in range(plan.num_regions)
        ) == 1000
