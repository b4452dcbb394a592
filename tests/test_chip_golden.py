"""Golden digests of synthetic chip generation.

Every other golden file routes a generated chip, so generation itself is
pinned here first.  ``chip_golden.json`` holds the SHA-256 of the text
form of:

* ``dump_chip(generate_chip(spec))`` for every ``TABLE_CHIP_SPECS``
  entry (chip3-chip8 are never routed in the test suite);
* the same for the four ``routebench`` workload chips, at their default
  and held-out chip seeds;
* ``dump_shard`` of every region of ``scale_spec(200, seed=3)``, and
  ``dump_chip`` of its in-memory assembly ``generate_chip_sharded``.

The digests do not depend on ``PYTHONHASHSEED``.  Regenerate the file
(only when a change of the generated chips is intended) with::

    PYTHONPATH=src python tests/test_chip_golden.py
"""

import hashlib
import json
import os

import pytest

from repro.chip.generator import (
    TABLE_CHIP_SPECS,
    ChipSpec,
    generate_chip,
    generate_chip_sharded,
    iter_regions,
    scale_spec,
)
from repro.io.shards import dump_shard
from repro.io.textformat import dump_chip

GOLDEN_FIXTURE = os.path.join(os.path.dirname(__file__), "chip_golden.json")

#: The ``routebench/workloads.py`` chips: (name, rows, row_width_cells,
#: net_count, default chip seed, held-out chip seed).
BENCH_CHIPS = [
    ("flow_medium", 2, 4, 4, 1015, 1012),
    ("eco_edits", 2, 5, 8, 3, 1),
    ("global_large", 12, 40, 1000, 7, 8),
    ("droute_pool2", 3, 7, 14, 41, 42),
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _chip_run(spec):
    return lambda: _sha256(dump_chip(generate_chip(spec)))


def run_sharded():
    spec, plan = scale_spec(200, seed=3)
    record = {
        f"region_{region.index}": _sha256(dump_shard(region))
        for region in iter_regions(spec, plan)
    }
    record["assembled"] = _sha256(dump_chip(generate_chip_sharded(spec, plan)))
    return record


#: Entry name -> run producing its record.
RUNS = {spec.name: _chip_run(spec) for spec in TABLE_CHIP_SPECS}
for _name, _rows, _cells, _nets, *_seeds in BENCH_CHIPS:
    for _seed in _seeds:
        RUNS[f"{_name}_{_seed}"] = _chip_run(
            ChipSpec(_name, rows=_rows, row_width_cells=_cells,
                     net_count=_nets, seed=_seed)
        )
RUNS["scale200_3"] = run_sharded


def _load_golden():
    with open(GOLDEN_FIXTURE) as fh:
        return json.load(fh)


GOLDEN = _load_golden() if os.path.exists(GOLDEN_FIXTURE) else {}


def test_golden_covers_every_run():
    assert sorted(GOLDEN) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_generation_reproduces_golden(name):
    assert RUNS[name]() == GOLDEN[name]


if __name__ == "__main__":
    golden = {name: run() for name, run in sorted(RUNS.items())}
    with open(GOLDEN_FIXTURE, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} entries to {GOLDEN_FIXTURE}")
