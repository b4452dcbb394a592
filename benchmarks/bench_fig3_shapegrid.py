"""Fig. 3: shape-grid cell configurations and interval compression.

Paper: the Fig. 2 wiring yields 13 distinct cell configurations stored
once in the lookup table and 15 stored intervals (runs of identical
configuration numbers merged in preferred direction; empty intervals not
stored).  Our cell sizes differ, so the bench verifies the *mechanism*:
the number of stored intervals and distinct configurations stays far
below the number of covered cells, and grows only mildly when the same
pattern is stamped many times.
"""

from benchmarks.common import print_table
from repro.geometry.rect import Rect
from repro.grid.shapegrid import ShapeGrid
from repro.tech.stacks import example_stack
from repro.tech.wiring import ShapeKind


def _stamp_pattern(grid: ShapeGrid, x0: int, y0: int, net: str) -> int:
    """The Fig. 2 wiring (wire-jog-wire + via pad), translated; returns
    the number of cells the shapes cover."""
    shapes = [
        Rect(x0 - 40, y0 - 20, x0 + 640, y0 + 20),     # wire with extensions
        Rect(x0 + 580, y0 - 20, x0 + 620, y0 + 340),   # jog
        Rect(x0 + 560, y0 + 300, x0 + 1240, y0 + 340), # second wire
        Rect(x0 - 40, y0 - 20, x0 + 40, y0 + 20),      # via pad
    ]
    cells = 0
    for rect in shapes:
        grid.add_shape("wiring", 1, rect, net, "w40", ShapeKind.WIRE, 3, 40)
        cells += ((rect.width // 80) + 1) * ((rect.height // 80) + 1)
    return cells


def test_fig3_shape_grid_compression(benchmark):
    def build():
        stack = example_stack(4)
        grid = ShapeGrid(Rect(0, 0, 40000, 40000), stack)
        covered = 0
        stamps = 20
        for i in range(stamps):
            covered += _stamp_pattern(
                grid, 400 + (i % 5) * 2000, 400 + (i // 5) * 2000, f"n{i}"
            )
        return grid, covered, stamps

    grid, covered_cells, stamps = benchmark(build)
    intervals = grid.interval_count("wiring", 1)
    configs = grid.net_agnostic_config_count("wiring", 1)
    single = ShapeGrid(Rect(0, 0, 40000, 40000), example_stack(4))
    single_cells = _stamp_pattern(single, 400, 400, "n0")
    single_configs = single.net_agnostic_config_count("wiring", 1)
    rows = [
        ["1 stamp (the Fig. 2/3 pattern)", single_cells,
         single.interval_count("wiring", 1), single_configs],
        [f"{stamps} stamps", covered_cells, intervals, configs],
    ]
    print_table(
        "Fig. 3: shape-grid compression (configs counted net-free, as in "
        "the paper's table)",
        ["wiring", "covered cells", "stored intervals", "distinct configs"],
        rows,
    )
    benchmark.extra_info["intervals"] = intervals
    benchmark.extra_info["configs"] = configs
    # Mechanism checks: interval merging and configuration interning.
    assert single.interval_count("wiring", 1) < single_cells
    assert intervals < covered_cells
    # Identical stamps (same cell phase) share configurations: the
    # net-free table barely grows with the stamp count.
    assert configs <= 2 * single_configs
