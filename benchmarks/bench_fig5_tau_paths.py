"""Fig. 5: geometric vs tau-feasible shortest paths.

Paper: a geometric shortest path from a via pad to a pin violates
minimum-segment-length (notch / short-edge) rules; enforcing a minimum
segment length tau yields a slightly longer but rule-clean path.

The bench rebuilds the figure's situation - a target offset by less than
tau with obstacles around - and compares the unconstrained (tau=1)
shortest path against the tau-feasible one.
"""

from benchmarks.common import print_table
from repro.geometry.rect import Rect
from repro.grid.blockgrid import BlockageGrid, min_segment_length


def _scenario():
    tau = 80
    obstacles = [
        Rect(200, 120, 560, 160),   # bar between pad and pin
    ]
    bbox = Rect(0, 0, 800, 600)
    source = (120, 80)    # via pad
    target = (520, 260)   # pin corner, offset by less than 2*tau in y
    return tau, obstacles, bbox, source, target


def test_fig5_tau_feasible_paths(benchmark):
    tau, obstacles, bbox, source, target = _scenario()

    def solve():
        geometric = BlockageGrid(obstacles, 1, bbox, [source, target])
        g_result = geometric.shortest_path([source], [target])
        feasible = BlockageGrid(obstacles, tau, bbox, [source, target])
        f_result = feasible.shortest_path([source], [target])
        return g_result, f_result

    g_result, f_result = benchmark(solve)
    assert g_result is not None and f_result is not None
    g_len, g_points = g_result
    f_len, f_points = f_result
    rows = [
        ["geometric (tau=1)", g_len, min_segment_length(g_points),
         len(g_points) - 1],
        [f"tau-feasible (tau={tau})", f_len, min_segment_length(f_points),
         len(f_points) - 1],
    ]
    print_table(
        "Fig. 5: shortest path with and without minimum segment lengths",
        ["path", "length", "min segment", "segments"],
        rows,
    )
    benchmark.extra_info["geometric"] = {"length": g_len, "points": g_points}
    benchmark.extra_info["feasible"] = {"length": f_len, "points": f_points}
    # The figure's statement: the geometric path contains a rule-breaking
    # short segment; the tau-feasible one does not and is at most
    # moderately longer.
    assert min_segment_length(g_points) < tau
    assert min_segment_length(f_points) >= tau
    assert g_len <= f_len <= 2 * g_len
    # Neither path crosses the obstacle.
    for points in (g_points, f_points):
        for a, b in zip(points, points[1:]):
            seg = Rect.from_points(a[0], a[1], b[0], b[1])
            assert not any(seg.intersects_open(o) for o in obstacles)
