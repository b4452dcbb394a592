"""Fig. 4: fast-grid vertex words, interval grouping, zigzag bit.

Paper: per wire type the fast grid stores legality words at track-graph
vertices (circles in the figure: jog blocked; filled circles: wire
blocked too), grouped into intervals of equal words along preferred
direction; an off-track obstacle sets a dirty bit forcing a direct
shape-grid query for the "zigzag" edge whose usability cannot be deduced
from its endpoints.  The figure's small example stores 6 intervals.

The bench reproduces all three mechanisms on one track crossing an
on-track obstacle and an off-track blob.
"""

from benchmarks.common import print_table
from repro.chip.generator import ChipSpec, generate_chip
from repro.droute.space import RoutingSpace
from repro.geometry.rect import Rect
from repro.tech.wiring import ShapeKind, StickFigure


def _build():
    chip = generate_chip(
        ChipSpec("fig4", rows=2, row_width_cells=5, net_count=4, seed=4)
    )
    space = RoutingSpace(chip)
    graph = space.graph
    # Top layer (vertical): its cross coordinates come from layer 5 only,
    # so consecutive track-graph vertices sit a full 160 dbu apart - the
    # geometry the zigzag construction below needs.
    z = 6
    t = len(graph.tracks[z]) // 2
    x = graph.tracks[z][t]
    # On-track foreign wire blocking a run of vertices.
    _, y_lo, _ = graph.position((z, t, 4))
    _, y_hi, _ = graph.position((z, t, 7))
    space.add_wire("obstacle", "default", StickFigure(z, x, y_lo, x, y_hi))
    # Off-track blob between vertices 12 and 13: the zigzag case.  The
    # offset is chosen so the blob violates spacing against the
    # *connecting wire segment* (cross gap 77 < 80) but not against the
    # endpoint point-shapes (l2 gap hypot(30, 77) = 82.6 >= 80).
    _, y12, _ = graph.position((z, t, 12))
    _, y13, _ = graph.position((z, t, 13))
    mid = (y12 + y13) // 2
    blob = Rect(x + 117, mid - 10, x + 137, mid + 10)
    space.shape_grid.add_shape(
        "wiring", z, blob, "offnet", "blob", ShapeKind.WIRE, 3, 20
    )
    space.fast_grid.invalidate_region(z, blob, off_track=True)
    return space, z, t


def test_fig4_fastgrid_words(benchmark):
    space, z, t = benchmark(_build)
    fast = space.fast_grid
    count = min(len(space.graph.crosses[z]), 18)
    fast.ensure_words("default", z, t, 0, count - 1)
    marks = []
    for c in range(count):
        vertex = (z, t, c)
        wire_ok = fast.vertex_usable("default", vertex, "wire")
        jog_ok = fast.vertex_usable("default", vertex, "jog")
        if wire_ok and jog_ok:
            marks.append(".")
        elif wire_ok:
            marks.append("o")  # circle: jog blocked
        else:
            marks.append("#")  # filled circle: wire blocked too
    print_table(
        "Fig. 4: vertex marks along one track ('.'=free 'o'=no-jog '#'=no-wire)",
        ["track", "marks"],
        [[f"(z={z}, t={t})", "".join(marks)]],
    )
    intervals = fast.interval_count()
    print(f"  fast-grid intervals stored: {intervals}")
    benchmark.extra_info["marks"] = "".join(marks)
    benchmark.extra_info["intervals"] = intervals
    # The blocked run shows up as non-free marks.
    assert "#" in "".join(marks)
    # Interval grouping: far fewer intervals than cached words.
    cached = fast.cached_word_count()
    assert 0 < intervals < cached
    # Zigzag bit: both endpoint words look usable, yet the edge between
    # vertices 12 and 13 fails the forced segment check.
    v, w = (z, t, 12), (z, t, 13)
    assert fast.vertex_usable("default", v, "wire")
    assert fast.vertex_usable("default", w, "wire")
    assert not fast.edge_usable("default", v, w, "wire")
