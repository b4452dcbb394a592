"""Ablation: wire spreading on/off (Sec. 4.2).

Paper: where space allows, spreading wires apart reduces coupling and
the critical area for extra-material defects (yield).  The bench routes
the same sparse chip with and without the spreading penalties and counts
*coupling events* - pairs of parallel same-layer wire segments on
adjacent tracks - as the yield/coupling proxy.
"""

from benchmarks.common import print_table
from repro.chip.generator import ChipSpec, generate_chip
from repro.droute.router import DetailedRouter
from repro.droute.space import RoutingSpace
from repro.droute.spreading import WireSpreading
from repro.groute.router import GlobalRouter

SPEC = ChipSpec("ablsp", rows=3, row_width_cells=6, net_count=10, seed=7)


def _coupling_events(space) -> int:
    """Pairs of parallel diff-net segments on adjacent tracks."""
    graph = space.graph
    events = 0
    per_track = {}
    for net_name, route in space.routes.items():
        for stick, _level, _tn in route.wire_items():
            if stick.is_point:
                continue
            z = stick.layer
            tracks = graph.tracks[z]
            coord = stick.y0 if stick.y0 == stick.y1 else stick.x0
            if coord in graph._track_index[z]:
                t = graph._track_index[z][coord]
                per_track.setdefault((z, t), []).append((net_name, stick))
    for (z, t), items in per_track.items():
        neighbour = per_track.get((z, t + 1), [])
        for net_a, stick_a in items:
            for net_b, stick_b in neighbour:
                if net_a == net_b:
                    continue
                rect_a, rect_b = stick_a.as_rect(), stick_b.as_rect()
                overlap = min(rect_a.x_hi, rect_b.x_hi) - max(rect_a.x_lo, rect_b.x_lo)
                overlap_y = min(rect_a.y_hi, rect_b.y_hi) - max(rect_a.y_lo, rect_b.y_lo)
                if max(overlap, overlap_y) > 0:
                    events += 1
    return events


def _route(spreading_enabled: bool):
    chip = generate_chip(SPEC)
    gr = GlobalRouter(chip, phases=8, seed=1)
    gr_result = gr.run()
    space = RoutingSpace(chip)
    spreading = (
        WireSpreading.from_global_result(space.graph, gr_result, penalty=480)
        if spreading_enabled
        else None
    )
    router = DetailedRouter(space, spreading=spreading)
    result = router.run()
    return space, result


def test_wire_spreading_ablation(benchmark):
    def run_both():
        return _route(False), _route(True)

    (space_off, result_off), (space_on, result_on) = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    events_off = _coupling_events(space_off)
    events_on = _coupling_events(space_on)
    rows = [
        ["spreading OFF", events_off, result_off.wire_length,
         len(result_off.routed)],
        ["spreading ON", events_on, result_on.wire_length,
         len(result_on.routed)],
    ]
    print_table(
        "Ablation: wire spreading (Sec. 4.2; coupling events = adjacent-"
        "track diff-net overlaps)",
        ["configuration", "coupling events", "wirelength", "nets routed"],
        rows,
    )
    benchmark.extra_info["events"] = {"off": events_off, "on": events_on}
    # Spreading must not lose nets and must not increase coupling.
    assert len(result_on.routed) == len(result_off.routed)
    assert events_on <= events_off
