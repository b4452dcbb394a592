"""Fig. 1: resource consumption gamma(s) vs assigned extra space.

Paper: three curves for a net using an edge - power consumption
(dashed, decreasing convex), manufacturing yield loss (dotted,
decreasing convex), and space consumption (solid, linear increasing).
The bench regenerates the three series and verifies their shapes.
"""

from benchmarks.common import print_table
from repro.groute.resources import power_usage, space_usage, yield_loss


def _series():
    samples = [s / 4.0 for s in range(0, 13)]  # s = 0 .. 3 tracks
    return {
        "s": samples,
        "space": [space_usage(1.0, s) for s in samples],
        "power": [power_usage(1.0, s) for s in samples],
        "yield": [yield_loss(1.0, s) for s in samples],
    }


def test_fig1_resource_curves(benchmark):
    series = benchmark(_series)
    rows = [
        [f"{s:.2f}", f"{sp:.3f}", f"{p:.3f}", f"{y:.3f}"]
        for s, sp, p, y in zip(
            series["s"], series["space"], series["power"], series["yield"]
        )
    ]
    print_table(
        "Fig. 1: gamma(s) per unit wire length",
        ["extra space s", "space (solid)", "power (dashed)", "yield (dotted)"],
        rows,
    )
    benchmark.extra_info["series"] = series
    space, power, yld = series["space"], series["power"], series["yield"]
    # Space: linear increasing with slope 1.
    deltas = [b - a for a, b in zip(space, space[1:])]
    assert all(abs(d - deltas[0]) < 1e-9 for d in deltas)
    # Power / yield: strictly decreasing ...
    assert all(b < a for a, b in zip(power, power[1:]))
    assert all(b < a for a, b in zip(yld, yld[1:]))
    # ... and convex (second differences >= 0).
    for curve in (power, yld):
        first = [b - a for a, b in zip(curve, curve[1:])]
        assert all(d2 >= d1 - 1e-9 for d1, d2 in zip(first, first[1:]))
