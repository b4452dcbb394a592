"""Scale bench: streamed 10^5-net generation and bounded-RSS routing.

The paper's instances have 120k-960k nets; the point of the sharded
generator (repro.chip.generator.stream_chip_shards) is that such
instances *stream* to disk — peak memory is one region, not the chip —
and that routing one region through :class:`repro.io.shards.ShardStore`
costs memory proportional to the shard, not the instance.

Each size is generated in a fresh **spawn** subprocess so its peak RSS
(``resource.getrusage``) measures that size alone, unpolluted by the
parent's history; the largest size must stay under
:data:`GENERATION_RSS_BOUND`, and routing one region of it under
:data:`REGION_ROUTE_RSS_BOUND`.  The summary persists nets/shards/pins
(deterministic, regression-gated) plus wall-clock and RSS telemetry
into ``BENCH_scale.json`` for ``python -m repro.obs.regress``.
"""

import multiprocessing
import time

import pytest

from benchmarks.common import (
    bench_mode,
    print_table,
    write_bench_record,
)

#: Net counts exercised per mode (>= 3 sizes in every mode).
SCALE_SIZES = {
    "quick": [2_000, 20_000, 100_000],
    "default": [2_000, 20_000, 100_000],
    "full": [2_000, 20_000, 100_000, 300_000],
}

#: Peak-RSS ceiling for streaming the largest instance to disk.  An
#: in-memory 10^5-net chip holds every pin rectangle at once; the
#: streamed path must stay in the one-region-at-a-time envelope.
GENERATION_RSS_BOUND = 512 * 1024 * 1024

#: Peak-RSS ceiling for routing one region of the largest instance.
REGION_ROUTE_RSS_BOUND = 512 * 1024 * 1024

_RESULTS = {}


def _sizes():
    return SCALE_SIZES[bench_mode()]


def _child_rss_bytes():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _generate_worker(conn, net_count, out_dir):
    """Spawn-subprocess entry: stream one sharded instance, report RSS."""
    try:
        from repro.chip.generator import scale_spec, stream_chip_shards

        spec, plan = scale_spec(net_count)
        start = time.time()
        manifest = stream_chip_shards(spec, out_dir, plan)
        conn.send(
            {
                "ok": True,
                "manifest": manifest,
                "seconds": time.time() - start,
                "shards": plan.num_regions,
                "peak_rss_bytes": _child_rss_bytes(),
            }
        )
    except BaseException as error:  # noqa: BLE001 - report, then die
        conn.send({"ok": False, "error": f"{type(error).__name__}: {error}"})
    finally:
        conn.close()


def _route_worker(conn, manifest, region_index):
    """Spawn-subprocess entry: route one region of a sharded instance."""
    try:
        from repro.flow.bonnroute import BonnRouteFlow
        from repro.io.shards import ShardStore

        chip = ShardStore(manifest).chip_for_region(region_index)
        start = time.time()
        result = BonnRouteFlow(chip, gr_phases=8, seed=1).run()
        conn.send(
            {
                "ok": True,
                "seconds": time.time() - start,
                "nets": len(chip.nets),
                "netlength": result.metrics.netlength,
                "vias": result.metrics.vias,
                "failed": sorted(result.detailed_result.failed),
                "peak_rss_bytes": _child_rss_bytes(),
            }
        )
    except BaseException as error:  # noqa: BLE001 - report, then die
        conn.send({"ok": False, "error": f"{type(error).__name__}: {error}"})
    finally:
        conn.close()


def _in_subprocess(worker, *args, timeout_s=900):
    """Run ``worker`` in a fresh spawn child; returns its report dict.

    Spawn (not fork) so the child's ``ru_maxrss`` starts from a bare
    interpreter instead of inheriting the parent's peak.
    """
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(target=worker, args=(child_conn, *args))
    process.start()
    child_conn.close()
    try:
        if not parent_conn.poll(timeout_s):
            raise TimeoutError(f"{worker.__name__} exceeded {timeout_s}s")
        report = parent_conn.recv()
    finally:
        parent_conn.close()
        process.join(timeout=30)
        if process.is_alive():
            process.kill()
            process.join()
    if not report.get("ok"):
        raise AssertionError(f"{worker.__name__} failed: {report.get('error')}")
    return report


@pytest.mark.parametrize("net_count", _sizes())
def test_scale_generation(benchmark, tmp_path, net_count):
    out_dir = str(tmp_path / f"shards_{net_count}")
    report = benchmark.pedantic(
        _in_subprocess,
        args=(_generate_worker, net_count, out_dir),
        rounds=1,
        iterations=1,
    )
    report["net_count"] = net_count
    report["out_dir"] = out_dir
    benchmark.extra_info["report"] = {
        k: v for k, v in report.items() if k != "ok"
    }
    _RESULTS[net_count] = report
    assert report["shards"] >= 1
    if net_count >= 100_000:
        assert report["peak_rss_bytes"] < GENERATION_RSS_BOUND, (
            f"streamed generation of {net_count} nets peaked at "
            f"{report['peak_rss_bytes'] / 2**20:.0f} MiB"
        )


def test_scale_route_one_region(benchmark, tmp_path):
    if not _RESULTS:
        pytest.skip("generation benches did not run")
    largest = max(_RESULTS)
    manifest = _RESULTS[largest]["manifest"]
    report = benchmark.pedantic(
        _in_subprocess,
        args=(_route_worker, manifest, 0),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["report"] = {
        k: v for k, v in report.items() if k != "ok"
    }
    _RESULTS["route"] = dict(report, net_count=largest)
    assert report["failed"] == [], (
        f"region 0 of the {largest}-net instance left opens: "
        f"{report['failed']}"
    )
    assert report["peak_rss_bytes"] < REGION_ROUTE_RSS_BOUND, (
        f"routing one region of {largest} nets peaked at "
        f"{report['peak_rss_bytes'] / 2**20:.0f} MiB"
    )


def test_scale_summary(benchmark):
    if not any(isinstance(key, int) for key in _RESULTS):
        pytest.skip("generation benches did not run")

    def summarize():
        sizes = sorted(key for key in _RESULTS if isinstance(key, int))
        wall_clock = {}
        work = {}
        resources = {}
        rows = []
        for net_count in sizes:
            report = _RESULTS[net_count]
            wall_clock[f"gen_{net_count}_s"] = report["seconds"]
            work[f"gen_{net_count}_nets"] = net_count
            work[f"gen_{net_count}_shards"] = report["shards"]
            resources[f"gen_{net_count}_peak_rss_bytes"] = report[
                "peak_rss_bytes"
            ]
            rows.append(
                [
                    net_count,
                    report["shards"],
                    f"{report['seconds']:.2f}",
                    f"{report['peak_rss_bytes'] / 2**20:.0f}",
                ]
            )
        route = _RESULTS.get("route")
        if route is not None:
            wall_clock["route_region_s"] = route["seconds"]
            work["route_region_nets"] = route["nets"]
            work["route_region_netlength"] = route["netlength"]
            work["route_region_vias"] = route["vias"]
            resources["route_region_peak_rss_bytes"] = route["peak_rss_bytes"]
            rows.append(
                [
                    f"route r0 of {route['net_count']}",
                    "-",
                    f"{route['seconds']:.2f}",
                    f"{route['peak_rss_bytes'] / 2**20:.0f}",
                ]
            )
        return wall_clock, work, resources, rows

    wall_clock, work, resources, rows = benchmark.pedantic(
        summarize, rounds=1, iterations=1
    )
    print_table(
        "Scale: streamed generation and one-region routing",
        ["nets", "shards", "seconds", "peak_rss_mib"],
        rows,
    )
    path = write_bench_record("scale", wall_clock, work, resources=resources)
    if path is not None:
        print(f"bench record appended to {path}")
