"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — write a synthetic chip to a text file;
* ``chipgen`` — stream a large sharded instance (per-region shard
  files plus ``manifest.json``) to a directory without materializing
  the whole chip in memory;
* ``route`` — run the BonnRoute flow (or the ISR baseline) on a chip
  file and write the routes; ``--eco CHANGES.json`` follows up with an
  incremental ECO reroute of only the edited/conflicting nets; with
  ``--shard-region I`` the chip argument is a shard manifest (or its
  directory) and only region ``I`` plus a halo is routed;
* ``drc`` — check a routed chip and print the violation summary;
* ``render`` / ``viz`` — ASCII-render one layer of a routed chip
  (``viz`` additionally takes a ``--window`` clip rectangle).

Observability (docs/OBSERVABILITY.md): ``route --obs`` prints the
end-of-run span/counter summary, ``--trace-out PATH`` additionally
streams the JSONL trace (validate with ``python -m repro.obs``),
``--heatmap-out PATH`` exports the global-routing congestion heatmap,
and ``--report-out PATH`` writes the standalone HTML report (span
waterfall, heatmap, track utilization, histograms — inline SVG).
"""

from __future__ import annotations

import argparse
import sys

from repro.chip.generator import ChipSpec, generate_chip
from repro.io.textformat import (
    read_chip_file,
    read_routes_file,
    write_chip_file,
    write_routes_file,
)


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = ChipSpec(
        args.name, rows=args.rows, row_width_cells=args.cells,
        net_count=args.nets, seed=args.seed,
    )
    chip = generate_chip(spec)
    write_chip_file(chip, args.output)
    print(f"wrote {chip} to {args.output}")
    return 0


def _cmd_chipgen(args: argparse.Namespace) -> int:
    from repro.chip.generator import ShardPlan, chip_spec, stream_chip_shards

    if args.spec:
        try:
            spec = chip_spec(args.spec)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
    else:
        try:
            spec = ChipSpec(
                args.name, rows=args.rows, row_width_cells=args.cells,
                net_count=args.nets, seed=args.seed,
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    plan = ShardPlan(
        spec,
        rows_per_region=args.rows_per_region,
        cols_per_region=args.cols_per_region,
    )
    manifest = stream_chip_shards(spec, args.output_dir, plan)
    print(
        f"streamed {spec.net_count} nets into {plan.num_regions} shards "
        f"({plan.region_rows}x{plan.region_cols} regions)"
    )
    print(f"manifest written to {manifest}")
    return 0


def _write_flight_dump(path: str) -> None:
    """Write the observer's flight-recorder ring to ``path`` as JSON."""
    import json

    from repro.obs import OBS

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"type": "flight_recorder", "records": OBS.flight.dump()},
            handle, sort_keys=True, default=str,
        )
        handle.write("\n")


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.obs import OBS, JsonlTraceSink

    if args.shard_region is not None:
        from repro.io.shards import ShardFormatError, ShardStore

        try:
            chip = ShardStore(args.chip).chip_for_region(args.shard_region)
        except (OSError, IndexError, ShardFormatError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        chip = read_chip_file(args.chip)
    if args.trace_out or args.obs or args.report_out:
        sink = None
        if args.trace_out:
            sink = JsonlTraceSink(
                args.trace_out,
                meta={"chip": chip.name, "flow": args.flow, "seed": args.seed},
            )
        OBS.configure(enabled=True, sink=sink)
    if args.flow == "bonnroute":
        from repro.flow.bonnroute import BonnRouteFlow
        from repro.flow.faults import FaultPlan

        fault_plan = None
        if args.inject_faults:
            try:
                fault_plan = FaultPlan.parse(
                    args.inject_faults, seed=args.seed or 0
                )
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        from repro.io.checkpoint import CheckpointError

        try:
            result = BonnRouteFlow(
                chip, gr_phases=args.gr_phases, seed=args.seed,
                cleanup=not args.no_cleanup,
                fault_plan=fault_plan,
                net_timeout_s=args.net_timeout,
                stage_budget_s=args.stage_budget,
                checkpoint_path=args.checkpoint,
                resume=args.resume,
                workers=args.workers,
                region_timeout_s=args.region_timeout,
                preroute_local_nets=not args.no_preroute,
            ).run()
        except CheckpointError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        except BaseException:
            # Unhandled flow crash: leave the flight recorder's last
            # moments on disk before the traceback propagates.
            if args.flight_out:
                _write_flight_dump(args.flight_out)
                print(
                    f"flight recorder dump written to {args.flight_out}",
                    file=sys.stderr,
                )
            raise
    else:
        from repro.flow.isr_flow import IsrFlow

        result = IsrFlow(chip, cleanup=not args.no_cleanup).run()
    if args.eco:
        import json

        from repro.engine.changes import changes_from_json

        if args.flow != "bonnroute":
            print("error: --eco requires --flow bonnroute", file=sys.stderr)
            return 2
        try:
            with open(args.eco) as handle:
                changes = changes_from_json(json.load(handle))
            session = result.session
            session.apply_changes(changes)
            eco_report = session.reroute(cleanup=not args.no_cleanup)
        except (OSError, ValueError, KeyError, IndexError) as error:
            print(f"error: eco pass failed: {error}", file=sys.stderr)
            return 2
        result.metrics.eco = eco_report.as_dict()
        result.metrics.netlength = eco_report.wire_length
        result.metrics.vias = eco_report.via_count
        print("--- eco report ---")
        for key, value in eco_report.as_dict().items():
            print(f"{key:13}: {value}")
    write_routes_file(result.space.routes, args.output, chip.name)
    for key, value in result.metrics.as_dict().items():
        print(f"{key:13}: {value}")
    report = getattr(result, "failure_report", None)
    if report is not None and (
        report.net_failures or report.degraded_stages or report.recovered_nets
    ):
        print("--- failure report ---")
        for key, value in report.as_dict().items():
            print(f"{key:13}: {value}")
    if OBS.enabled:
        OBS.close()
        print("--- observability summary ---")
        print(OBS.summary_table())
        if args.trace_out:
            print(f"trace written to {args.trace_out}")
    if args.flight_out:
        _write_flight_dump(args.flight_out)
        print(f"flight recorder dump written to {args.flight_out}")
    if args.heatmap_out:
        from repro.obs import write_congestion_heatmap

        heatmap = write_congestion_heatmap(
            result.global_result, args.heatmap_out
        )
        print(
            f"congestion heatmap ({len(heatmap['edges'])} used edges, "
            f"max utilization {heatmap['max_utilization']:.2f}) "
            f"written to {args.heatmap_out}"
        )
    if args.report_out:
        from repro.obs.report import write_route_report

        write_route_report(
            args.report_out,
            result,
            OBS,
            meta={"chip": chip.name, "flow": args.flow, "seed": args.seed},
        )
        print(f"report written to {args.report_out}")
    print(f"routes written to {args.output}")
    return 0 if result.detailed_result.failed == set() else 1


def _cmd_drc(args: argparse.Namespace) -> int:
    from repro.drc.checker import DrcChecker
    from repro.droute.space import RoutingSpace

    chip = read_chip_file(args.chip)
    space = RoutingSpace(chip)
    routes = read_routes_file(args.routes)
    for route in routes.values():
        for stick, level, type_name in route.wire_items():
            space.add_wire(route.net_name, type_name, stick, level)
        for via, level, type_name in route.via_items():
            space.add_via(route.net_name, type_name, via, level)
    report = DrcChecker(space).run()
    print(f"errors: {report.error_count}  ({report.by_kind()})")
    if args.verbose:
        for violation in report.violations:
            print(f"  {violation}")
    return 0 if report.error_count == 0 else 1


def _parse_window(spec: str):
    from repro.geometry.rect import Rect

    parts = spec.split(",")
    if len(parts) != 4:
        raise ValueError(
            f"--window wants X_LO,Y_LO,X_HI,Y_HI (four integers), got {spec!r}"
        )
    try:
        x_lo, y_lo, x_hi, y_hi = (int(part) for part in parts)
    except ValueError:
        raise ValueError(f"--window coordinates must be integers, got {spec!r}")
    if x_hi <= x_lo or y_hi <= y_lo:
        raise ValueError(
            f"--window must span a non-empty area (x_lo < x_hi, "
            f"y_lo < y_hi), got {spec!r}"
        )
    return Rect(x_lo, y_lo, x_hi, y_hi)


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.droute.space import RoutingSpace
    from repro.viz import render_layer

    chip = read_chip_file(args.chip)
    space = RoutingSpace(chip)
    if args.routes:
        for route in read_routes_file(args.routes).values():
            for stick, level, type_name in route.wire_items():
                space.add_wire(route.net_name, type_name, stick, level)
            for via, level, type_name in route.via_items():
                space.add_via(route.net_name, type_name, via, level)
    window = None
    try:
        if args.window:
            window = _parse_window(args.window)
        rendering = render_layer(space, args.layer, width=args.width, window=window)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(rendering)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="BonnRoute reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic chip")
    generate.add_argument("output")
    generate.add_argument("--name", default="chip")
    generate.add_argument("--rows", type=int, default=3)
    generate.add_argument("--cells", type=int, default=6)
    generate.add_argument("--nets", type=int, default=10)
    generate.add_argument("--seed", type=int, default=1)
    generate.set_defaults(func=_cmd_generate)

    chipgen = sub.add_parser(
        "chipgen",
        help="stream a sharded chip instance (shards + manifest) to a "
        "directory",
    )
    chipgen.add_argument("output_dir")
    chipgen.add_argument(
        "--spec", default=None, metavar="NAME",
        help="use a named chip spec (see repro.chip.generator."
        "TABLE_CHIP_SPECS) instead of --rows/--cells/--nets",
    )
    chipgen.add_argument("--name", default="chip")
    chipgen.add_argument("--rows", type=int, default=8)
    chipgen.add_argument("--cells", type=int, default=32)
    chipgen.add_argument("--nets", type=int, default=128)
    chipgen.add_argument("--seed", type=int, default=1)
    chipgen.add_argument(
        "--rows-per-region", type=int, default=4, metavar="R",
        help="cell rows per shard region",
    )
    chipgen.add_argument(
        "--cols-per-region", type=int, default=16, metavar="C",
        help="cell columns (slots) per shard region",
    )
    chipgen.set_defaults(func=_cmd_chipgen)

    route = sub.add_parser("route", help="route a chip file")
    route.add_argument("chip")
    route.add_argument("output")
    route.add_argument("--flow", choices=("bonnroute", "isr"), default="bonnroute")
    route.add_argument("--gr-phases", type=int, default=15)
    route.add_argument("--seed", type=int, default=1)
    route.add_argument("--no-cleanup", action="store_true")
    route.add_argument(
        "--net-timeout", type=float, default=None, metavar="SECONDS",
        help="soft per-net deadline inside the detailed search",
    )
    route.add_argument(
        "--stage-budget", type=float, default=None, metavar="SECONDS",
        help="hard wall-clock budget per routing stage",
    )
    route.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="route each partition round's regions on N worker "
        "processes under a crash-tolerant supervisor (1 = every round "
        "in-process; results are bit-identical either way)",
    )
    route.add_argument(
        "--region-timeout", type=float, default=None, metavar="SECONDS",
        help="per-region deadline for pool workers; a worker past the "
        "deadline is killed and its region retried (then degraded to "
        "in-process serial routing)",
    )
    route.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write stage checkpoints to PATH (JSON), plus a "
        "round-granular checkpoint after each partition round",
    )
    route.add_argument(
        "--resume", action="store_true",
        help="resume from the --checkpoint file if present",
    )
    route.add_argument(
        "--eco", default=None, metavar="CHANGES.json",
        help="after the full route, apply the ECO changes from this "
        'file ({"changes": [...]}) and incrementally re-route only the '
        "dirty nets (bonnroute flow only)",
    )
    route.add_argument(
        "--inject-faults", action="append", default=None, metavar="SPEC",
        help="deterministic fault injection, e.g. "
        "'path_search:0.1', 'steiner_oracle:0.05:raise:inf' or "
        "'worker:0.2:kill' (site:fraction[:kind[:fires[:stall_s]]]); "
        "repeatable",
    )
    route.add_argument(
        "--no-preroute", action="store_true",
        help="skip the local-net preroute stage and send every net "
        "through main detailed routing (keeps partition rounds "
        "multi-region so --workers actually forks on small chips)",
    )
    route.add_argument(
        "--shard-region", type=int, default=None, metavar="I",
        help="treat CHIP as a shard manifest (or its directory, see "
        "'chipgen') and route only region I plus a halo; shards are "
        "loaded lazily through a bounded-residency store",
    )
    route.add_argument(
        "--obs", action="store_true",
        help="enable observability and print the end-of-run "
        "span/counter summary (docs/OBSERVABILITY.md)",
    )
    route.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="enable observability and stream the JSONL trace to PATH "
        "(validate: python -m repro.obs PATH)",
    )
    route.add_argument(
        "--flight-out", default=None, metavar="PATH",
        help="write the flight-recorder dump (most recent spans/events/"
        "notes) to PATH after the run — and on an unhandled crash",
    )
    route.add_argument(
        "--heatmap-out", default=None, metavar="PATH",
        help="export the global-routing congestion heatmap "
        "(edge usage/capacity/utilization JSON) to PATH",
    )
    route.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="enable observability and write a standalone HTML report "
        "(span waterfall, congestion heatmap, track utilization, "
        "histograms) to PATH",
    )
    route.set_defaults(func=_cmd_route)

    drc = sub.add_parser("drc", help="check a routed chip")
    drc.add_argument("chip")
    drc.add_argument("routes")
    drc.add_argument("--verbose", action="store_true")
    drc.set_defaults(func=_cmd_drc)

    render = sub.add_parser(
        "render",
        aliases=["viz"],
        help="ASCII-render one layer, optionally clipped to a window",
    )
    render.add_argument("chip")
    render.add_argument("--routes", default=None)
    render.add_argument("--layer", type=int, default=1)
    render.add_argument("--width", type=int, default=100)
    render.add_argument(
        "--window", default=None, metavar="X_LO,Y_LO,X_HI,Y_HI",
        help="clip the rendering to this die rectangle (dbu)",
    )
    render.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
