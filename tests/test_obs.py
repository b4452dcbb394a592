"""Tests for the observability layer (repro.obs).

Covers the span tracer (nesting, timing with an injected clock), the
metrics registry, disabled-mode behaviour, the JSONL sink round-trip
against the schema validator, the congestion heatmap export, and a full
CLI ``route --trace-out`` run whose emitted metric names must all be
catalogued in docs/OBSERVABILITY.md.
"""

import json
import re
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.chip.generator import ChipSpec, generate_chip
from repro.flow.bonnroute import BonnRouteFlow
from repro.io.textformat import write_chip_file
from repro.obs import (
    OBS,
    FlightRecorder,
    Histogram,
    JsonlTraceSink,
    Observer,
    congestion_heatmap,
    validate_trace_file,
    validate_trace_lines,
)
from repro.obs import schema as trace_schema
from repro.obs.core import _NULL_CONTEXT
from repro.obs.resource import ResourceSampler, peak_rss_bytes, rss_bytes

REPO_ROOT = Path(__file__).resolve().parents[1]

SPEC = ChipSpec("obstest", rows=2, row_width_cells=4, net_count=6, seed=3)


@pytest.fixture(autouse=True)
def _clean_singleton():
    """The process-wide OBS singleton must not leak state across tests."""
    OBS.reset()
    OBS.enabled = False
    yield
    OBS.reset()
    OBS.enabled = False


class FakeClock:
    """Deterministic monotonic clock for timing assertions."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def tick(self, dt: float) -> None:
        self.t += dt


class TestCore:
    def test_histogram_streams_stats(self):
        h = Histogram()
        for v in (4.0, 1.0, 7.0):
            h.add(v)
        d = h.as_dict()
        assert d["count"] == 3
        assert d["min"] == 1.0
        assert d["max"] == 7.0
        assert d["mean"] == pytest.approx(4.0)

    def test_spans_nest_and_time(self):
        clock = FakeClock()
        obs = Observer(enabled=True, clock=clock)
        with obs.trace("outer", chip="c") as outer:
            clock.tick(1.0)
            with obs.trace("inner") as inner:
                clock.tick(0.25)
            clock.tick(0.5)
        assert outer.depth == 0
        assert inner.depth == 1
        assert inner.duration == pytest.approx(0.25)
        assert outer.duration == pytest.approx(1.75)
        # Completion order: inner closes before outer.
        assert [s.name for s in obs.spans] == ["inner", "outer"]
        assert obs.span_totals["outer"] == [1, pytest.approx(1.75)]
        assert obs.summary()["spans"]["inner"]["count"] == 1

    def test_counters_gauges_histograms_aggregate(self):
        obs = Observer(enabled=True, clock=FakeClock())
        obs.count("a.hits")
        obs.count("a.hits", 4)
        obs.gauge("a.lambda", 2.0)
        obs.gauge("a.lambda", 0.5)  # latest value wins
        obs.observe("a.size", 10.0)
        obs.observe("a.size", 20.0)
        summary = obs.summary()
        assert summary["counters"]["a.hits"] == 5
        assert summary["gauges"]["a.lambda"] == 0.5
        assert summary["histograms"]["a.size"]["mean"] == pytest.approx(15.0)
        table = obs.summary_table()
        assert "a.hits" in table and "a.lambda" in table

    def test_disabled_mode_records_nothing(self):
        obs = Observer(enabled=False, clock=FakeClock())
        ctx = obs.trace("anything", net="n1")
        # Shared no-op context: no allocation per call site.
        assert ctx is _NULL_CONTEXT
        assert obs.trace("other") is ctx
        with ctx:
            pass
        assert obs.spans == []
        assert obs.span_totals == {}
        assert obs.summary_table() == "(no observability data recorded)"

    def test_reset_clears_everything(self):
        obs = Observer(enabled=True, clock=FakeClock())
        obs.count("x")
        with obs.trace("s"):
            pass
        obs.reset()
        assert obs.counters == {} and obs.spans == []


class TestJsonlSink:
    def test_round_trip_validates_and_preserves_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        clock = FakeClock()
        obs = Observer(enabled=True, clock=clock)
        obs.configure(enabled=True, sink=JsonlTraceSink(str(path), meta={"chip": "c1"}))
        with obs.trace("flow.run", chip="c1"):
            clock.tick(0.5)
            obs.event("sharing.phase", phase=1, lam=0.9)
            obs.count("pathsearch.searches", 3)
        obs.close()

        lines = path.read_text().splitlines()
        assert validate_trace_lines(lines) == []
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == "repro-trace"
        assert records[0]["chip"] == "c1"
        kinds = [r["type"] for r in records]
        assert kinds == ["meta", "event", "span", "summary"]
        span = records[2]
        assert span["name"] == "flow.run"
        assert span["dur"] == pytest.approx(0.5)
        assert span["attrs"] == {"chip": "c1"}
        assert records[-1]["counters"]["pathsearch.searches"] == 3

    def test_validator_rejects_malformed_traces(self):
        meta = json.dumps(
            {"type": "meta", "schema": "repro-trace", "version": 1}
        )
        summary = json.dumps(
            {"type": "summary", "counters": {}, "gauges": {},
             "histograms": {}, "spans": {}}
        )
        assert validate_trace_lines([]) != []
        assert validate_trace_lines([summary]) != []  # no meta header
        # Summary must be last and unique.
        assert validate_trace_lines([meta, summary, summary]) != []
        bad_name = json.dumps(
            {"type": "span", "name": "Bad Name!", "start": 0.0,
             "dur": 0.0, "depth": 0}
        )
        errors = validate_trace_lines([meta, bad_name, summary])
        assert any("invalid span name" in e for e in errors)
        negative = json.dumps(
            {"type": "span", "name": "ok.name", "start": 0.0,
             "dur": -1.0, "depth": 0}
        )
        errors = validate_trace_lines([meta, negative, summary])
        assert any("'dur'" in e for e in errors)
        assert validate_trace_lines([meta, "not json", summary]) != []


class TestFlowIntegration:
    def test_flow_metrics_obs_section(self):
        OBS.configure(enabled=True)
        result = BonnRouteFlow(generate_chip(SPEC), gr_phases=6, seed=1).run()
        obs = result.metrics.obs
        assert obs, "metrics.obs must be populated when observability is on"
        assert obs["counters"]["pathsearch.searches"] > 0
        assert "flow.run" in obs["spans"]
        assert obs["spans"]["flow.run"]["count"] == 1
        # as_dict carries the section through (the Table I hook).
        assert result.metrics.as_dict()["obs"] is obs

    def test_disabled_flow_has_no_obs_section(self):
        result = BonnRouteFlow(generate_chip(SPEC), gr_phases=6, seed=1).run()
        assert result.metrics.obs == {}
        assert "obs" not in result.metrics.as_dict()

    def test_congestion_heatmap_export(self):
        result = BonnRouteFlow(generate_chip(SPEC), gr_phases=6, seed=1).run()
        heatmap = congestion_heatmap(result.global_result)
        assert heatmap["type"] == "congestion_heatmap"
        assert heatmap["chip"] == "obstest"
        assert len(heatmap["tiles"]) == 2
        for edge in heatmap["edges"]:
            assert edge["usage"] >= 1
            assert len(edge["a"]) == 3 and len(edge["b"]) == 3
        if heatmap["edges"]:
            assert heatmap["max_utilization"] == pytest.approx(
                max(e["utilization"] for e in heatmap["edges"])
            )


class TestCliTrace:
    def test_route_trace_out_produces_valid_documented_trace(self, tmp_path):
        chip_path = str(tmp_path / "chip.txt")
        routes_path = str(tmp_path / "routes.txt")
        trace_path = str(tmp_path / "trace.jsonl")
        heatmap_path = str(tmp_path / "heatmap.json")
        write_chip_file(generate_chip(SPEC), chip_path)
        code = main([
            "route", chip_path, routes_path, "--gr-phases", "6",
            "--seed", "1", "--trace-out", trace_path,
            "--heatmap-out", heatmap_path,
        ])
        assert code in (0, 1)

        assert validate_trace_file(trace_path) == []
        records = [
            json.loads(line)
            for line in Path(trace_path).read_text().splitlines()
        ]
        summary = records[-1]
        assert summary["type"] == "summary"
        counters = summary["counters"]
        spans = summary["spans"]
        # Acceptance bar: the summary reports per-stage spans and at
        # least 8 distinct counters, every one catalogued in the docs.
        for stage in ("flow.global", "flow.detailed", "flow.run"):
            assert stage in spans, f"missing stage span {stage}"
        assert len(counters) >= 8
        documented = set(
            re.findall(
                r"`([a-z0-9_.]+)`",
                (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(),
            )
        )
        emitted = (
            set(counters)
            | set(summary["gauges"])
            | set(summary["histograms"])
            | set(spans)
            | {r["name"] for r in records if r["type"] == "event"}
        )
        undocumented = sorted(emitted - documented)
        assert undocumented == [], (
            f"names missing from docs/OBSERVABILITY.md: {undocumented}"
        )
        # The search kernel reports its queue traffic: every run carries
        # a pathsearch.kernel.* counter, and the whole family must exist
        # in the docs so a renamed or undocumented kernel counter fails
        # here.
        assert "pathsearch.kernel.stale_pops" in counters
        for name in (
            "pathsearch.kernel.stale_pops",
            "pathsearch.kernel.pi_gr_searches",
        ):
            assert name in documented, f"{name} missing from the docs"
        # Memory-bounded spaces: lazy fixed rows are on by default, so a
        # traced run must emit the laziness counters — and the whole
        # memory family (including the shard store, which this small
        # non-sharded run does not exercise) must be catalogued.
        assert "space.lazy_rows" in counters
        assert "shapegrid.fixed_shapes" in counters
        assert "space.fixed_shapes_registered" in summary["gauges"]
        for name in (
            "space.lazy_rows",
            "space.fixed_shapes_registered",
            "shapegrid.fixed_shapes",
            "pinaccess.evictions",
            "shards.loads",
            "shards.evictions",
            "shards.resident",
        ):
            assert name in documented, f"{name} missing from the docs"

        heatmap = json.loads(Path(heatmap_path).read_text())
        assert heatmap["type"] == "congestion_heatmap"
        assert heatmap["edges"]


class TestFlightRecorder:
    def test_ring_is_bounded_oldest_first(self):
        ring = FlightRecorder(capacity=4)
        for i in range(10):
            ring.add({"type": "note", "name": "n.note", "t": float(i)})
        dump = ring.dump()
        assert len(ring) == 4
        assert [r["t"] for r in dump] == [6.0, 7.0, 8.0, 9.0]

    def test_flight_note_records_with_observability_off(self):
        assert not OBS.enabled
        OBS.flight_note("resilience.net_failure", net="n3", reason="timeout")
        dump = OBS.flight.dump()
        assert len(dump) == 1
        assert dump[0]["name"] == "resilience.net_failure"
        assert dump[0]["attrs"] == {"net": "n3", "reason": "timeout"}
        # The always-on channel must not wake the rest of the registry.
        assert OBS.spans == []
        assert dict(OBS.counters) == {}

    def test_spans_and_events_enter_ring_when_enabled(self):
        OBS.configure(enabled=True)
        with OBS.trace("flow.global"):
            OBS.event("sharing.phase", phase=1)
        kinds = [r["type"] for r in OBS.flight.dump()]
        assert kinds == ["event", "span"]

    def test_reset_clears_the_ring(self):
        OBS.flight_note("flow.stage", stage="global")
        assert len(OBS.flight) == 1
        OBS.reset()
        assert len(OBS.flight) == 0


class TestTraceContextV2:
    def test_span_ids_and_parent_links_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        clock = FakeClock()
        obs = Observer(enabled=True, clock=clock)
        obs.configure(enabled=True, sink=JsonlTraceSink(str(path)))
        assert obs.trace_id
        with obs.trace("flow.run"):
            outer = obs.current_span_id()
            assert outer == "m-1"
            with obs.trace("flow.global"):
                clock.tick(0.1)
        obs.close()

        lines = path.read_text().splitlines()
        assert validate_trace_lines(lines) == []
        records = [json.loads(line) for line in lines]
        assert records[0]["version"] == 2
        assert records[0]["trace_id"] == obs.trace_id
        spans = {r["name"]: r for r in records if r["type"] == "span"}
        assert spans["flow.run"]["id"] == "m-1"
        assert "parent" not in spans["flow.run"]
        assert spans["flow.global"]["parent"] == "m-1"
        # Main-process spans carry no process/worker fields.
        assert "process" not in spans["flow.run"]
        assert "worker" not in spans["flow.run"]

    def test_worker_context_prefixes_ids_and_grafts_root(self):
        obs = Observer(enabled=True)
        obs.configure(enabled=True)
        obs.set_context(
            trace_id="abc123", process="worker", worker_id=3,
            root_parent_id="m-7",
        )
        with obs.trace("droute.net", net="n1"):
            span_id = obs.current_span_id()
        assert span_id == "w3-1"
        record = obs.spans[-1].as_record()
        assert record["process"] == "worker"
        assert record["worker"] == 3
        assert record["parent"] == "m-7"


class TestValidatorV2:
    def _lines(self, *bodies, version=2):
        meta = {"type": "meta", "schema": "repro-trace", "version": version}
        summary = {"type": "summary", "counters": {}, "gauges": {},
                   "histograms": {}, "spans": {}}
        return [json.dumps(r) for r in (meta, *bodies, summary)]

    def test_v1_validates_with_legacy_note(self):
        notes = []
        lines = self._lines(
            {"type": "span", "name": "flow.run", "start": 0.0,
             "dur": 1.0, "depth": 0},
            version=1,
        )
        assert validate_trace_lines(lines, notes=notes) == []
        assert any("legacy" in note for note in notes)

    def test_v2_rejects_duplicate_span_ids(self):
        span = {"type": "span", "name": "flow.run", "start": 0.0,
                "dur": 1.0, "depth": 0, "id": "m-1"}
        errors = validate_trace_lines(self._lines(span, dict(span)))
        assert any("duplicate span id" in e for e in errors)

    def test_v2_rejects_unknown_parent(self):
        span = {"type": "span", "name": "flow.run", "start": 0.0,
                "dur": 1.0, "depth": 0, "id": "m-1", "parent": "m-99"}
        errors = validate_trace_lines(self._lines(span))
        assert any("does not reference" in e for e in errors)

    def test_cli_accepts_multiple_files_and_directories(self, tmp_path, capsys):
        good = tmp_path / "a.jsonl"
        good.write_text("\n".join(self._lines()) + "\n")
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        legacy = shard_dir / "b.jsonl"
        legacy.write_text("\n".join(self._lines(version=1)) + "\n")
        assert trace_schema.main([str(good), str(shard_dir)]) == 0
        out = capsys.readouterr().out
        assert f"{good}: valid repro-trace" in out
        assert f"{legacy}: valid repro-trace (legacy trace)" in out

    def test_cli_fails_on_any_invalid_shard(self, tmp_path):
        good = tmp_path / "a.jsonl"
        good.write_text("\n".join(self._lines()) + "\n")
        bad = tmp_path / "b.jsonl"
        bad.write_text("not json\n")
        assert trace_schema.main([str(good), str(bad)]) == 1


class TestResourceTelemetry:
    def test_sampler_publishes_gauges_when_enabled(self):
        OBS.configure(enabled=True)
        sampler = ResourceSampler()
        assert sampler.sample() > 0
        assert OBS.gauges["resource.rss_bytes"] > 0
        assert (
            OBS.gauges["resource.rss_peak_bytes"]
            >= OBS.gauges["resource.rss_bytes"]
        )
        assert OBS.gauges["resource.gc_collections"] >= 0

    def test_sampler_is_silent_when_disabled(self):
        assert not OBS.enabled
        sampler = ResourceSampler()
        assert sampler.sample() > 0
        assert dict(OBS.gauges) == {}

    def test_raw_readings_are_sane(self):
        assert rss_bytes() > 0
        assert peak_rss_bytes() >= rss_bytes() // 2


class TestFlowFlightDump:
    def test_net_failure_dumps_ring_with_obs_off(self):
        from repro.flow.faults import FaultPlan, FaultSpec

        assert not OBS.enabled
        chip = generate_chip(SPEC)
        victim = chip.nets[0].name
        # Fault both attempt sites: the isr_fallback rung survives pure
        # path_search faults, and a recovered net leaves no failure.
        plan = FaultPlan(
            [
                FaultSpec("path_search", nets=[victim], fires_per_net=None),
                FaultSpec("pin_access", nets=[victim], fires_per_net=None),
            ],
            seed=1,
        )
        result = BonnRouteFlow(
            chip, gr_phases=4, seed=1, cleanup=False, fault_plan=plan
        ).run()
        report = result.failure_report
        assert victim in report.net_failures
        assert report.flight_recorder
        names = [r.get("name") for r in report.flight_recorder]
        assert "resilience.net_failure" in names
        assert "flow.stage" in names
        assert report.as_dict()["flight_recorder"] == report.flight_recorder
