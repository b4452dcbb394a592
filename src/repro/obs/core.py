"""Span tracer and metrics registry (the observability core).

Design constraints, in order:

1. **Zero cost when disabled.**  Every instrumentation site in the hot
   paths guards itself with a single attribute check
   (``if OBS.enabled:``); :meth:`Observer.trace` returns a shared no-op
   context manager, so even unguarded stage-level spans cost one boolean
   check and one call.
2. **No dependencies.**  Pure stdlib: monotonic timing via
   :func:`time.perf_counter`, JSON for the sink format.
3. **Deterministic aggregation.**  Counters, gauges and histograms are
   plain dicts keyed by dotted metric names (``pathsearch.labels_pushed``);
   the summary is reproducible modulo wall-clock durations.

The process-wide singleton lives in :mod:`repro.obs` as ``OBS``; it is
never replaced, only reconfigured, so ``from repro.obs import OBS``
bindings stay valid.  The metric name catalogue — every counter, gauge,
span and event the routing flow emits — is documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import time
import uuid
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (one per traced run)."""
    return uuid.uuid4().hex[:16]


class Histogram:
    """Streaming summary of an observed distribution.

    Aggregates (count/total/min/max) are exact for every sample; the
    first :attr:`MAX_SAMPLES` raw values are additionally retained so
    report renderers (``repro.obs.report``) can bucket a real
    distribution without the registry ever growing unboundedly.  The
    retained prefix is deterministic — same run, same samples.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "samples")

    #: Raw values retained per histogram (aggregation stays exact beyond).
    MAX_SAMPLES = 4096

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.samples: List[float] = []

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if len(self.samples) < self.MAX_SAMPLES:
            self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.minimum is not None else 0.0,
            "max": self.maximum if self.maximum is not None else 0.0,
            "mean": self.mean,
        }

    def state(self) -> Dict[str, object]:
        """Picklable full state (aggregates + retained samples), the
        shape :meth:`merge_state` accepts; workers ship these back to
        the parent process."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "samples": list(self.samples),
        }

    def merge_state(self, state: Dict[str, object]) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Aggregates stay exact; retained samples are appended until
        :attr:`MAX_SAMPLES`, so merging worker histograms in region
        order reproduces the serial run's retained prefix.
        """
        count = int(state.get("count", 0) or 0)
        if count <= 0:
            return
        self.count += count
        self.total += float(state.get("total", 0.0) or 0.0)
        lo = state.get("min")
        hi = state.get("max")
        if lo is not None and (self.minimum is None or lo < self.minimum):
            self.minimum = lo
        if hi is not None and (self.maximum is None or hi > self.maximum):
            self.maximum = hi
        room = self.MAX_SAMPLES - len(self.samples)
        if room > 0:
            self.samples.extend(list(state.get("samples") or ())[:room])


class Span:
    """One finished span: a named, timed, nested region of the flow.

    Every span carries a process-unique ``span_id`` and the id of its
    parent span (``None`` for roots), so traces merged across worker
    processes still form one tree.  ``process``/``worker``/``region``
    locate the span in the pool topology (repro-trace v2 fields).
    """

    __slots__ = (
        "name", "attrs", "start", "duration", "depth",
        "span_id", "parent_id", "process", "worker", "region",
    )

    def __init__(
        self,
        name: str,
        attrs: Dict[str, object],
        start: float,
        depth: int,
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        process: str = "main",
        worker: Optional[int] = None,
        region: Optional[int] = None,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.start = start
        self.duration = 0.0
        self.depth = depth
        self.span_id = span_id
        self.parent_id = parent_id
        self.process = process
        self.worker = worker
        self.region = region

    def as_record(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "type": "span",
            "name": self.name,
            "start": self.start,
            "dur": self.duration,
            "depth": self.depth,
        }
        if self.span_id is not None:
            record["id"] = self.span_id
        if self.parent_id is not None:
            record["parent"] = self.parent_id
        if self.process != "main":
            record["process"] = self.process
        if self.worker is not None:
            record["worker"] = self.worker
        if self.region is not None:
            record["region"] = self.region
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    def __repr__(self) -> str:
        return f"Span({self.name}, dur={self.duration:.6f}, depth={self.depth})"


class _NullContext:
    """Shared no-op context manager returned while observability is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class _SpanContext:
    """Context manager that opens a span on enter and closes it on exit."""

    __slots__ = ("_observer", "_span")

    def __init__(self, observer: "Observer", span: Span) -> None:
        self._observer = observer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info: object) -> bool:
        self._observer._finish_span(self._span)
        return False


class FlightRecorder:
    """Always-on bounded ring of recent spans/events/notes.

    The ring is a ``deque(maxlen=...)`` so recording is one append and
    old records fall off the far end — cheap enough to stay on even
    with observability disabled.  Its content is dumped into failure
    reports (``FlowFailureReport.flight_recorder``, ``pool_events``)
    when something goes wrong, giving post-mortem context without
    rerunning under tracing.
    """

    __slots__ = ("records",)

    #: Records retained; sized so a dump stays a readable post-mortem.
    CAPACITY = 256

    def __init__(self, capacity: int = CAPACITY) -> None:
        self.records: deque = deque(maxlen=capacity)

    def add(self, record: Dict[str, object]) -> None:
        self.records.append(record)

    def dump(self) -> List[Dict[str, object]]:
        """Snapshot of the ring, oldest first (records are shared, not
        copied — callers serialize them immediately)."""
        return list(self.records)

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)


class Observer:
    """Span tracer + metrics registry + sink dispatcher.

    ``enabled`` is a plain attribute so hot sites pay one attribute load
    to skip all work.  A ``clock`` can be injected for deterministic
    timing tests; it must be monotonic.

    Trace context: ``trace_id`` names the whole traced run; every span
    gets a process-unique id (``m-<n>`` in the main process,
    ``w<id>-<n>`` in pool workers) and its parent's id.  Workers inherit
    the context via :meth:`set_context` (``root_parent_id`` grafts their
    root spans under the parent's ``pool.round`` span), so traces merged
    across processes form a single tree.
    """

    def __init__(
        self,
        enabled: bool = False,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.enabled = enabled
        self._clock = clock if clock is not None else time.perf_counter
        self._epoch = self._clock()
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: Finished spans in completion order (bounded by ``max_spans``).
        self.spans: List[Span] = []
        #: Per-name span aggregates: name -> [count, total seconds].
        self.span_totals: Dict[str, List[float]] = {}
        self._stack: List[Span] = []
        self._sink = None
        #: Cap on retained Span objects; aggregates and the sink always
        #: see every span, the in-memory list is for tests and the CLI.
        self.max_spans = 100_000
        #: Trace id of the current run (set by :meth:`configure` when
        #: enabling, or inherited from the parent via :meth:`set_context`).
        self.trace_id: Optional[str] = None
        #: ``"main"`` or ``"worker"`` — which process kind this is.
        self.process: str = "main"
        #: Pool worker id when this observer lives in a forked worker.
        self.worker_id: Optional[int] = None
        #: Region currently being routed (workers set this per task; the
        #: value is stamped onto every span opened while it is set).
        self.region: Optional[int] = None
        #: Parent span id grafted under root spans of this process (the
        #: parent's open ``pool.round`` span, for workers).
        self.root_parent_id: Optional[str] = None
        self._span_seq = 0
        #: Always-on ring of recent records (see :class:`FlightRecorder`).
        self.flight = FlightRecorder()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure(self, enabled: bool = True, sink=None) -> "Observer":
        """Enable/disable and (re)attach a sink; returns self."""
        self.enabled = enabled
        if enabled and self.trace_id is None:
            self.trace_id = new_trace_id()
        if sink is not None:
            self._sink = sink
            sink.open(self)
        return self

    def set_context(
        self,
        trace_id: Optional[str] = None,
        process: Optional[str] = None,
        worker_id: Optional[int] = None,
        root_parent_id: Optional[str] = None,
    ) -> None:
        """Adopt (parts of) a trace context, e.g. one shipped to a
        forked pool worker; ``None`` arguments leave the field alone."""
        if trace_id is not None:
            self.trace_id = trace_id
        if process is not None:
            self.process = process
        if worker_id is not None:
            self.worker_id = worker_id
        if root_parent_id is not None:
            self.root_parent_id = root_parent_id

    def current_span_id(self) -> Optional[str]:
        """Id of the innermost open span (the parent a new span would
        get), falling back to the grafted root parent."""
        if self._stack:
            return self._stack[-1].span_id
        return self.root_parent_id

    def reset(self, keep_epoch: bool = False) -> None:
        """Drop all recorded data, trace context and the flight ring,
        and detach the sink (left unclosed).  ``keep_epoch=True``
        preserves the clock epoch — forked workers keep the parent's so
        their span timestamps share the parent's timeline."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.spans.clear()
        self.span_totals.clear()
        self._stack.clear()
        self._sink = None
        if not keep_epoch:
            self._epoch = self._clock()
        self.trace_id = None
        self.process = "main"
        self.worker_id = None
        self.region = None
        self.root_parent_id = None
        self._span_seq = 0
        self.flight.clear()

    def close(self) -> None:
        """Flush and close the sink (writes the summary record)."""
        if self._sink is not None:
            self._sink.close(self)
            self._sink = None

    def now(self) -> float:
        """Seconds since this observer's epoch (monotonic)."""
        return self._clock() - self._epoch

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def trace(self, name: str, **attrs: object):
        """Context manager timing a named region; no-op when disabled.

        Usage: ``with OBS.trace("droute.net", net=net.name): ...``
        """
        if not self.enabled:
            return _NULL_CONTEXT
        self._span_seq += 1
        prefix = "m" if self.worker_id is None else f"w{self.worker_id}"
        span = Span(
            name,
            attrs,
            self.now(),
            len(self._stack),
            span_id=f"{prefix}-{self._span_seq}",
            parent_id=(
                self._stack[-1].span_id if self._stack else self.root_parent_id
            ),
            process=self.process,
            worker=self.worker_id,
            region=self.region,
        )
        self._stack.append(span)
        return _SpanContext(self, span)

    def _finish_span(self, span: Span) -> None:
        span.duration = self.now() - span.start
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # tolerate out-of-order exits
            self._stack.remove(span)
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        totals = self.span_totals.setdefault(span.name, [0, 0.0])
        totals[0] += 1
        totals[1] += span.duration
        record = span.as_record()
        self.flight.add(record)
        if self._sink is not None:
            self._sink.write(record)

    def adopt_records(self, records: Sequence[Dict[str, object]]) -> None:
        """Fold span/event records shipped back from a worker process.

        Spans are reconstructed into the retained list and the per-name
        aggregates (their worker-side ids, parents and lane fields come
        along verbatim); every record is forwarded to the sink, so a
        JSONL trace of a parallel run contains the workers' spans too.
        """
        for record in records:
            if record.get("type") == "span":
                span = Span(
                    str(record.get("name", "?")),
                    dict(record.get("attrs") or {}),
                    float(record.get("start", 0.0)),
                    int(record.get("depth", 0)),
                    span_id=record.get("id"),
                    parent_id=record.get("parent"),
                    process=str(record.get("process", "worker")),
                    worker=record.get("worker"),
                    region=record.get("region"),
                )
                span.duration = float(record.get("dur", 0.0))
                if len(self.spans) < self.max_spans:
                    self.spans.append(span)
                totals = self.span_totals.setdefault(span.name, [0, 0.0])
                totals[0] += 1
                totals[1] += span.duration
            if self._sink is not None:
                self._sink.write(record)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def count(self, name: str, delta: float = 1) -> None:
        """Increment a monotonically growing counter."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of a point-in-time measurement."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Feed one sample into a streaming histogram."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = Histogram()
            self.histograms[name] = histogram
        histogram.add(value)

    def event(self, name: str, **attrs: object) -> None:
        """Emit a point-in-time event (flight ring + trace sink)."""
        record: Dict[str, object] = {
            "type": "event",
            "name": name,
            "t": self.now(),
        }
        if self.worker_id is not None:
            record["worker"] = self.worker_id
        if attrs:
            record["attrs"] = attrs
        self.flight.add(record)
        if self._sink is not None:
            self._sink.write(record)

    def flight_note(self, name: str, **attrs: object) -> None:
        """Drop a breadcrumb into the flight ring, observability on or
        off.  This is the always-on channel: one dict build and one
        deque append, called at incident-shaped sites only (failures,
        stage transitions, pool incidents) — never in hot loops."""
        record: Dict[str, object] = {
            "type": "note",
            "name": name,
            "t": self.now(),
        }
        if self.worker_id is not None:
            record["worker"] = self.worker_id
        if attrs:
            record["attrs"] = attrs
        self.flight.add(record)

    def merge_worker_metrics(
        self,
        counters: Optional[Dict[str, float]] = None,
        gauges: Optional[Dict[str, float]] = None,
        histograms: Optional[Dict[str, Dict[str, object]]] = None,
    ) -> None:
        """Fold a worker's per-region metric deltas into this registry.

        Counters add; histograms merge via :meth:`Histogram.merge_state`
        (region-index merge order keeps the retained sample prefix equal
        to a serial run's); gauges are last-write-wins like local gauge
        updates — except the ``resource.*`` family, whose values are
        per-process peaks and therefore merge by maximum.
        """
        if counters:
            for name, delta in counters.items():
                self.count(name, delta)
        if gauges:
            for name, value in gauges.items():
                if name.startswith("resource."):
                    previous = self.gauges.get(name)
                    if previous is None or value > previous:
                        self.gauges[name] = value
                else:
                    self.gauges[name] = value
        if histograms:
            for name, state in histograms.items():
                histogram = self.histograms.get(name)
                if histogram is None:
                    histogram = Histogram()
                    self.histograms[name] = histogram
                histogram.merge_state(state)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """All aggregates as one JSON-serializable dict."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self.histograms.items())
            },
            "spans": {
                name: {"count": int(totals[0]), "total_s": totals[1]}
                for name, totals in sorted(self.span_totals.items())
            },
        }

    def summary_table(self) -> str:
        """Human-readable end-of-run summary (the CLI sink)."""
        lines: List[str] = []
        if self.span_totals:
            lines.append("spans (count, total seconds):")
            width = max(len(name) for name in self.span_totals)
            for name, totals in sorted(self.span_totals.items()):
                lines.append(
                    f"  {name:<{width}}  x{int(totals[0]):<6} {totals[1]:.3f}s"
                )
        if self.counters:
            lines.append("counters:")
            width = max(len(name) for name in self.counters)
            for name, value in sorted(self.counters.items()):
                shown = int(value) if float(value).is_integer() else value
                lines.append(f"  {name:<{width}}  {shown}")
        if self.gauges:
            lines.append("gauges:")
            width = max(len(name) for name in self.gauges)
            for name, value in sorted(self.gauges.items()):
                lines.append(f"  {name:<{width}}  {value:.6g}")
        if self.histograms:
            lines.append("histograms (count / mean / max):")
            width = max(len(name) for name in self.histograms)
            for name, histogram in sorted(self.histograms.items()):
                lines.append(
                    f"  {name:<{width}}  {histogram.count} / "
                    f"{histogram.mean:.6g} / "
                    f"{histogram.maximum if histogram.maximum is not None else 0:.6g}"
                )
        return "\n".join(lines) if lines else "(no observability data recorded)"
