"""Outside-in span recorder for the traced benchmark run.

The recorder times calls into each routing layer's public entry points
by wrapping them from here, so the program under test is not edited.
Class methods are patched on the class; module functions are patched at
the name the caller resolves (``repro.droute.connect.interval_path_search``
is the binding ``NetConnector`` calls, not the one in ``pathsearch``).

Spans live in memory.  Each records its name, the benchmark phase
(``setup`` or ``measured``), start, duration and self time; self time is
the duration minus the time covered by child spans, kept with a stack.
:meth:`SpanRecorder.aggregate` folds them into per-layer totals once, at
the end of the run.

Forked pool workers inherit the wrappers, but their spans stay in the
child process: only the parent side of ``droute.pool.run_round`` is
visible here (its self time includes the wait for the workers).
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer metric name, module, class or None, attribute).  A ``None``
#: class patches a module-level function at that module's binding.
ENTRY_POINTS: List[Tuple[str, str, Optional[str], str]] = [
    ("chip.generate_chip", "repro.chip.generator", None, "generate_chip"),
    ("engine.session_init", "repro.engine.session", "RoutingSession", "__init__"),
    ("engine.apply_changes", "repro.engine.session", "RoutingSession", "apply_changes"),
    ("engine.reroute", "repro.engine.session", "RoutingSession", "reroute"),
    ("groute.router.init", "repro.groute.router", "GlobalRouter", "__init__"),
    ("groute.router.run", "repro.groute.router", "GlobalRouter", "run"),
    ("groute.router.run_incremental", "repro.groute.router", "GlobalRouter", "run_incremental"),
    ("groute.sharing.solve", "repro.groute.sharing", "ResourceSharingSolver", "solve"),
    ("groute.rounding.round", "repro.groute.rounding", "RoundingPostprocessor", "round"),
    ("groute.rounding.repair", "repro.groute.rounding", "RoundingPostprocessor", "repair"),
    ("droute.router.preprocess_pin_access", "repro.droute.router", "DetailedRouter", "preprocess_pin_access"),
    ("droute.pinaccess.build_catalogue", "repro.droute.pinaccess", "PinAccessPlanner", "build_catalogue"),
    ("grid.blockgrid.init", "repro.grid.blockgrid", "BlockageGrid", "__init__"),
    ("grid.blockgrid.shortest_path", "repro.grid.blockgrid", "BlockageGrid", "shortest_path"),
    ("droute.connect.connect_net", "repro.droute.connect", "NetConnector", "connect_net"),
    ("droute.future_cost.gr_build", "repro.droute.future_cost", "FutureCostGR", "__init__"),
    ("droute.pathsearch.interval_search", "repro.droute.connect", None, "interval_path_search"),
    ("droute.pool.run_round", "repro.droute.pool", "PoolSupervisor", "run_round"),
    ("baseline.cleanup.run", "repro.baseline.cleanup", "DrcCleanup", "run"),
    ("drc.check", "repro.drc.checker", "DrcChecker", "run"),
]

#: Methods whose boolean outcome is counted (no span): the cleanup's
#: per-violation repairs, for the fixed ÷ attempted ratio.
OUTCOME_COUNTERS: List[Tuple[str, str, str, str]] = [
    ("cleanup.fix", "repro.baseline.cleanup", "DrcCleanup", "_fix_min_segment"),
    ("cleanup.fix", "repro.baseline.cleanup", "DrcCleanup", "_fix_min_area"),
    ("cleanup.fix", "repro.baseline.cleanup", "DrcCleanup", "_fix_spacing"),
]

#: Entry points whose return value carries a ``success`` flag.
SUCCESS_ATTR = {"droute.connect.connect_net"}


class SpanRecorder:
    """Wraps the entry points and records spans while installed."""

    def __init__(self) -> None:
        #: Finished spans: (name, phase, start, duration, self_time).
        self.spans: List[Tuple[str, str, float, float, float]] = []
        #: (name, phase) -> [attempts, successes].
        self.outcomes: Dict[Tuple[str, str], List[int]] = {}
        self.phase = "setup"
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        for name, module_name, class_name, attr in ENTRY_POINTS:
            self._patch(module_name, class_name, attr, self._span_wrapper(name))
        for name, module_name, class_name, attr in OUTCOME_COUNTERS:
            self._patch(module_name, class_name, attr, self._outcome_wrapper(name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._stack.clear()

    def _patch(self, module_name, class_name, attr, make_wrapper) -> None:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _span_wrapper(self, name: str) -> Callable[[Callable], Callable]:
        recorder = self
        counts_success = name in SUCCESS_ATTR

        def make(original):
            def wrapper(*args, **kwargs):
                frame = [time.perf_counter(), 0.0]
                recorder._stack.append(frame)
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    recorder._stack.pop()
                    duration = end - frame[0]
                    if recorder._stack:
                        recorder._stack[-1][1] += duration
                    recorder.spans.append(
                        (name, recorder.phase, frame[0], duration, duration - frame[1])
                    )
                if counts_success:
                    recorder._count(name, bool(getattr(result, "success", False)))
                return result

            return wrapper

        return make

    def _outcome_wrapper(self, name: str) -> Callable[[Callable], Callable]:
        recorder = self

        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                recorder._count(name, bool(result))
                return result

            return wrapper

        return make

    def _count(self, name: str, success: bool) -> None:
        tally = self.outcomes.setdefault((name, self.phase), [0, 0])
        tally[0] += 1
        tally[1] += int(success)

    # -- results --------------------------------------------------------
    def aggregate(self, phase: str) -> Dict[str, Tuple[int, float]]:
        """name -> (calls, summed self time) over one phase's spans."""
        totals = {name: [0, 0.0] for name, _m, _c, _a in ENTRY_POINTS}
        for name, span_phase, _start, _duration, self_time in self.spans:
            if span_phase == phase:
                totals[name][0] += 1
                totals[name][1] += self_time
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def outcome(self, name: str, phase: str) -> Tuple[int, int]:
        attempts, successes = self.outcomes.get((name, phase), (0, 0))
        return attempts, successes
