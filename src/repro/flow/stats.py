"""Flow metrics: the columns of Table I.

A net is *scenic* (Sec. 5.3) if its routed wiring length is at least
a threshold (100 um in the paper; scaled to our instance sizes) and its
detour over the (near-)minimum Steiner length is at least 25 % or 50 %.
The Steiner baseline is exact for <= 9 terminals and heuristic above,
identical for all compared flows.
"""

from __future__ import annotations

import resource
from typing import Dict, List, Optional, Sequence, Tuple

from repro.drc.checker import DrcChecker, DrcReport
from repro.droute.space import RoutingSpace
from repro.obs import OBS
from repro.steiner.rsmt import steiner_length

#: Minimum routed length for a net to count as scenic, in dbu.  The paper
#: uses 100 um on mm-sized chips; our chips are ~100x smaller.
SCENIC_LENGTH_THRESHOLD = 2000


def net_route_length(space: RoutingSpace, net_name: str) -> int:
    route = space.routes.get(net_name)
    return route.wire_length if route is not None else 0


def net_detours(space: RoutingSpace) -> List[Tuple[str, int, int]]:
    """Per routed net: ``(name, routed_length, steiner_baseline)``.

    One Steiner evaluation per net, shared by both scenic thresholds and
    the observability histograms.  Nets without wiring or with a
    degenerate (<= 0) baseline are skipped.
    """
    out: List[Tuple[str, int, int]] = []
    for net in space.chip.nets:
        routed = net_route_length(space, net.name)
        if routed <= 0:
            continue
        baseline = steiner_length(net.terminal_points())
        if baseline <= 0:
            continue
        out.append((net.name, routed, baseline))
    return out


def _scenic_from_detours(
    detours: Sequence[Tuple[str, int, int]],
    threshold: float,
    length_threshold: int = SCENIC_LENGTH_THRESHOLD,
) -> List[str]:
    return [
        name
        for name, routed, baseline in detours
        if routed >= length_threshold and routed >= (1.0 + threshold) * baseline
    ]


def scenic_nets(
    space: RoutingSpace,
    threshold: float,
    length_threshold: int = SCENIC_LENGTH_THRESHOLD,
) -> List[str]:
    """Nets with routed length >= length_threshold and detour >= threshold."""
    return _scenic_from_detours(net_detours(space), threshold, length_threshold)


class FlowMetrics:
    """One row of Table I."""

    def __init__(self) -> None:
        self.chip_name = ""
        self.nets = 0
        self.runtime_total = 0.0
        self.runtime_bonnroute = 0.0  # the "BR" sub-column
        self.memory_mb = 0.0
        self.netlength = 0
        self.vias = 0
        self.scenic_25 = 0
        self.scenic_50 = 0
        self.errors = 0
        self.drc_report: Optional[DrcReport] = None
        # Resilience columns (PR 1): structured failure/degradation data
        # from the fault-tolerant runtime.
        self.failed_nets: List[str] = []
        self.failure_reasons: Dict[str, int] = {}
        self.retries = 0
        self.escalations = 0
        self.recovered_nets: Dict[str, str] = {}
        self.degraded_stages: Dict[str, str] = {}
        self.resumed_from: Optional[str] = None
        # Observability section (ISSUE 2): the end-of-run aggregate of
        # the ``repro.obs`` registry (counters / gauges / histograms /
        # span totals) when observability was enabled for the run, so
        # Table I benchmarks can record internal counters alongside the
        # paper columns.  Empty when disabled.
        self.obs: Dict[str, object] = {}
        # ECO section (ISSUE 5): the :meth:`EcoReport.as_dict` payload of
        # an incremental reroute run after the full route (``route
        # --eco``).  Empty when the run was batch-only.
        self.eco: Dict[str, object] = {}

    def as_dict(self) -> Dict[str, object]:
        """All Table I columns (plus resilience and obs sections) as one dict.

        Values are heterogeneous — numbers for the paper columns,
        strings/lists/dicts for chip name, failure and observability
        data — hence ``Dict[str, object]``, not ``Dict[str, float]``.
        """
        out: Dict[str, object] = {
            "chip": self.chip_name,
            "nets": self.nets,
            "time_total_s": round(self.runtime_total, 2),
            "time_br_s": round(self.runtime_bonnroute, 2),
            "memory_mb": round(self.memory_mb, 1),
            "netlength": self.netlength,
            "vias": self.vias,
            "scenic_25": self.scenic_25,
            "scenic_50": self.scenic_50,
            "errors": self.errors,
            "failed_nets": list(self.failed_nets),
            "failure_reasons": dict(self.failure_reasons),
            "retries": self.retries,
            "escalations": self.escalations,
            "recovered_nets": dict(self.recovered_nets),
            "degraded_stages": dict(self.degraded_stages),
            "resumed_from": self.resumed_from,
        }
        if self.obs:
            out["obs"] = self.obs
        if self.eco:
            out["eco"] = self.eco
        return out


def peak_memory_mb() -> float:
    """Peak RSS of the process in MiB (the Table I memory column)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0


def collect_metrics(
    space: RoutingSpace,
    runtime_total: float,
    runtime_bonnroute: float = 0.0,
    drc_report: Optional[DrcReport] = None,
    failure_report=None,
) -> FlowMetrics:
    metrics = FlowMetrics()
    metrics.chip_name = space.chip.name
    metrics.nets = len(space.chip.nets)
    metrics.runtime_total = runtime_total
    metrics.runtime_bonnroute = runtime_bonnroute
    metrics.memory_mb = peak_memory_mb()
    metrics.netlength = space.total_wire_length()
    metrics.vias = space.total_via_count()
    detours = net_detours(space)
    metrics.scenic_25 = len(_scenic_from_detours(detours, 0.25))
    metrics.scenic_50 = len(_scenic_from_detours(detours, 0.50))
    if OBS.enabled:
        # Per-net distributions for the HTML report (``--report-out``):
        # routed length in dbu and detour ratio over the Steiner baseline.
        for _name, routed, baseline in detours:
            OBS.observe("flow.net_length_dbu", routed)
            OBS.observe("flow.net_detour_ratio", routed / baseline)
    if drc_report is None:
        drc_report = DrcChecker(space).run()
    metrics.drc_report = drc_report
    metrics.errors = drc_report.error_count
    if failure_report is not None:
        metrics.failed_nets = sorted(failure_report.net_failures)
        metrics.failure_reasons = failure_report.reasons_histogram()
        metrics.retries = failure_report.retries
        metrics.escalations = failure_report.escalations
        metrics.recovered_nets = dict(failure_report.recovered_nets)
        metrics.degraded_stages = dict(failure_report.degraded_stages)
        metrics.resumed_from = failure_report.resumed_from
    return metrics
