"""Fault-tolerant runtime layer for the routing flow.

Industrial routing flows are long pipelines; one net whose path search
throws, stalls, or returns an infeasible corridor must not abort the
whole chip.  This module provides the building blocks the flow uses to
isolate and degrade instead of crashing:

* :class:`Deadline` — soft per-net deadlines (checked inside the path
  search loop) and hard per-stage wall-clock budgets;
* the **escalation ladder** — on failure of a net, retry with
  (a) an expanded corridor margin, (b) off-track access enabled and the
  corridor dropped, (c) the ISR-baseline node search as a fallback
  engine, and finally (d) record the net as an *open* with a structured
  :class:`NetFailure` instead of raising;
* :class:`NetFailure` / :class:`FlowFailureReport` — structured records
  of what failed, why, and what degraded modes were used.

The detailed router (:mod:`repro.droute.router`) executes the ladder;
the flow (:mod:`repro.flow.bonnroute`) aggregates the report and
serializes checkpoints between stages.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.grid.shapegrid import RipupLevel
from repro.obs import OBS


class DeadlineExceeded(Exception):
    """A soft deadline or hard stage budget expired."""

    def __init__(self, message: str = "deadline exceeded") -> None:
        super().__init__(message)


class Deadline:
    """Wall-clock budget with an injectable clock (for deterministic tests).

    A ``None`` budget never expires; :meth:`check` raises
    :class:`DeadlineExceeded` once the budget is spent.  Deadlines are
    cheap to poll, so the path search checks one every few heap pops.
    """

    __slots__ = ("budget_s", "_clock", "_start")

    def __init__(
        self,
        budget_s: Optional[float],
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.budget_s = budget_s
        self._clock = clock if clock is not None else time.monotonic
        self._start = self._clock()

    @property
    def elapsed(self) -> float:
        return self._clock() - self._start

    @property
    def remaining(self) -> Optional[float]:
        if self.budget_s is None:
            return None
        return self.budget_s - self.elapsed

    @property
    def expired(self) -> bool:
        remaining = self.remaining
        return remaining is not None and remaining <= 0.0

    def check(self) -> None:
        if self.expired:
            OBS.flight_note(
                "resilience.deadline_expired",
                budget_s=self.budget_s,
                elapsed_s=self.elapsed,
            )
            if OBS.enabled:
                OBS.count("resilience.deadlines_expired")
                OBS.event(
                    "resilience.deadline_expired",
                    budget_s=self.budget_s,
                    elapsed_s=self.elapsed,
                )
            raise DeadlineExceeded(
                f"deadline of {self.budget_s:.3f}s expired "
                f"({self.elapsed:.3f}s elapsed)"
            )

    @staticmethod
    def soonest(*deadlines: Optional["Deadline"]) -> Optional["Deadline"]:
        """The deadline that will expire first (``None`` entries ignored)."""
        best: Optional[Deadline] = None
        best_remaining: Optional[float] = None
        for deadline in deadlines:
            if deadline is None or deadline.budget_s is None:
                continue
            remaining = deadline.remaining
            if best_remaining is None or remaining < best_remaining:
                best = deadline
                best_remaining = remaining
        return best


# ----------------------------------------------------------------------
# Escalation ladder
# ----------------------------------------------------------------------
class EscalationRung:
    """One recovery step for a failing net.

    ``corridor_expansion`` counts corridor-margin expansion steps
    (``None`` drops the corridor entirely); ``ripup_level`` is the
    deepest foreign ripup level searches may cross (-2 forbids ripup);
    ``force_off_track_access`` additionally generates off-track
    (tau-feasible) access paths even for pins that have on-track
    vertices; ``engine`` selects the path search implementation
    ("interval", or "isr" for the node-based baseline search).
    """

    __slots__ = (
        "name",
        "corridor_expansion",
        "ripup_level",
        "force_off_track_access",
        "engine",
    )

    def __init__(
        self,
        name: str,
        corridor_expansion: Optional[int] = 0,
        ripup_level: int = -2,
        force_off_track_access: bool = False,
        engine: str = "interval",
    ) -> None:
        self.name = name
        self.corridor_expansion = corridor_expansion
        self.ripup_level = ripup_level
        self.force_off_track_access = force_off_track_access
        self.engine = engine

    def __repr__(self) -> str:
        return f"EscalationRung({self.name})"


def escalation_ladder(max_retry_rounds: int = 2) -> List[EscalationRung]:
    """The default ladder (Sec. 4.4 retries, then degraded modes).

    Rungs 0..max_retry_rounds replicate the paper's retry discipline:
    growing ripup effort and expanded routing areas, ending with the
    corridor dropped.  Beyond those, rung (b) enables off-track access
    everywhere, and rung (c) falls back to the ISR-baseline node search,
    a separate engine that survives faults in the interval machinery.
    """
    rungs: List[EscalationRung] = [EscalationRung("baseline")]
    for expansion in range(1, max_retry_rounds + 1):
        level = (
            int(RipupLevel.RESERVED)
            if expansion == 1
            else int(RipupLevel.NORMAL)
        )
        rungs.append(
            EscalationRung(
                f"expanded_corridor_{expansion}",
                corridor_expansion=expansion,
                ripup_level=level,
            )
        )
    rungs.append(
        EscalationRung(
            "off_track",
            corridor_expansion=None,
            ripup_level=int(RipupLevel.NORMAL),
            force_off_track_access=True,
        )
    )
    rungs.append(
        EscalationRung(
            "isr_fallback",
            corridor_expansion=None,
            ripup_level=int(RipupLevel.NORMAL),
            force_off_track_access=True,
            engine="isr",
        )
    )
    return rungs


# ----------------------------------------------------------------------
# Structured failures
# ----------------------------------------------------------------------
#: Failure reason vocabulary (the values of ``NetFailure.reason``).
REASON_EXCEPTION = "exception"
REASON_TIMEOUT = "timeout"
REASON_UNROUTABLE = "unroutable"
REASON_STAGE_BUDGET = "stage-budget"
REASON_RETRIES_EXHAUSTED = "retries-exhausted"


class NetFailure:
    """A net recorded as *open* instead of aborting the flow."""

    __slots__ = (
        "net_name",
        "stage",
        "reason",
        "attempts",
        "rungs_tried",
        "error",
        "open_connections",
    )

    def __init__(
        self,
        net_name: str,
        stage: str,
        reason: str,
        attempts: int = 0,
        rungs_tried: Sequence[str] = (),
        error: Optional[str] = None,
        open_connections: int = 0,
    ) -> None:
        self.net_name = net_name
        self.stage = stage
        self.reason = reason
        self.attempts = attempts
        self.rungs_tried = list(rungs_tried)
        self.error = error
        self.open_connections = open_connections

    def as_dict(self) -> Dict[str, object]:
        return {
            "net": self.net_name,
            "stage": self.stage,
            "reason": self.reason,
            "attempts": self.attempts,
            "rungs_tried": list(self.rungs_tried),
            "error": self.error,
            "open_connections": self.open_connections,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NetFailure":
        return cls(
            str(data["net"]),
            str(data["stage"]),
            str(data["reason"]),
            attempts=int(data.get("attempts", 0)),
            rungs_tried=list(data.get("rungs_tried", ())),
            error=data.get("error"),
            open_connections=int(data.get("open_connections", 0)),
        )

    def __repr__(self) -> str:
        return (
            f"NetFailure({self.net_name}, stage={self.stage}, "
            f"reason={self.reason}, attempts={self.attempts})"
        )


class FlowFailureReport:
    """Aggregated failure/retry/degradation report of one flow run."""

    def __init__(self) -> None:
        #: net name -> NetFailure for every net recorded as open.
        self.net_failures: Dict[str, NetFailure] = {}
        #: stage name -> human-readable degradation description.
        self.degraded_stages: Dict[str, str] = {}
        self.retries = 0
        self.escalations = 0
        #: Nets recovered by a ladder rung beyond the baseline attempt.
        self.recovered_nets: Dict[str, str] = {}
        #: Checkpoint stage this run resumed from, if any.
        self.resumed_from: Optional[str] = None
        #: Oracle / rounding faults absorbed during global routing.
        self.global_faults = 0
        #: Worker-pool incidents (crashes, timeouts, region/pool
        #: degradations) from parallel detailed routing, as plain dicts
        #: with at least a ``kind`` key.
        self.pool_events: List[Dict[str, object]] = []
        #: Flight-recorder dump (most recent spans/events/notes, oldest
        #: first) captured at the end of a run that recorded failures —
        #: the last-moments context for post-mortems.  Empty on clean
        #: runs.
        self.flight_recorder: List[Dict[str, object]] = []

    def record_failure(self, failure: NetFailure) -> None:
        self.net_failures[failure.net_name] = failure

    def record_recovery(self, net_name: str, rung_name: str) -> None:
        self.recovered_nets[net_name] = rung_name
        self.net_failures.pop(net_name, None)

    def absorb_detailed(self, result, include_failures: bool = True) -> None:
        """Fold a detailed-routing result into this report.

        Used by the full flow and by session ECO reroutes; the preroute
        pass sets ``include_failures=False`` because its unrouted nets
        re-enter the main detailed stage rather than ending up open.
        """
        self.retries += result.retries
        self.escalations += result.escalations
        self.pool_events.extend(result.pool_events)
        if result.pool_degraded:
            self.degraded_stages.setdefault(
                "detailed-pool",
                "worker pool degraded to in-process serial execution",
            )
        for name, rung in result.recovered.items():
            self.record_recovery(name, rung)
        if include_failures:
            for failure in result.failures.values():
                self.record_failure(failure)

    def reasons_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for failure in self.net_failures.values():
            histogram[failure.reason] = histogram.get(failure.reason, 0) + 1
        return histogram

    def as_dict(self) -> Dict[str, object]:
        return {
            "failed_nets": sorted(self.net_failures),
            "failures": [
                self.net_failures[name].as_dict()
                for name in sorted(self.net_failures)
            ],
            "reasons": self.reasons_histogram(),
            "retries": self.retries,
            "escalations": self.escalations,
            "recovered_nets": dict(sorted(self.recovered_nets.items())),
            "degraded_stages": dict(self.degraded_stages),
            "resumed_from": self.resumed_from,
            "global_faults": self.global_faults,
            "pool_events": list(self.pool_events),
            "flight_recorder": list(self.flight_recorder),
        }
