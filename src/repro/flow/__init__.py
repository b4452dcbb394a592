"""End-to-end flows, metrics, and the fault-tolerant runtime (Sec. 5).

* :mod:`repro.flow.stats` - the Table I metrics: netlength, via counts,
  scenic nets (>= 25 % / >= 50 % detour), error counts, memory;
* :mod:`repro.flow.bonnroute` - the "BR+ISR" flow: BonnRoute global +
  detailed routing, then the local DRC cleanup;
* :mod:`repro.flow.isr_flow` - the plain "ISR" flow: negotiation global
  routing, track assignment + maze detailed routing, cleanup;
* :mod:`repro.flow.resilience` - deadlines, the escalation ladder and
  structured failure reports;
* :mod:`repro.flow.faults` - deterministic seeded fault injection.

Attributes are resolved lazily (PEP 562): the low-level routers import
:mod:`repro.flow.resilience` at module scope, so this package must not
eagerly import the flow facades (which import the routers back).
"""

from typing import Dict, Tuple

_EXPORTS: Dict[str, Tuple[str, str]] = {
    "FlowMetrics": ("repro.flow.stats", "FlowMetrics"),
    "collect_metrics": ("repro.flow.stats", "collect_metrics"),
    "scenic_nets": ("repro.flow.stats", "scenic_nets"),
    "BonnRouteFlow": ("repro.flow.bonnroute", "BonnRouteFlow"),
    "FlowResult": ("repro.flow.bonnroute", "FlowResult"),
    "IsrFlow": ("repro.flow.isr_flow", "IsrFlow"),
    "Deadline": ("repro.flow.resilience", "Deadline"),
    "DeadlineExceeded": ("repro.flow.resilience", "DeadlineExceeded"),
    "NetFailure": ("repro.flow.resilience", "NetFailure"),
    "FlowFailureReport": ("repro.flow.resilience", "FlowFailureReport"),
    "escalation_ladder": ("repro.flow.resilience", "escalation_ladder"),
    "FaultPlan": ("repro.flow.faults", "FaultPlan"),
    "FaultSpec": ("repro.flow.faults", "FaultSpec"),
    "FaultInjector": ("repro.flow.faults", "FaultInjector"),
    "InjectedFault": ("repro.flow.faults", "InjectedFault"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
