"""Net-level dirty tracking for incremental rerouting.

A net is *dirty* when its routed wiring can no longer be trusted: either
an ECO edit touched the net itself, or the edit's geometry conflicts
with the net's existing route (found via shape-grid ripup queries and
global-edge usage).  The tracker records *why* each net went dirty and
whether the dirtiness was propagated (a conflict) rather than direct (an
edit), which feeds the ``engine.ripups_propagated`` counter.
"""

from __future__ import annotations

from typing import Dict, Set

#: Direct edits.
REASON_EDITED = "edited"  # the net's own pins moved
REASON_ADDED = "added"  # the net is new
#: Propagated dirtiness.
REASON_CONFLICT = "conflict"  # edit geometry overlaps the net's wiring
REASON_CAPACITY = "capacity"  # a global edge the net uses lost capacity
REASON_RIPUP = "ripup"  # ripped by a dirty net during rerouting


class DirtyTracker:
    """Set of dirty nets with first-cause reasons."""

    def __init__(self) -> None:
        self._reasons: Dict[str, str] = {}
        self._propagated: Set[str] = set()

    def __len__(self) -> int:
        return len(self._reasons)

    def __contains__(self, net_name: str) -> bool:
        return net_name in self._reasons

    def __bool__(self) -> bool:
        return bool(self._reasons)

    def mark(
        self, net_name: str, reason: str, propagated: bool = False
    ) -> bool:
        """Mark a net dirty; returns True when it was newly marked.

        The first reason sticks (a net edited *and* in conflict reports
        the edit), but a direct mark upgrades an earlier propagated one.
        """
        fresh = net_name not in self._reasons
        if fresh:
            self._reasons[net_name] = reason
            if propagated:
                self._propagated.add(net_name)
        elif not propagated and net_name in self._propagated:
            self._reasons[net_name] = reason
            self._propagated.discard(net_name)
        return fresh

    def discard(self, net_name: str) -> None:
        self._reasons.pop(net_name, None)
        self._propagated.discard(net_name)

    def names(self) -> Set[str]:
        return set(self._reasons)

    def reason(self, net_name: str) -> str:
        return self._reasons[net_name]

    def propagated_names(self) -> Set[str]:
        return set(self._propagated)

    def reasons_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for reason in self._reasons.values():
            histogram[reason] = histogram.get(reason, 0) + 1
        return histogram

    def clear(self) -> None:
        self._reasons.clear()
        self._propagated.clear()
