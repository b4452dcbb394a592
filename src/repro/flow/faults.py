"""Deterministic, seeded fault injection for the routing flow.

Every recovery path of the resilience layer must be testable without
waiting for a real failure, so the flow can be run with a
:class:`FaultPlan` that makes chosen subsystems raise or stall on chosen
nets.  Injection sites are checked at the natural isolation boundaries:

* ``steiner_oracle`` — the per-net block oracle of the resource sharing
  solver (:mod:`repro.groute.sharing`);
* ``rounding``      — per-net randomized rounding
  (:mod:`repro.groute.rounding`);
* ``path_search``   — the detailed router's per-net path search
  (:mod:`repro.droute.connect`);
* ``pin_access``    — catalogue construction per pin
  (:mod:`repro.droute.pinaccess`);
* ``worker``        — the parallel detailed-routing worker loop
  (:mod:`repro.droute.pool`); only fires inside pool worker processes
  (:meth:`FaultInjector.enter_worker`), so a plan carrying worker
  faults behaves identically under ``--workers 1``.

Net selection is deterministic: explicit name lists, or a fraction of
nets picked by a seeded stable hash, so the same plan + seed injects the
same faults run after run.  Worker processes inherit the injector by
fork and additionally receive the plan + fire-state explicitly
(:meth:`FaultInjector.state` / :meth:`FaultInjector.merge_child_state`),
so per-net transient budgets stay consistent across process boundaries.
"""

from __future__ import annotations

import os
import time
import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Valid injection sites.
FAULT_SITES = (
    "steiner_oracle", "rounding", "path_search", "pin_access", "worker",
)
#: The site checked inside pool worker processes only.
SITE_WORKER = "worker"

KIND_RAISE = "raise"
KIND_STALL = "stall"
#: Simulated hard crash: the worker process exits immediately without
#: cleanup (``os._exit``), as a segfault or OOM kill would.  Only
#: meaningful at the ``worker`` site; ignored outside worker processes.
KIND_KILL = "kill"

#: Exit code of a worker killed by an injected ``kill`` fault, so tests
#: and the pool supervisor can tell injected crashes from genuine ones.
KILLED_EXIT_CODE = 43


class InjectedFault(Exception):
    """Raised by the injector at a chosen site (a simulated crash)."""

    def __init__(self, site: str, net: Optional[str]) -> None:
        super().__init__(f"injected fault at {site} for net {net!r}")
        self.site = site
        self.net = net


def _stable_fraction(seed: int, site: str, name: str) -> float:
    """Deterministic pseudo-uniform value in [0, 1) for (seed, site, name)."""
    digest = zlib.crc32(f"{seed}:{site}:{name}".encode("utf-8"))
    return (digest & 0xFFFFFFFF) / 4294967296.0


class FaultSpec:
    """One injection rule.

    ``nets`` selects explicit net names; ``fraction`` instead selects
    that share of all nets by stable hash.  ``kind`` is ``"raise"`` or
    ``"stall"`` (``stall_s`` busy time).  ``fires_per_net`` bounds how
    often the fault fires per net (default 1: a *transient* fault that a
    retry survives); ``None`` means it fires on every check (a
    *persistent* fault that only a different engine or giving up
    resolves).
    """

    def __init__(
        self,
        site: str,
        nets: Optional[Iterable[str]] = None,
        fraction: Optional[float] = None,
        kind: str = KIND_RAISE,
        stall_s: float = 0.0,
        fires_per_net: Optional[int] = 1,
    ) -> None:
        if site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {site!r}; valid sites: {FAULT_SITES}"
            )
        if kind not in (KIND_RAISE, KIND_STALL, KIND_KILL):
            raise ValueError(f"unknown fault kind {kind!r}")
        if kind == KIND_KILL and site != SITE_WORKER:
            raise ValueError(
                f"kind {KIND_KILL!r} is only valid at site {SITE_WORKER!r} "
                f"(got {site!r}); a kill outside a worker process would "
                "abort the whole run"
            )
        if (nets is None) == (fraction is None):
            raise ValueError("specify exactly one of nets= or fraction=")
        self.site = site
        self.nets = frozenset(nets) if nets is not None else None
        self.fraction = fraction
        self.kind = kind
        self.stall_s = stall_s
        self.fires_per_net = fires_per_net

    def matches(self, seed: int, net: Optional[str]) -> bool:
        if net is None:
            return False
        if self.nets is not None:
            return net in self.nets
        return _stable_fraction(seed, self.site, net) < float(self.fraction)

    def as_dict(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "nets": sorted(self.nets) if self.nets is not None else None,
            "fraction": self.fraction,
            "kind": self.kind,
            "stall_s": self.stall_s,
            "fires_per_net": self.fires_per_net,
        }


class FaultPlan:
    """A seeded collection of :class:`FaultSpec` rules."""

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self.seed = seed

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    @classmethod
    def parse(cls, texts: Sequence[str], seed: int = 0) -> "FaultPlan":
        """Parse CLI specs: ``site:fraction[:kind[:fires[:stall_s]]]``.

        Examples: ``path_search:0.1``, ``steiner_oracle:0.05:raise``,
        ``path_search:0.1:stall:2``, ``worker:0.2:stall:1:30``.
        ``fires`` of ``inf`` makes the fault persistent; ``stall_s``
        gives stall faults a duration (how long the victim hangs —
        without it a stall only records that it fired).
        """
        plan = cls(seed=seed)
        for text in texts:
            parts = text.split(":")
            if len(parts) < 2:
                raise ValueError(
                    f"bad fault spec {text!r}; expected "
                    "site:fraction[:kind[:fires[:stall_s]]]"
                )
            site = parts[0]
            fraction = float(parts[1])
            kind = parts[2] if len(parts) > 2 else KIND_RAISE
            fires: Optional[int] = 1
            if len(parts) > 3:
                fires = None if parts[3] == "inf" else int(parts[3])
            stall_s = float(parts[4]) if len(parts) > 4 else 0.0
            plan.add(
                FaultSpec(
                    site,
                    fraction=fraction,
                    kind=kind,
                    fires_per_net=fires,
                    stall_s=stall_s,
                )
            )
        return plan

    def injected_nets(self, site: str, net_names: Iterable[str]) -> List[str]:
        """Which of ``net_names`` this plan will fault at ``site``."""
        return [
            name
            for name in net_names
            if any(
                spec.site == site and spec.matches(self.seed, name)
                for spec in self.specs
            )
        ]

    def as_dict(self) -> Dict[str, object]:
        """JSON/pickle-safe form, for propagation into worker processes."""
        return {
            "seed": self.seed,
            "specs": [spec.as_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        plan = cls(seed=int(data.get("seed", 0)))
        for record in data.get("specs", ()):
            nets = record.get("nets")
            plan.add(
                FaultSpec(
                    str(record["site"]),
                    nets=nets if nets is not None else None,
                    fraction=record.get("fraction"),
                    kind=str(record.get("kind", KIND_RAISE)),
                    stall_s=float(record.get("stall_s", 0.0)),
                    fires_per_net=record.get("fires_per_net"),
                )
            )
        return plan


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan`.

    One injector is shared by all subsystems of a flow run; it counts
    fires per (spec, net) so transient faults stop firing after their
    budget, and records every fired event for assertions.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._fires: Dict[Tuple[int, str], int] = {}
        #: Every fired event as (site, net, kind), in order.
        self.fired: List[Tuple[str, Optional[str], str]] = []
        #: Set inside pool worker processes (:meth:`enter_worker`);
        #: ``worker``-site faults only fire when this is true, so the
        #: same plan behaves identically at ``--workers 1``.
        self.in_worker = False

    def enter_worker(self) -> None:
        """Arm ``worker``-site faults: we now run inside a pool worker."""
        self.in_worker = True

    def check(self, site: str, net: Optional[str] = None) -> None:
        """Fire any matching fault: raise :class:`InjectedFault`, stall,
        or (``worker`` site, ``kill`` kind) exit the process."""
        if site == SITE_WORKER and not self.in_worker:
            return
        for index, spec in enumerate(self.plan.specs):
            if spec.site != site or not spec.matches(self.plan.seed, net):
                continue
            key = (index, net or "")
            count = self._fires.get(key, 0)
            if spec.fires_per_net is not None and count >= spec.fires_per_net:
                continue
            self._fires[key] = count + 1
            self.fired.append((site, net, spec.kind))
            if spec.kind == KIND_STALL:
                if spec.stall_s > 0.0:
                    time.sleep(spec.stall_s)
                continue
            if spec.kind == KIND_KILL:
                # A simulated hard crash: no exception, no cleanup, no
                # result message — the supervisor must notice the corpse.
                os._exit(KILLED_EXIT_CODE)
            raise InjectedFault(site, net)

    def fire_count(self, site: Optional[str] = None) -> int:
        if site is None:
            return len(self.fired)
        return sum(1 for fired_site, _net, _kind in self.fired if fired_site == site)

    # ------------------------------------------------------------------
    # Cross-process propagation (repro.droute.pool)
    # ------------------------------------------------------------------
    def state(self, fired_since: int = 0) -> Dict[str, object]:
        """Picklable snapshot of plan + fire-state.

        ``fired_since`` trims the ``fired`` log to entries appended after
        that index, so a forked worker (which inherits the parent's whole
        log) reports only its own deltas back.
        """
        return {
            "plan": self.plan.as_dict(),
            "fires": {
                f"{index}:{net}": count
                for (index, net), count in self._fires.items()
            },
            "fired": [list(entry) for entry in self.fired[fired_since:]],
        }

    def merge_child_state(self, state: Dict[str, object]) -> None:
        """Fold a worker's fire-state back into this injector.

        Fire counts merge by max (each net is routed by exactly one
        process, so the larger count is the true one); the child's fired
        deltas append to the log in arrival order.
        """
        for key, count in (state.get("fires") or {}).items():
            index_text, _, net = key.partition(":")
            fires_key = (int(index_text), net)
            if count > self._fires.get(fires_key, 0):
                self._fires[fires_key] = count
        for entry in state.get("fired") or ():
            site, net, kind = entry
            self.fired.append((site, net, kind))

    def charge(self, site: str, net_names: Iterable[str]) -> List[str]:
        """Consume matching transient faults without executing them.

        Called by the pool supervisor when a worker died: the corpse
        cannot report which fault killed it, so the parent charges the
        dead region's nets against the plan.  A transient (bounded
        ``fires_per_net``) fault is thereby spent, and the retry on a
        fresh worker survives — matching the single-process semantics
        where a transient fault fires once and the retry succeeds.
        Returns the net names charged.
        """
        charged: List[str] = []
        for index, spec in enumerate(self.plan.specs):
            if spec.site != site or spec.fires_per_net is None:
                continue
            for net in net_names:
                if not spec.matches(self.plan.seed, net):
                    continue
                key = (index, net)
                count = self._fires.get(key, 0)
                if count >= spec.fires_per_net:
                    continue
                self._fires[key] = count + 1
                self.fired.append((site, net, spec.kind))
                charged.append(net)
        return charged
