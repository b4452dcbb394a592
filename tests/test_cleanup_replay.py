"""Replayed spacing reroutes in :class:`DrcCleanup`.

A spacing reroute whose victim, window and routing space are the same
as when it last ran is not rerun: the cleanup returns the stored
outcome.  These tests defeat the replay by making its memo lookup miss
and check that nothing else moves, and pin the rules that decide when a
stored reroute may be replayed.
"""

import pytest

from repro.baseline.cleanup import DrcCleanup
from repro.chip.generator import ChipSpec, generate_chip
from repro.drc.checker import DrcChecker
from repro.droute.connect import NetConnector
from repro.flow.bonnroute import BonnRouteFlow
from repro.flow.isr_flow import IsrFlow
from repro.obs import OBS
from tests.test_droute_golden import route_digest


def flow_medium_chip(seed=1015):
    """The ``flow_medium`` benchmark chip (seed 1012 is its held-out twin)."""
    return generate_chip(
        ChipSpec("flow_medium", rows=2, row_width_cells=4, net_count=4, seed=seed)
    )


def run_flow(flow, seed=1015, cleanup=True):
    chip = flow_medium_chip(seed)
    if flow == "br":
        return BonnRouteFlow(chip, gr_phases=4, seed=1, cleanup=cleanup).run()
    return IsrFlow(chip, cleanup=cleanup).run()


@pytest.fixture(autouse=True)
def _clean_singleton():
    OBS.reset()
    OBS.enabled = False
    yield
    OBS.reset()
    OBS.enabled = False


@pytest.fixture
def connect_calls(monkeypatch):
    """Every ``NetConnector.connect_net`` result, in call order."""
    calls = []
    real = NetConnector.connect_net

    def spy(self, *args, **kwargs):
        result = real(self, *args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(NetConnector, "connect_net", spy)
    return calls


def _cleanup_outcome(flow, calls):
    """Route without cleanup, then clean up with ``calls`` recording."""
    result = run_flow(flow, cleanup=False)
    del calls[:]
    OBS.reset()
    OBS.configure(enabled=True)
    report = DrcCleanup(result.space).run()
    summary = report.summary()
    del summary["runtime"]
    return {
        "digest": route_digest(result.space),
        "summary": summary,
        "reroutes": len(calls),
        "replayed": OBS.counters.get("cleanup.reroutes_replayed", 0),
    }


@pytest.mark.parametrize("flow", ["br", "isr"])
def test_defeated_replay_changes_nothing_but_the_reroute_count(
    flow, connect_calls, monkeypatch
):
    replayed = _cleanup_outcome(flow, connect_calls)
    monkeypatch.setattr(DrcCleanup, "_replay", lambda self, key: None)
    rerun = _cleanup_outcome(flow, connect_calls)
    assert replayed["digest"] == rerun["digest"]
    assert replayed["summary"] == rerun["summary"]
    assert replayed["summary"]["fixed_spacing"] == 8
    assert (replayed["reroutes"], replayed["replayed"]) == (3, 5)
    assert (rerun["reroutes"], rerun["replayed"]) == (8, 0)


def _spacing_setup(flow, seed):
    result = run_flow(flow, seed=seed, cleanup=False)
    space = result.space
    cleaner = DrcCleanup(space)
    nets = {net.name: net for net in space.chip.nets}
    violations = DrcChecker(space).run(opens=False).violations
    spacing = next(v for v in violations if v.kind == "spacing")
    return cleaner, nets, violations, spacing


@pytest.mark.parametrize(
    "flow, kind", [("br", "min_segment"), ("isr", "min_area")]
)
def test_space_changing_fix_defeats_replay(flow, kind, connect_calls):
    # As in a cleanup pass: the fixes work from the pass's violation list.
    cleaner, nets, violations, spacing = _spacing_setup(flow, 1012)
    del connect_calls[:]
    assert cleaner._fix_spacing(spacing, nets)
    assert cleaner._fix_spacing(spacing, nets)
    assert len(connect_calls) == 1  # the second reroute is a replay
    fix = getattr(cleaner, f"_fix_{kind}")
    assert any(fix(v) for v in violations if v.kind == kind)
    cleaner._fix_spacing(spacing, nets)
    assert len(connect_calls) == 2


def _rips_a_net(connector, result):
    result.ripped_nets.add("elsewhere")


def _grows_ripup_history(connector, result):
    vertex = (0, 0, 0)
    connector.ripup_history[vertex] = connector.ripup_history.get(vertex, 0) + 1


@pytest.mark.parametrize("side_effect", [_rips_a_net, _grows_ripup_history])
def test_reroute_with_side_effects_is_never_memoised(side_effect, monkeypatch):
    cleaner, nets, _violations, spacing = _spacing_setup("br", 1015)
    calls = []
    real = NetConnector.connect_net

    def connect_net(self, *args, **kwargs):
        result = real(self, *args, **kwargs)
        side_effect(self, result)
        calls.append(result)
        return result

    monkeypatch.setattr(NetConnector, "connect_net", connect_net)
    for expected_edits in (1, 2):
        cleaner._fix_spacing(spacing, nets)
        assert cleaner._edits == expected_edits
    assert len(calls) == 2
    assert cleaner._reroutes == {}
