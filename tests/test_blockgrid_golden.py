"""Golden tie-order test for the blockage-grid search (Sec. 3.8, Alg. 3).

Among several shortest tau-feasible paths the search returns the one its
heap pops first, and pin-access catalogues (hence the routed wiring) are
built from those exact polylines.  The pop order is therefore part of
the output contract, which a length-only property test cannot see.

``blockgrid_golden.json`` holds ~200 seeded random instances (obstacles,
tau in {1, 40, 80}, one or two sources and targets, including
unreachable, source == target and blocked-terminal cases) together with
the ``(length, points)`` the reference kernel returned for each.  The
test replays every instance and requires the same answer, point for
point.

Regenerate (only when a results change is intended) with::

    PYTHONPATH=src python tests/test_blockgrid_golden.py
"""

import json
import os
import random

import pytest

from repro.geometry.rect import Rect
from repro.grid.blockgrid import BlockageGrid
from repro.util.heap import AddressableHeap, StateHeap

FIXTURE = os.path.join(os.path.dirname(__file__), "blockgrid_golden.json")
INSTANCES = 200
TAUS = (1, 40, 80)


def _coord(rng, hi):
    """Mostly multiples of 10, sometimes an arbitrary offset."""
    if rng.random() < 0.2:
        return rng.randint(0, hi)
    return rng.randint(0, hi // 10) * 10


def make_instance(seed):
    """Seeded random instance: dict of tau, bbox, obstacles, terminals."""
    rng = random.Random(seed)
    tau = TAUS[seed % len(TAUS)]
    width = rng.randint(30, 100) * 10
    height = rng.randint(30, 100) * 10
    obstacles = []
    for _ in range(rng.randint(0, 6)):
        x = rng.randint(-10, width // 10) * 10
        y = rng.randint(-10, height // 10) * 10
        obstacles.append(
            [x, y, x + rng.randint(1, 30) * 10, y + rng.randint(1, 30) * 10]
        )
    sources = [
        [_coord(rng, width), _coord(rng, height)]
        for _ in range(1 if rng.random() < 0.8 else 2)
    ]
    targets = [
        [_coord(rng, width), _coord(rng, height)]
        for _ in range(1 if rng.random() < 0.8 else 2)
    ]
    kind = seed % 10
    if kind == 0:
        # Source == target.
        targets[0] = list(sources[0])
    elif kind == 1 and obstacles:
        # A terminal strictly inside an obstacle.
        x_lo, y_lo, x_hi, y_hi = obstacles[0]
        point = [
            min(max((x_lo + x_hi) // 2, 0), width),
            min(max((y_lo + y_hi) // 2, 0), height),
        ]
        if rng.random() < 0.5:
            targets[0] = point
        else:
            sources[0] = point
    elif kind == 2:
        # Source walled in: no tau-feasible connection to the outside.
        sx, sy = sources[0] = [width // 2, height // 2]
        r, t = 100 + rng.randint(0, 10) * 10, 20
        obstacles += [
            [sx - r, sy - r, sx + r, sy - r + t],
            [sx - r, sy + r - t, sx + r, sy + r],
            [sx - r, sy - r, sx - r + t, sy + r],
            [sx + r - t, sy - r, sx + r, sy + r],
        ]
        targets = [[0, 0]]
    return {
        "seed": seed,
        "tau": tau,
        "bbox": [0, 0, width, height],
        "obstacles": obstacles,
        "sources": sources,
        "targets": targets,
    }


def solve(instance):
    """Run the blockage-grid search on one instance; JSON-shaped answer."""
    sources = [tuple(p) for p in instance["sources"]]
    targets = [tuple(p) for p in instance["targets"]]
    grid = BlockageGrid(
        [Rect(*r) for r in instance["obstacles"]],
        instance["tau"],
        Rect(*instance["bbox"]),
        sources + targets,
    )
    result = grid.shortest_path(sources, targets)
    if result is None:
        return None
    length, points = result
    return [length, [list(p) for p in points]]


def _load():
    with open(FIXTURE) as fh:
        return json.load(fh)["cases"]


CASES = _load() if os.path.exists(FIXTURE) else []


def test_fixture_covers_the_edge_cases():
    assert len(CASES) == INSTANCES
    answers = [case["answer"] for case in CASES]
    assert any(a is None for a in answers), "no unreachable case"
    assert any(a is not None and a[0] == 0 for a in answers), "no source == target"
    assert any(a is not None and len(a[1]) >= 4 for a in answers), "no multi-bend path"
    assert {case["instance"]["tau"] for case in CASES} == set(TAUS)


@pytest.mark.parametrize("case", CASES, ids=[str(c["instance"]["seed"]) for c in CASES])
def test_reproduces_golden_answer(case):
    assert solve(case["instance"]) == case["answer"]


@pytest.mark.parametrize("seed", range(20))
def test_state_heap_pops_like_addressable_heap(seed):
    """Same pushes, decrease-keys and pops, with many equal keys: the
    grid's heap must pop exactly what the generic heap pops."""
    rng = random.Random(seed)
    reference, heap = AddressableHeap(), StateHeap()
    keys = {}
    for _ in range(400):
        if heap.items and rng.random() < 0.35:
            state, key = heap.pop()
            assert reference.pop() == (state, key)
            keys[state] = -1  # settled: never pushed again
            continue
        state = rng.randrange(60)
        key = rng.randrange(8)
        old = keys.get(state)
        if old == -1 or (old is not None and key >= old):
            continue
        keys[state] = key
        reference.push(state, key)
        heap.push(state, key, old is not None)
    while heap.items:
        assert reference.pop() == heap.pop()
    assert not reference


def _inside(obstacle, width, height):
    """A point strictly inside ``obstacle`` and inside the bbox, or None."""
    x_lo, y_lo, x_hi, y_hi = obstacle
    x, y = (x_lo + x_hi) // 2, (y_lo + y_hi) // 2
    if x_lo < x < x_hi and y_lo < y < y_hi and 0 <= x <= width and 0 <= y <= height:
        return (x, y)
    return None


@pytest.mark.parametrize("seed", range(0, INSTANCES, 7))
def test_resumed_search_equals_fresh_search(seed):
    """One grid answers a random query sequence (repeats, 2-target sets,
    source == target, all-blocked targets, queries after the frontier
    is exhausted, two source sets) exactly as a fresh grid built from
    the same arguments answers each query alone."""
    instance = make_instance(seed)
    rng = random.Random(1000 + seed)
    _x0, _y0, width, height = instance["bbox"]
    obstacles = [Rect(*r) for r in instance["obstacles"]]
    sources = [tuple(p) for p in instance["sources"]]
    points = sources + [tuple(p) for p in instance["targets"]]
    points += [(_coord(rng, width), _coord(rng, height)) for _ in range(4)]
    if instance["obstacles"]:
        blocked = _inside(instance["obstacles"][-1], width, height)
        if blocked is not None:
            points.append(blocked)
    if seed % 10 == 2:
        # Walled-in source: reachable points inside the wall, queried
        # after an outside target has exhausted the frontier.
        sx, sy = sources[0]
        points += [(sx + 30, sy), (sx, sy - 40)]
    args = (obstacles, instance["tau"], Rect(*instance["bbox"]), points)
    grid = BlockageGrid(*args)
    source_sets = [sources, [rng.choice(points)]]
    queries = []
    for _ in range(12):
        targets = rng.sample(points, 2 if rng.random() < 0.25 else 1)
        queries.append((rng.choice(source_sets), targets))
    queries.append((sources, [sources[0]]))
    queries += [queries[rng.randrange(len(queries))] for _ in range(3)]
    if seed % 10 == 2:
        queries += [(sources, [(0, 0)]), (sources, points[-2:-1]), (sources, points[-1:])]
    for query_sources, targets in queries:
        fresh = BlockageGrid(*args).shortest_path(query_sources, targets)
        assert grid.shortest_path(query_sources, targets) == fresh, (
            query_sources, targets,
        )


def test_all_blocked_targets_pop_nothing(monkeypatch):
    """Targets strictly inside obstacles are answered None before the
    search pops a single state."""
    pops = []
    original = StateHeap.pop

    def counting_pop(self):
        pops.append(1)
        return original(self)

    monkeypatch.setattr(StateHeap, "pop", counting_pop)
    grid = BlockageGrid(
        [Rect(200, 200, 400, 400), Rect(600, 100, 700, 300)],
        40,
        Rect(0, 0, 1000, 1000),
        [(0, 0), (300, 300), (650, 200), (900, 900)],
    )
    assert grid.shortest_path([(0, 0)], [(300, 300)]) is None
    assert grid.shortest_path([(0, 0)], [(300, 300), (650, 200)]) is None
    assert not pops
    assert grid.shortest_path([(0, 0)], [(900, 900), (300, 300)]) is not None
    assert pops


if __name__ == "__main__":
    cases = []
    for seed in range(INSTANCES):
        instance = make_instance(seed)
        cases.append({"instance": instance, "answer": solve(instance)})
    with open(FIXTURE, "w") as fh:
        fh.write('{"cases": [\n')
        fh.write(",\n".join(json.dumps(case, separators=(",", ":")) for case in cases))
        fh.write("\n]}\n")
    print(f"wrote {len(cases)} cases to {FIXTURE}")
