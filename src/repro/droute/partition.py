"""Region partitioning for (modelled) parallel detailed routing (Sec. 5.1).

BonnRoute's detailed routing parallelizes by partitioning the chip area
into regions assigned to threads; each thread may only make changes that
cannot affect other threads' regions, so nets crossing region borders
must wait for later rounds with fewer, larger regions.  The partition
sequence balances the estimated workload (pin count) per region and
shrinks the region count geometrically until a single region remains.

This module reproduces the partitioning logic; execution is serial in
Python, but the round structure (which nets become routable when) and the
balance statistics are the paper's.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chip.design import Chip
from repro.chip.net import Net
from repro.geometry.rect import Rect

#: A net must stay this many bottom-layer pitches inside a region to be
#: routable in it (changes near borders could affect neighbouring
#: threads).
SAFETY_MARGIN_PITCHES = 8


class PartitionRound:
    """One round: disjoint regions, each routed by one (modelled) thread."""

    def __init__(self, regions: List[Rect], safety_margin: int) -> None:
        self.regions = regions
        #: Nets must stay this far inside a region to be routable in it
        #: (changes near borders could affect neighbouring threads).
        self.safety_margin = safety_margin
        #: Cut x-coordinates between consecutive regions, when the
        #: regions form the x-slab partition :func:`partition_sequence`
        #: builds (sorted, contiguous, full-height).  ``region_of`` then
        #: bisects instead of scanning; irregular region lists (hand
        #: built in tests) keep the linear scan.
        self._cut_xs: Optional[List[int]] = self._slab_cuts(regions)

    @staticmethod
    def _slab_cuts(regions: Sequence[Rect]) -> Optional[List[int]]:
        if not regions:
            return None
        first = regions[0]
        for prev, here in zip(regions, regions[1:]):
            if here.x_lo != prev.x_hi:
                return None
            if here.y_lo != first.y_lo or here.y_hi != first.y_hi:
                return None
        return [region.x_hi for region in regions[:-1]]

    def _safe_interior(self, index: int) -> Rect:
        region = self.regions[index]
        if (
            region.width > 2 * self.safety_margin
            and region.height > 2 * self.safety_margin
        ):
            return Rect(
                region.x_lo + self.safety_margin if region.x_lo > 0 else region.x_lo,
                region.y_lo + self.safety_margin if region.y_lo > 0 else region.y_lo,
                region.x_hi - self.safety_margin,
                region.y_hi - self.safety_margin,
            )
        return region

    def region_of(self, box: Rect) -> Optional[int]:
        """Region index whose safe interior contains ``box``, or None.

        The regions tile the x-axis, so only the slab containing
        ``box.x_lo`` can contain the box; bisection over the stored cut
        coordinates finds it in O(log regions).  When ``box.x_lo`` sits
        exactly on a cut, the slab left of the cut is checked too (its
        closed upper edge also covers the coordinate), preserving the
        first-match order of the former linear scan.
        """
        if self._cut_xs is None:
            return self._region_of_linear(box)
        candidate = bisect_right(self._cut_xs, box.x_lo)
        if candidate > 0 and self._cut_xs[candidate - 1] == box.x_lo:
            if self._safe_interior(candidate - 1).contains_rect(box):
                return candidate - 1
        if candidate < len(self.regions):
            if self._safe_interior(candidate).contains_rect(box):
                return candidate
        return None

    def _region_of_linear(self, box: Rect) -> Optional[int]:
        """Reference O(regions) scan (kept for irregular regions and as
        the oracle for the bisection's equivalence test)."""
        for index in range(len(self.regions)):
            if self._safe_interior(index).contains_rect(box):
                return index
        return None


def _balanced_cuts(weights: Sequence[int], parts: int) -> List[int]:
    """Cut positions splitting ``weights`` into ``parts`` balanced chunks.

    Greedy prefix-sum splitting: each cut is placed where the running
    total first reaches the next multiple of total/parts.
    """
    total = sum(weights)
    if total == 0 or parts <= 1:
        return []
    cuts = []
    target = total / parts
    running = 0
    next_threshold = target
    for index, weight in enumerate(weights):
        running += weight
        if running >= next_threshold and len(cuts) < parts - 1:
            cuts.append(index + 1)
            next_threshold += target
    return cuts


def partition_sequence(chip: Chip, threads: int) -> List[PartitionRound]:
    """The shrinking partition sequence of Sec. 5.1.

    Round k uses roughly threads / 2^k regions, cut along the x-axis at
    pin-weight-balanced positions; the final round is a single region so
    every remaining connection can be closed.  Each multi-region round
    keeps nets :data:`SAFETY_MARGIN_PITCHES` bottom-layer pitches inside
    a region.
    """
    if threads < 1:
        raise ValueError("need at least one thread")
    safety_margin = SAFETY_MARGIN_PITCHES * chip.stack[chip.stack.bottom].pitch
    # Pin-count histogram along x (workload estimate).
    buckets = 64
    die = chip.die
    width = max(die.width, 1)
    weights = [0] * buckets
    for pin in chip.all_pins():
        x = pin.reference_point()[0]
        bucket = min(buckets - 1, max(0, (x - die.x_lo) * buckets // width))
        weights[bucket] += 1
    sequence: List[PartitionRound] = []
    region_count = threads
    while region_count > 1:
        cuts = _balanced_cuts(weights, region_count)
        borders = (
            [die.x_lo]
            + [die.x_lo + cut * width // buckets for cut in cuts]
            + [die.x_hi]
        )
        regions = [
            Rect(borders[i], die.y_lo, borders[i + 1], die.y_hi)
            for i in range(len(borders) - 1)
            if borders[i] < borders[i + 1]
        ]
        sequence.append(PartitionRound(regions, safety_margin))
        region_count //= 2
    sequence.append(PartitionRound([die], 0))
    return sequence


def assign_nets_to_rounds(
    chip: Chip,
    sequence: Sequence[PartitionRound],
    nets: Optional[Sequence] = None,
) -> List[List[Tuple[int, Net]]]:
    """Assign each net to the earliest round whose safe region contains it.

    ``nets`` restricts the assignment to a subset — e.g. the dirty set of
    an ECO reroute (:meth:`repro.engine.session.RoutingSession.reroute`)
    — and accepts :class:`Net` objects or net names interchangeably;
    names are resolved against the chip and duplicates are dropped.
    Defaults to every chip net.

    Returns per round a list of (region_index, net); within a round,
    different regions model concurrent threads.  Every net is routable by
    the final single-region round at the latest.
    """
    if nets is None:
        nets = chip.nets
    remaining: List[Net] = []
    seen = set()
    for item in nets:
        net = chip.net(item) if isinstance(item, str) else item
        if net.name not in seen:
            seen.add(net.name)
            remaining.append(net)
    assignment: List[List[Tuple[int, Net]]] = []
    for round_index, part in enumerate(sequence):
        this_round: List[Tuple[int, Net]] = []
        still_remaining = []
        last_round = round_index == len(sequence) - 1
        for net in remaining:
            box = net.bounding_box()
            region = part.region_of(box)
            if region is not None or last_round:
                this_round.append((region if region is not None else 0, net))
            else:
                still_remaining.append(net)
        assignment.append(this_round)
        remaining = still_remaining
    return assignment


def balance_report(
    assignment: Sequence[Sequence[Tuple[int, Net]]]
) -> List[Dict[str, float]]:
    """Per-round workload balance: pins per region vs the ideal share."""
    report = []
    for round_nets in assignment:
        per_region: Dict[int, int] = {}
        for region, net in round_nets:
            per_region[region] = per_region.get(region, 0) + net.terminal_count
        if not per_region:
            report.append({"regions": 0, "max_share": 0.0, "nets": 0})
            continue
        total = sum(per_region.values())
        ideal = total / max(len(per_region), 1)
        report.append(
            {
                "regions": len(per_region),
                "max_share": max(per_region.values()) / ideal if ideal else 0.0,
                "nets": len(round_nets),
            }
        )
    return report
