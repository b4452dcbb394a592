"""Binary min-heaps with decrease-key.

All Dijkstra variants in the reproduction (the global-routing Steiner oracle,
the interval-based on-track path search of Algorithm 4, the blockage-grid
off-track search) need decrease-key, so Python's ``heapq`` alone is not
enough.  :class:`AddressableHeap` stores hashable items with comparable
priorities and supports O(log n) push / pop / decrease-key plus O(1)
membership and priority lookup.  :class:`StateHeap` is its lean twin for
the two hottest searches: the same pop order, no position map.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple


class AddressableHeap:
    """Binary min-heap over (priority, item) with decrease-key by item."""

    def __init__(self) -> None:
        self._heap: List[Tuple[Any, Any]] = []
        self._index: Dict[Any, int] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __contains__(self, item: Any) -> bool:
        return item in self._index

    def priority(self, item: Any) -> Any:
        return self._heap[self._index[item]][0]

    def push(self, item: Any, priority: Any) -> None:
        """Insert ``item``, or update its priority (up or down) if present."""
        if item in self._index:
            self.update(item, priority)
            return
        self._heap.append((priority, item))
        self._index[item] = len(self._heap) - 1
        self._sift_up(len(self._heap) - 1)

    def decrease_key(self, item: Any, priority: Any) -> bool:
        """Lower ``item``'s priority; no-op if the new one is not lower.

        Returns True if the priority was changed.
        """
        pos = self._index[item]
        if not (priority < self._heap[pos][0]):
            return False
        self._heap[pos] = (priority, item)
        self._sift_up(pos)
        return True

    def update(self, item: Any, priority: Any) -> None:
        pos = self._index[item]
        old = self._heap[pos][0]
        self._heap[pos] = (priority, item)
        if priority < old:
            self._sift_up(pos)
        else:
            self._sift_down(pos)

    def peek(self) -> Tuple[Any, Any]:
        """Return (item, priority) of the minimum without removing it."""
        if not self._heap:
            raise IndexError("peek on empty heap")
        priority, item = self._heap[0]
        return item, priority

    def pop(self) -> Tuple[Any, Any]:
        """Remove and return (item, priority) of the minimum."""
        if not self._heap:
            raise IndexError("pop on empty heap")
        priority, item = self._heap[0]
        last = self._heap.pop()
        del self._index[item]
        if self._heap:
            self._heap[0] = last
            self._index[last[1]] = 0
            self._sift_down(0)
        return item, priority

    def remove(self, item: Any) -> Optional[Any]:
        """Remove ``item`` if present; return its priority or None."""
        pos = self._index.pop(item, None)
        if pos is None:
            return None
        priority = self._heap[pos][0]
        last = self._heap.pop()
        if pos < len(self._heap):
            self._heap[pos] = last
            self._index[last[1]] = pos
            self._sift_down(pos)
            self._sift_up(pos)
        return priority

    def _sift_up(self, pos: int) -> None:
        heap = self._heap
        entry = heap[pos]
        while pos > 0:
            parent = (pos - 1) >> 1
            if heap[parent][0] <= entry[0]:
                break
            heap[pos] = heap[parent]
            self._index[heap[pos][1]] = pos
            pos = parent
        heap[pos] = entry
        self._index[entry[1]] = pos

    def _sift_down(self, pos: int) -> None:
        heap = self._heap
        size = len(heap)
        entry = heap[pos]
        while True:
            child = 2 * pos + 1
            if child >= size:
                break
            right = child + 1
            if right < size and heap[right][0] < heap[child][0]:
                child = right
            if entry[0] <= heap[child][0]:
                break
            heap[pos] = heap[child]
            self._index[heap[pos][1]] = pos
            pos = child
        heap[pos] = entry
        self._index[entry[1]] = pos


class StateHeap:
    """Binary min-heap of items held in a list parallel to their keys.

    The frontier of the blockage-grid search behind
    :meth:`repro.grid.blockgrid.BlockageGrid.shortest_path` (kept
    between queries, so one search resumes across several targets) and
    of the global-routing oracle's Dijkstra
    (:func:`repro.groute.steiner_oracle.shortest_component_path`).
    Sift-up and sift-down make the same ``<=`` / ``<`` key comparisons
    in the same order as :class:`AddressableHeap`, so equal keys pop in
    the same order and a search returns the same path among equally
    short ones.  The caller knows whether an item is queued: a decrease
    finds it with ``list.index`` instead of every sift step maintaining
    a position map (the searches lower a queued key for 1% and 11% of
    their pushes).
    """

    __slots__ = ("items", "keys")

    def __init__(self) -> None:
        self.items: List[Hashable] = []
        self.keys: List[Any] = []

    def push(self, item: Hashable, key: Any, queued: bool) -> None:
        """Insert ``item`` with ``key``; with ``queued``, ``item`` is
        already in the heap and ``key`` lowers its key."""
        items, keys = self.items, self.keys
        if queued:
            at = items.index(item)
        else:
            at = len(items)
            items.append(item)
            keys.append(key)
        while at > 0:
            up = (at - 1) >> 1
            above = keys[up]
            if above <= key:
                break
            items[at] = items[up]
            keys[at] = above
            at = up
        items[at] = item
        keys[at] = key

    def pop(self) -> Tuple[Hashable, Any]:
        """Remove and return ``(item, key)`` with the smallest key."""
        items, keys = self.items, self.keys
        top, top_key = items[0], keys[0]
        last, key = items.pop(), keys.pop()
        size = len(items)
        if size:
            at = 0
            child = 1
            while child < size:
                child_key = keys[child]
                right = child + 1
                if right < size:
                    right_key = keys[right]
                    if right_key < child_key:
                        child, child_key = right, right_key
                if key <= child_key:
                    break
                items[at] = items[child]
                keys[at] = child_key
                at = child
                child = 2 * at + 1
            items[at] = last
            keys[at] = key
        return top, top_key
