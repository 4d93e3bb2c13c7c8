"""Candidate pool with an extraction budget and exact instrumentation.

One structure serves every enumeration variant: candidates go in with a
sum key and the smallest comes out through :meth:`BoundedPool.extract_min`.
Equal keys come out in insertion order, so results are fully
deterministic.  When only ``m`` more answers can ever be needed,
:meth:`BoundedPool.prune_to` declares that budget: at most ``m`` more
items will be extracted.  The budget may only shrink.

Entries are immutable ``(key, seq, item)`` tuples on one stdlib min heap
(seq is unique, so items are never compared); an extracted entry is
popped and released at once.  Pruning is by count: ``prune_to(m)`` drops
all but ``m`` live entries from the logical size, and every dropped entry
sits behind at least ``m`` live ones in ``(key, seq)`` order, so none can
surface within the budget.  The dropped entries leave the heap in bulk:
once it holds more than ``2m + 64`` entries it is sorted and cut to its
``m`` smallest (a sorted list is a valid heap).  That is C-level work,
O(1) amortised per dropped entry, and keeps the heap within about twice
the budget plus a small slack, so memory follows the live frontier, not
the total insertions.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Optional

__all__ = ["RunMetrics", "BoundedPool"]

# Entries allowed beyond twice the budget before the heap is cut;
# keeps tiny pools from sorting on every prune.
_SLACK = 64


@dataclass(slots=True)
class RunMetrics:
    """Counters for one enumeration run.

    ``total_insertions`` counts every insert ever made, ``peak_size`` the
    largest logical size reached, ``prunes`` the entries a budget dropped,
    and ``elapsed_ns`` the wall time from the first ``next()`` to the end,
    the consumer's time between yields included.  The live size of a pool
    is ``total_insertions - extractions - prunes``.
    """

    total_insertions: int = 0
    peak_size: int = 0
    extractions: int = 0
    prunes: int = 0
    elapsed_ns: int = 0


class BoundedPool:
    """Min-extraction priority pool with a shrinking extraction budget.

    ``metrics`` may be shared with the caller; counters are updated in
    place and count logical entries only.  Instances are single-threaded.
    """

    __slots__ = ("_heap", "_size", "_seq", "_budget", "metrics")

    def __init__(self, metrics: Optional[RunMetrics] = None) -> None:
        self._heap: list = []
        self._size = 0
        self._seq = 0
        self._budget = sys.maxsize  # no budget declared yet
        self.metrics = metrics if metrics is not None else RunMetrics()

    def __len__(self) -> int:
        return self._size

    def insert(self, item: Any, key) -> None:
        """Add an item under a sum key."""
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (key, seq, item))
        size = self._size + 1
        self._size = size
        m = self.metrics
        m.total_insertions += 1
        if size > m.peak_size:
            m.peak_size = size

    def extract_min(self) -> Any:
        """Remove and return the item with the smallest (key, seq)."""
        if self._size == 0:
            raise IndexError("extract_min on an empty pool")
        if self._budget == 0:
            raise IndexError("extract_min past the extraction budget")
        self._budget -= 1
        self._size -= 1
        self.metrics.extractions += 1
        return heappop(self._heap)[2]

    def prune_to(self, m: int) -> None:
        """Declare that at most ``m`` more items will be extracted.

        Drops all but ``m`` live entries, the largest by (key, seq).
        Raises ``ValueError`` when ``m`` is negative or exceeds the budget
        already declared.
        """
        if not 0 <= m <= self._budget:
            raise ValueError(f"budget {m} is negative or above the current {self._budget}")
        self._budget = m
        excess = self._size - m
        if excess > 0:
            self._size = m
            self.metrics.prunes += excess
        heap = self._heap
        if len(heap) > 2 * m + _SLACK:
            heap.sort()
            del heap[m:]
