"""Double-ended candidate pool with exact instrumentation.

One structure serves every enumeration variant: candidates go in with a
sum key, the smallest comes out through :meth:`BoundedPool.extract_min`,
and when only ``m`` more answers can ever be needed the largest entries
are discarded through :meth:`BoundedPool.prune_max`.  Equal keys resolve
by insertion order on the min side and reverse insertion order on the
max side, so results are fully deterministic.

Entries are immutable ``(key, seq, item)`` tuples on a stdlib min heap
(seq is unique, so items are never compared).  The min heap holds exactly
the live entries until the first prune builds the ``(-key, -seq, item)``
max heap from it.  From then on both heaps take pushes, a removal adds its
seq to a shared dead set, and the other heap drops that seq when it
surfaces.  Pruned entries are the largest, so they rarely surface on the
min side; once the dead seqs outnumber twice the live entries (plus a
small slack), both heaps are rebuilt from the live entries alone.  That
costs O(1) amortised per removal and keeps each heap within about three
times the live size, so memory follows the live frontier, not the total
insertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Any, Optional

__all__ = ["RunMetrics", "BoundedPool"]

# Dead seqs allowed beyond twice the live size before the heaps are rebuilt;
# keeps tiny pools from rebuilding on every removal.
_SLACK = 64


@dataclass
class RunMetrics:
    """Counters for one enumeration run.

    ``total_insertions`` counts every insert ever made, ``peak_size`` the
    largest logical size reached, and ``elapsed_ns`` the wall time from the
    first ``next()`` to the end, the consumer's time between yields included.
    The live size of a pool is ``total_insertions - extractions - prunes``.
    """

    total_insertions: int = 0
    peak_size: int = 0
    extractions: int = 0
    prunes: int = 0
    elapsed_ns: int = 0


class BoundedPool:
    """Min-extraction priority pool with max-side pruning.

    ``metrics`` may be shared with the caller; counters are updated in
    place.  When ``log`` is a list, every mutating operation appends a
    ``(op, key, seq)`` record, which the tests replay to confirm the
    counters are exact.  Metrics count logical entries only, never
    tombstone pops.  Instances are single-threaded.
    """

    __slots__ = ("_min", "_max", "_dead", "_size", "_seq", "metrics", "_log")

    def __init__(self, metrics: Optional[RunMetrics] = None,
                 log: Optional[list[tuple[str, Any, int]]] = None) -> None:
        self._min: list = []
        self._max: Optional[list] = None
        self._dead: set = set()
        self._size = 0
        self._seq = 0
        self.metrics = metrics if metrics is not None else RunMetrics()
        self._log = log

    def __len__(self) -> int:
        return self._size

    def insert(self, item: Any, key) -> None:
        """Add an item under a sum key."""
        seq = self._seq
        self._seq = seq + 1
        heappush(self._min, (key, seq, item))
        if self._max is not None:
            heappush(self._max, (-key, -seq, item))
        size = self._size + 1
        self._size = size
        m = self.metrics
        m.total_insertions += 1
        if size > m.peak_size:
            m.peak_size = size
        if self._log is not None:
            self._log.append(("insert", key, seq))

    def extract_min(self) -> Any:
        """Remove and return the item with the smallest (key, seq)."""
        if self._size == 0:
            raise IndexError("extract_min on an empty pool")
        h, dead = self._min, self._dead
        key, seq, item = heappop(h)
        while seq in dead:
            dead.discard(seq)
            key, seq, item = heappop(h)
        self._size -= 1
        if self._max is not None:
            dead.add(seq)
            if len(dead) > 2 * self._size + _SLACK:
                self._drop_dead()
        self.metrics.extractions += 1
        if self._log is not None:
            self._log.append(("extract", key, seq))
        return item

    def prune_max(self) -> Any:
        """Remove and return the item with the largest (key, seq)."""
        if self._size == 0:
            raise IndexError("prune_max on an empty pool")
        h, dead = self._max, self._dead
        if h is None:
            h = self._max = [(-key, -seq, item) for key, seq, item in self._min]
            heapify(h)
        key, seq, item = heappop(h)
        while -seq in dead:
            dead.discard(-seq)
            key, seq, item = heappop(h)
        dead.add(-seq)
        self._size -= 1
        if len(dead) > 2 * self._size + _SLACK:
            self._drop_dead()
        self.metrics.prunes += 1
        if self._log is not None:
            self._log.append(("prune", -key, -seq))
        return item

    def _drop_dead(self) -> None:
        """Rebuild both heaps from their live entries and clear the dead set."""
        dead = self._dead
        self._min = [e for e in self._min if e[1] not in dead]
        self._max = [e for e in self._max if -e[1] not in dead]
        heapify(self._min)
        heapify(self._max)
        dead.clear()
