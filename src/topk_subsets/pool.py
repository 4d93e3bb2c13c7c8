"""Candidate pool with an extraction budget.

Candidates go in with a sum key; :meth:`BoundedPool.extract_min` returns
the smallest, equal keys in insertion order, so results are deterministic.
:meth:`BoundedPool.prune_to` declares that at most ``m`` more items will
be extracted; the budget may only shrink.  The pool is a bucket queue
(Dial, 1969): a min heap of the distinct keys and a dict from each key to
its item, or to a private deque of its tied items, so ties cost a dict
lookup and no heap comparison.  ``prune_to(m)`` drops all but ``m`` live
entries from the logical size, each behind at least ``m`` live ones.
Once more than ``2m + 64`` entries are stored, the buckets are cut after
the ``m``-th in key order: O(1) amortised per dropped entry, and memory
within about twice the budget.  A bare entry costs a dict and a heap
slot, less than a heap tuple; only tied keys pay for a deque (760 bytes).
"""

from __future__ import annotations

import sys
from collections import deque
from heapq import heappop, heappush
from itertools import islice
from typing import Any

__all__ = ["BoundedPool"]

# Entries allowed beyond twice the budget before the store is cut;
# keeps tiny pools from sorting on every prune.
_SLACK = 64


class _Bucket(deque):  # the tied items of one key, oldest first
    __slots__ = ()


class BoundedPool:
    """Min-extraction priority pool with a shrinking extraction budget.

    ``len()`` counts live entries only.  Keys are hashable and equal keys
    tie.  Instances are single-threaded.
    """

    __slots__ = ("_keys", "_buckets", "_size", "_dropped", "_budget")

    def __init__(self) -> None:
        self._keys: list = []
        self._buckets: dict = {}
        self._size = 0
        self._dropped = 0  # pruned entries still stored
        self._budget = sys.maxsize  # no budget declared yet

    def __len__(self) -> int:
        return self._size

    def insert(self, item: Any, key) -> None:
        """Add an item under a sum key."""
        buckets = self._buckets
        if key not in buckets:
            buckets[key] = item
            heappush(self._keys, key)
        elif type(held := buckets[key]) is _Bucket:
            held.append(item)
        else:
            buckets[key] = _Bucket((held, item))
        self._size += 1

    def extract_min(self) -> Any:
        """Remove and return the oldest item of the smallest key."""
        if self._size == 0:
            raise IndexError("extract_min on an empty pool")
        if self._budget == 0:
            raise IndexError("extract_min past the extraction budget")
        self._budget -= 1
        self._size -= 1
        keys, buckets = self._keys, self._buckets
        held = buckets[keys[0]]
        if type(held) is not _Bucket:
            del buckets[heappop(keys)]
            return held
        if len(held) == 1:
            del buckets[heappop(keys)]
        return held.popleft()

    def prune_to(self, m: int) -> None:
        """Declare that at most ``m`` more items will be extracted.

        Drops all but ``m`` live entries, the latest in (key, insertion)
        order.  Raises ``ValueError`` when ``m`` is negative or exceeds
        the budget already declared.
        """
        if not 0 <= m <= self._budget:
            raise ValueError(f"budget {m} is negative or above the current {self._budget}")
        self._budget = m
        excess = self._size - m
        if excess > 0:
            self._size = m
            self._dropped += excess
        if self._size + self._dropped > 2 * m + _SLACK:
            # keep the m smallest stored entries in (key, insertion) order
            keys, buckets = self._keys, self._buckets
            keys.sort()  # a sorted list is a valid heap
            kept = i = 0
            while kept < m:
                held = buckets[keys[i]]
                kept += len(held) if type(held) is _Bucket else 1
                i += 1
            del keys[i:]
            # a fresh dict, since a dict never shrinks its table on deletion
            self._buckets = dict(zip(keys, map(buckets.__getitem__, keys)))
            if kept > m:  # the bucket where m falls keeps its oldest items
                held = buckets[keys[-1]]
                self._buckets[keys[-1]] = _Bucket(islice(held, len(held) + m - kept))
            self._dropped = m - self._size
