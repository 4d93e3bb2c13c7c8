"""Budget pool: ordering, ties, budget contract, memory.

``ReferencePool`` is the double-heap pool that ``BoundedPool`` replaced, kept
as the reference the enumerator differential compares against: the walk over
``BoundedPool`` must emit the same records, and keep the same counters as the
reference counts for itself.
"""

import gc
import random
import tracemalloc
import weakref
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Optional
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topk_subsets import enumerators
from topk_subsets.core import InputSet
from topk_subsets.enumerators import RunMetrics, Variant, topk
from topk_subsets.pool import BoundedPool

# -- the reference --------------------------------------------------------------

# Dead seqs allowed beyond twice the live size before the heaps are rebuilt;
# keeps tiny pools from rebuilding on every removal.
_SLACK = 64


class ReferencePool:
    """The double-heap pool before the budget contract, kept verbatim but for its name.

    Min-extraction priority pool with max-side pruning.

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


class BudgetAdapter(ReferencePool):
    """The budget interface over the reference: prune_to pops the largest until len <= m."""

    def prune_to(self, m: int) -> None:
        while len(self) > m:
            self.prune_max()


# -- enumerators on both pools ----------------------------------------------------

# tie-heavy value lists: all zeros, one repeated value, few distinct values
_TIED_VALUES = st.one_of(
    st.lists(st.just(0), min_size=1, max_size=9),
    st.integers(0, 5).flatmap(lambda v: st.lists(st.just(v), min_size=1, max_size=9)),
    st.lists(st.integers(0, 3), min_size=1, max_size=9),
)


def _counters(m):
    return (m.total_insertions, m.peak_size, m.extractions, m.prunes)


def _assert_matches_reference(vals, k):
    """Each record, with the walk's live counters, against the reference pool's own."""
    pools = []

    class Recorded(BudgetAdapter):
        def __init__(self):
            super().__init__()
            pools.append(self)

    r = InputSet.from_values(sorted(vals))
    for variant in Variant:
        stream, walk = topk(r, k, variant)
        got = [(item, _counters(walk)) for item in stream]
        with mock.patch.object(enumerators, "BoundedPool", Recorded):
            stream, _ = topk(r, k, variant)
            want = [(item, _counters(pools[-1].metrics)) for item in stream]
        assert got == want, variant


@given(_TIED_VALUES.flatmap(
    lambda vals: st.tuples(st.just(vals), st.integers(1, 2 ** len(vals) + 3))))
def test_enumerators_match_the_reference_pool(case):
    _assert_matches_reference(*case)


# wider runs whose heaps are cut tens of times
@pytest.mark.parametrize("vals, k", [
    ([0] * 13, 5000),
    ([v % 4 for v in range(16)], 4000),
    (list(range(1, 41)), 3000),
    ([2 ** i for i in range(40)], 3000),  # every sum distinct: no key ever ties
])
def test_enumerators_match_the_reference_pool_through_many_cuts(vals, k):
    _assert_matches_reference(vals, k)


# -- the budget contract ------------------------------------------------------------


def test_extract_prune_interleave():
    pool = BoundedPool()
    for key, item in [(5, "a"), (1, "b"), (4, "c"), (1, "d"), (3, "e")]:
        pool.insert(item, key)
    assert len(pool) == 5

    assert pool.extract_min() == "b"  # key 1, inserted before d
    pool.prune_to(3)  # drops a
    assert len(pool) == 3
    assert pool.extract_min() == "d"
    pool.prune_to(1)  # drops c
    assert len(pool) == 1
    assert pool.extract_min() == "e"
    assert len(pool) == 0


def test_empty_raises():
    pool = BoundedPool()
    with pytest.raises(IndexError, match="empty"):
        pool.extract_min()
    pool.insert("x", 1)
    pool.extract_min()
    with pytest.raises(IndexError, match="empty"):
        pool.extract_min()
    pool.insert("y", 1)
    pool.prune_to(0)
    with pytest.raises(IndexError, match="empty"):
        pool.extract_min()


def test_equal_keys_extract_in_insertion_order():
    pool = BoundedPool()
    for item in ("first", "second", "third"):
        pool.insert(item, 7)
    assert [pool.extract_min() for _ in range(3)] == ["first", "second", "third"]


def test_equal_keys_prune_takes_latest():
    # extraction prefers the oldest among equal keys, pruning drops the newest
    pool = BoundedPool()
    pool.insert("first", 7)
    pool.insert("second", 7)
    pool.insert("low", 1)
    pool.insert("third", 7)
    pool.prune_to(2)
    assert len(pool) == 2
    assert [pool.extract_min(), pool.extract_min()] == ["low", "first"]
    assert len(pool) == 0


def test_extract_past_the_budget_raises():
    pool = BoundedPool()
    for key in range(5):
        pool.insert(key, key)
    pool.prune_to(5)  # nothing to drop, but two extractions at most
    pool.prune_to(2)
    assert [pool.extract_min(), pool.extract_min()] == [0, 1]
    pool.insert(9, 9)
    with pytest.raises(IndexError, match="budget"):
        pool.extract_min()


def test_raising_the_budget_raises():
    pool = BoundedPool()
    for key in range(4):
        pool.insert(key, key)
    pool.prune_to(3)
    pool.extract_min()
    with pytest.raises(ValueError):
        pool.prune_to(3)  # two extractions left
    with pytest.raises(ValueError):
        pool.prune_to(-1)
    pool.prune_to(2)
    assert len(pool) == 2
    assert [pool.extract_min(), pool.extract_min()] == [1, 2]


def test_peak_tracks_logical_size():
    # the walk reads its peak off len(), which must not count dropped entries
    pool = BoundedPool()
    for key in (1, 2, 3):
        pool.insert(key, key)
    pool.extract_min()
    pool.insert(4, 4)
    assert len(pool) == 3
    pool.insert(5, 5)
    assert len(pool) == 4
    pool.prune_to(1)
    assert len(pool) == 1
    for key in (6, 7, 8):
        pool.insert(key, key)  # dropped entries are still stored but do not count
    assert len(pool) == 4
    pool.insert(9, 9)
    assert len(pool) == 5


def _soup(rng, pool, steps, insert_p, keys):
    """Random inserts, extractions and budget cuts against a sorted-list model."""
    model = []  # live (key, seq), kept unsorted on purpose
    budget = None
    seq = 0
    for _ in range(steps):
        op = rng.random()
        if op < insert_p or not model:
            key = rng.randrange(keys)
            pool.insert((key, seq), key)
            model.append((key, seq))
            seq += 1
        elif op < insert_p + (1 - insert_p) * 0.85 and budget != 0:
            want = min(model)
            model.remove(want)
            assert pool.extract_min() == want
            if budget is not None:
                budget -= 1
        else:
            m = rng.randrange(min(len(model), budget if budget is not None else len(model)) + 1)
            pool.prune_to(m)
            model = sorted(model)[:m]
            budget = m
        assert len(pool) == len(model)
    return model, budget


def test_differential_against_sorted_model():
    """Random op soup against a brutally simple model of the same contract."""
    rng = random.Random(0xC0FFEE)
    pool = BoundedPool()
    for _ in range(20):
        model, budget = _soup(rng, pool, 400, 0.55, 50)
        while model and budget:
            want = min(model)
            model.remove(want)
            assert pool.extract_min() == want
            budget -= 1
        if model:
            with pytest.raises(IndexError, match="budget"):
                pool.extract_min()
        pool = BoundedPool()


def test_differential_with_late_first_prune():
    """Ties and extractions pile up before the first budget, then ops mix."""
    rng = random.Random(0xBEEF)
    pool = BoundedPool()
    model = []
    seq = extracted = 0
    for _ in range(600):
        if rng.random() < 0.6 or not model:
            key = rng.randrange(8)  # few keys: many ties
            pool.insert((key, seq), key)
            model.append((key, seq))
            seq += 1
        else:
            want = min(model)
            model.remove(want)
            assert pool.extract_min() == want
            extracted += 1
    assert extracted > 100
    # continue on the same pool: its seqs are past those the model used
    budget = len(model) // 2
    pool.prune_to(budget)
    pruned = len(model) - budget
    model = sorted(model)[:budget]
    for _ in range(3000):
        if rng.random() < 0.5:
            key = rng.randrange(8)
            pool.insert((key, seq), key)
            model.append((key, seq))
            seq += 1
        elif budget and model:
            want = min(model)
            model.remove(want)
            assert pool.extract_min() == want
            budget -= 1
        else:
            budget = rng.randrange(budget + 1) if budget else 0
            pool.prune_to(budget)
            pruned += max(0, len(model) - budget)
            model = sorted(model)[:budget]
        assert len(pool) == len(model)
    assert pruned > 0


class _Node:
    __slots__ = ("key", "__weakref__")

    def __init__(self, key):
        self.key = key


def test_extracted_items_are_released():
    """An extracted item is referenced by nobody but the caller, also after a prune."""
    pool = BoundedPool()
    for key in range(300):
        pool.insert(_Node(key), key)
    pool.prune_to(200)
    for _ in range(200):
        ref = weakref.ref(pool.extract_min())
        assert ref() is None


def test_pruned_items_are_released():
    """Under heavy pruning the heap follows the budget, not the insertions."""
    rng = random.Random(11)
    k = 400
    pool = BoundedPool()
    pool.insert(_Node(0), 0)
    inserted = []
    pruned = 0
    for q in range(1, k):
        node = pool.extract_min()
        for _ in range(20):
            key = node.key + rng.randrange(1, 50)
            child = _Node(key)
            inserted.append(weakref.ref(child))
            pool.insert(child, key)
        if len(pool) > k - q:
            pruned += len(pool) - (k - q)
            pool.prune_to(k - q)
            assert len(pool) == k - q
        if q % 50 == 0:
            del node, child
            gc.collect()
            alive = sum(ref() is not None for ref in inserted)
            # the live entries plus at most live + 64 dropped ones
            assert alive <= 2 * len(pool) + 65
    assert pruned > 15 * k


# -- the bucket layout -------------------------------------------------------------


def test_smaller_key_arrives_while_a_tie_bucket_drains():
    pool = BoundedPool()
    for item in ("a", "b", "c", "d"):
        pool.insert(item, 5)
    assert [pool.extract_min(), pool.extract_min()] == ["a", "b"]
    pool.insert("low", 2)
    pool.insert("e", 5)
    assert [pool.extract_min() for _ in range(4)] == ["low", "c", "d", "e"]
    assert len(pool) == 0


def test_a_cut_inside_a_tie_bucket_keeps_its_oldest_items():
    pool = BoundedPool()
    pool.insert(_Node(1), 1)
    tied = [_Node(5) for _ in range(100)]
    for node in tied:
        pool.insert(node, 5)
    refs = [weakref.ref(node) for node in tied]
    del tied, node
    pool.prune_to(10)  # 101 stored > 2 * 10 + 64: cut after the ninth tied item
    gc.collect()
    assert [ref() is not None for ref in refs] == [True] * 9 + [False] * 91
    pool.insert(_Node(5), 5)  # queues behind the kept ones
    pool.insert(_Node(0), 0)
    got = [pool.extract_min() for _ in range(10)]
    assert [node.key for node in got] == [0, 1] + [5] * 8
    assert got[2:] == [ref() for ref in refs[:8]]


def test_a_lone_item_is_promoted_then_drained_to_nothing():
    # a caller's deque is an item like any other, never taken for a bucket
    first, second = deque([1]), deque([2])
    pool = BoundedPool()
    pool.insert(first, 3)
    pool.insert(second, 3)
    assert pool.extract_min() is first
    assert pool.extract_min() is second
    with pytest.raises(IndexError, match="empty"):
        pool.extract_min()
    pool.insert("again", 3)
    pool.insert("lower", 2)
    assert [pool.extract_min(), pool.extract_min()] == ["lower", "again"]
    assert len(pool) == 0


def _stored_bytes(pool_class, keys):
    gc.collect()
    tracemalloc.start()
    try:
        pool = pool_class()
        for key in keys:
            pool.insert(key, key)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_distinct_keys_cost_no_more_than_the_reference_heap():
    keys = random.Random(7).sample(range(10 ** 9, 2 * 10 ** 9), 10 ** 4)
    ours, reference = _stored_bytes(BoundedPool, keys), _stored_bytes(BudgetAdapter, keys)
    assert ours / len(keys) <= reference / len(keys)
