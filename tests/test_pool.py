"""Double-ended bounded pool: ordering, tie behavior, counters, op log."""

import gc
import random
import weakref

import pytest

from topk_subsets.pool import BoundedPool, RunMetrics


def test_extract_prune_interleave():
    pool = BoundedPool()
    for key, item in [(5, "a"), (1, "b"), (4, "c"), (1, "d"), (3, "e")]:
        pool.insert(item, key)
    assert len(pool) == 5

    assert pool.extract_min() == "b"  # key 1, inserted before d
    assert pool.prune_max() == "a"
    assert pool.extract_min() == "d"
    assert pool.prune_max() == "c"
    assert pool.extract_min() == "e"
    assert len(pool) == 0

    m = pool.metrics
    assert (m.total_insertions, m.extractions, m.prunes, m.peak_size) == (5, 3, 2, 5)


def test_empty_raises():
    pool = BoundedPool()
    with pytest.raises(IndexError):
        pool.extract_min()
    with pytest.raises(IndexError):
        pool.prune_max()
    pool.insert("x", 1)
    pool.extract_min()
    with pytest.raises(IndexError):
        pool.prune_max()


def test_equal_keys_prune_takes_latest():
    # min side prefers the oldest among equal keys, max side the newest
    pool = BoundedPool()
    pool.insert("first", 7)
    pool.insert("second", 7)
    pool.insert("third", 7)
    assert pool.prune_max() == "third"
    assert pool.extract_min() == "first"
    assert pool.prune_max() == "second"


def test_peak_tracks_logical_size():
    pool = BoundedPool()
    for key in (1, 2, 3):
        pool.insert(key, key)
    pool.extract_min()
    pool.insert(4, 4)  # back to 3, peak unchanged
    assert pool.metrics.peak_size == 3
    pool.insert(5, 5)
    assert pool.metrics.peak_size == 4


def test_metrics_object_can_be_shared():
    m = RunMetrics()
    pool = BoundedPool(m)
    pool.insert("x", 1)
    assert m.total_insertions == 1
    assert pool.metrics is m


def test_op_log_replay():
    log = []
    pool = BoundedPool(log=log)
    pool.insert("a", 2)
    pool.insert("b", 1)
    pool.extract_min()
    pool.prune_max()
    assert log == [
        ("insert", 2, 0),
        ("insert", 1, 1),
        ("extract", 1, 1),
        ("prune", 2, 0),
    ]


def test_differential_against_sorted_model():
    """Random op soup against a brutally simple model of the same contract."""
    rng = random.Random(0xC0FFEE)
    pool = BoundedPool()
    model = []  # list of (key, seq) kept unsorted on purpose
    seq = 0
    for _ in range(4000):
        op = rng.random()
        if op < 0.5 or not model:
            key = rng.randrange(50)
            pool.insert((key, seq), key)
            model.append((key, seq))
            seq += 1
        elif op < 0.8:
            want = min(model)
            model.remove(want)
            assert pool.extract_min() == want
        else:
            want = max(model)
            model.remove(want)
            assert pool.prune_max() == want
        assert len(pool) == len(model)

    m = pool.metrics
    assert len(pool) == m.total_insertions - m.extractions - m.prunes
    assert m.peak_size <= m.total_insertions

    while model:
        assert pool.extract_min() == min(model)
        model.remove(min(model))
    assert len(pool) == 0


def test_differential_with_late_first_prune():
    """Ties and extractions pile up before the max side exists, then ops mix."""
    rng = random.Random(0xBEEF)
    log = []
    pool = BoundedPool(log=log)
    model = []  # (key, seq)
    want_log = []
    seq = 0

    def insert():
        nonlocal seq
        key = rng.randrange(8)  # few keys: many ties
        pool.insert((key, seq), key)
        model.append((key, seq))
        want_log.append(("insert", key, seq))
        seq += 1

    def remove(op, pick):
        want = pick(model)
        model.remove(want)
        got = pool.extract_min() if op == "extract" else pool.prune_max()
        assert got == want
        want_log.append((op, *want))

    for _ in range(600):
        if rng.random() < 0.6 or not model:
            insert()
        else:
            remove("extract", min)
    assert pool.metrics.prunes == 0 and pool.metrics.extractions > 100
    for _ in range(3000):
        op = rng.random()
        if op < 0.45 or not model:
            insert()
        elif op < 0.75:
            remove("extract", min)
        else:
            remove("prune", max)
        assert len(pool) == len(model)
    while model:
        remove(*rng.choice((("extract", min), ("prune", max))))
    assert log == want_log
    m = pool.metrics
    assert len(pool) == 0 == m.total_insertions - m.extractions - m.prunes


class _Node:
    __slots__ = ("key", "__weakref__")

    def __init__(self, key):
        self.key = key


def test_extracted_items_are_released():
    """The enumerators' own sequence keeps at most peak_size extracted items alive."""
    rng = random.Random(7)
    k = 3000
    pool = BoundedPool()
    pool.insert(_Node(0), 0)
    extracted = []
    for q in range(1, k + 1):
        node = pool.extract_min()
        extracted.append(weakref.ref(node))
        if q < k:
            for _ in range(rng.choice((1, 2, 2))):
                key = node.key + rng.randrange(4)
                pool.insert(_Node(key), key)
            while len(pool) > k - q:
                pool.prune_max()
    del node
    gc.collect()
    m = pool.metrics
    assert m.prunes > 0 and m.extractions == k
    alive = sum(ref() is not None for ref in extracted)
    assert alive <= m.peak_size < k // 2


def test_pruned_items_are_released():
    """Under heavy pruning the heaps follow the live size, not the insertions."""
    rng = random.Random(11)
    k = 400
    pool = BoundedPool()
    pool.insert(_Node(0), 0)
    inserted = []
    for q in range(1, k):
        node = pool.extract_min()
        for _ in range(20):
            key = node.key + rng.randrange(1, 50)
            child = _Node(key)
            inserted.append(weakref.ref(child))
            pool.insert(child, key)
        while len(pool) > k - q:
            pool.prune_max()
        if q % 50 == 0:
            del node, child
            gc.collect()
            alive = sum(ref() is not None for ref in inserted)
            # each heap holds the live entries plus fewer than 2 * live + 64 dead ones
            assert alive <= 3 * len(pool) + 65
    assert pool.metrics.prunes > 15 * k
