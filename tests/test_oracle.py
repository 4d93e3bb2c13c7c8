"""Brute-force reference checked against a second, combinatorial brute force."""

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topk_subsets.core import InputSet
from topk_subsets.oracle import all_subsets_sorted, topk_oracle


def _combi_reference(r: InputSet):
    """Same answer computed with itertools instead of the subset-sum DP."""
    out = []
    idx = range(1, r.n + 1)
    for size in idx:
        for combo in itertools.combinations(idx, size):
            out.append((sum(r.values[p - 1] for p in combo), combo))
    out.sort()
    return out


FULL_1234 = [
    (1, (1,)),
    (2, (2,)),
    (3, (1, 2)),
    (3, (3,)),
    (4, (1, 3)),
    (4, (4,)),
    (5, (1, 4)),
    (5, (2, 3)),
    (6, (1, 2, 3)),
    (6, (2, 4)),
    (7, (1, 2, 4)),
    (7, (3, 4)),
    (8, (1, 3, 4)),
    (9, (2, 3, 4)),
    (10, (1, 2, 3, 4)),
]


def test_full_order_frozen():
    r = InputSet.from_values((1, 2, 3, 4))
    assert all_subsets_sorted(r) == FULL_1234


def test_topk_prefix():
    r = InputSet.from_values((3, 7, 12, 14))
    assert topk_oracle(r, 3) == [(3, (1,)), (7, (2,)), (10, (1, 2))]


def test_topk_truncates_at_subset_count():
    r = InputSet.from_values((1, 2, 3, 4))
    assert topk_oracle(r, 10**9) == FULL_1234


def test_k_must_be_positive():
    r = InputSet.from_values((1, 2))
    with pytest.raises(ValueError):
        topk_oracle(r, 0)


def test_width_cap():
    r = InputSet.from_values(range(1, 26))  # 2**25 - 1 subsets is past the cap
    with pytest.raises(ValueError):
        all_subsets_sorted(r)


def test_zeros_and_ties():
    r = InputSet.from_values((0, 0, 1))
    rows = all_subsets_sorted(r)
    assert [s for s, _ in rows] == [0, 0, 0, 1, 1, 1, 1]
    assert len({p for _, p in rows}) == 7


@given(st.lists(st.integers(0, 20), min_size=1, max_size=8))
def test_matches_combinatorial_reference(values):
    r = InputSet.from_values(values)
    rows = all_subsets_sorted(r)
    assert rows == _combi_reference(r)
    assert len(rows) == 2**r.n - 1
    assert all(a[0] <= b[0] for a, b in zip(rows, rows[1:]))


def fraction_reference(r: InputSet):
    """Exact sums as Fractions, sorted with ties broken by positions."""
    idx = range(1, r.n + 1)
    out = [
        (sum(Fraction(r.values[p - 1]) for p in combo), combo)
        for size in idx
        for combo in itertools.combinations(idx, size)
    ]
    out.sort()
    return out


def exact_float(total: Fraction) -> float:
    """The float nearest total, or inf past the float range."""
    try:
        return float(total)
    except OverflowError:
        return math.inf


def _assert_exact(r: InputSet):
    rows = all_subsets_sorted(r)
    want = fraction_reference(r)
    assert [p for _, p in rows] == [p for _, p in want]
    assert [s for s, _ in rows] == [exact_float(s) for s, _ in want]
    assert all(type(s) is float for s, _ in rows)


def test_float_mode_is_exact():
    # plain float addition misorders 12 of these 31 ranks
    _assert_exact(InputSet.from_values((6, 9e16, 8e-8, 1e-8, 2e-8), mode="float"))


def test_float_totals_past_the_float_range_are_inf():
    rows = all_subsets_sorted(InputSet.from_values((1e308, 1e308), mode="float"))
    assert rows == [(1e308, (1,)), (1e308, (2,)), (math.inf, (1, 2))]


@given(st.lists(st.floats(0, sys.float_info.max), min_size=1, max_size=6))
def test_float_mode_matches_fraction_reference(values):
    _assert_exact(InputSet.from_values(values, mode="float"))
