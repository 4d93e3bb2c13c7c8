"""The three enumeration strategies against the oracle and each other."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_oracle import exact_float, fraction_reference

import topk_subsets.enumerators as enumerators
from topk_subsets.core import InputSet, expand_deltas
from topk_subsets.enumerators import Variant, topk
from topk_subsets.oracle import topk_oracle

R1234 = InputSet.from_values((1, 2, 3, 4))
ALL_VARIANTS = list(Variant)


def drain(r, k, variant):
    stream, metrics = topk(r, k, variant)
    return list(stream), metrics


def baseline_children(s: tuple, n: int) -> list:
    """The positions of baseline's successors of s over the values 1..n."""
    r = InputSet(tuple(range(1, n + 1)))
    kids = enumerators._baseline_successors((sum(s), s), r, 1)
    assert all(total == sum(p) for total, p in kids)
    return [p for _, p in kids]


class TestBaselineChildren:
    def test_both_rules(self):
        assert baseline_children((1, 2), 4) == [(1, 3), (1, 2, 3)]
        assert baseline_children((3,), 4) == [(4,), (3, 4)]

    def test_max_at_end_is_leaf(self):
        assert baseline_children((2, 4), 4) == []
        assert baseline_children((4,), 4) == []


class TestFrozenSequences:
    def test_bitvec_order(self):
        rows, _ = drain(R1234, 5, "bitvec")
        assert [(it.rank, it.total, it.positions) for it in rows] == [
            (1, 1, (1,)),
            (2, 2, (2,)),
            (3, 3, (3,)),
            (4, 3, (1, 2)),
            (5, 4, (4,)),
        ]

    def test_baseline_tie_order(self):
        rows, _ = drain(R1234, 15, "baseline")
        assert [(it.total, it.positions) for it in rows] == [
            (1, (1,)),
            (2, (2,)),
            (3, (1, 2)),
            (3, (3,)),
            (4, (1, 3)),
            (4, (4,)),
            (5, (2, 3)),
            (5, (1, 4)),
            (6, (1, 2, 3)),
            (6, (2, 4)),
            (7, (3, 4)),
            (7, (1, 2, 4)),
            (8, (1, 3, 4)),
            (9, (2, 3, 4)),
            (10, (1, 2, 3, 4)),
        ]

    def test_compact_delta_stream(self):
        rows, _ = drain(R1234, 5, "compact")
        assert all(it.positions is None for it in rows)
        assert [
            (it.rank, it.total, it.delta.parent_rank, it.delta.removed, it.delta.added)
            for it in rows
        ] == [
            (1, 1, None, None, 1),
            (2, 2, 1, 1, 2),
            (3, 3, 2, 2, 3),
            (4, 3, 2, None, 1),
            (5, 4, 3, 3, 4),
        ]

    def test_another_instance(self):
        r = InputSet.from_values((3, 7, 12, 14))
        for variant in ALL_VARIANTS:
            rows, _ = drain(r, 3, variant)
            assert [it.total for it in rows] == [3, 7, 10]

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
    def test_sums_match_oracle(self, variant):
        rows, _ = drain(R1234, 15, variant)
        assert [it.total for it in rows] == [s for s, _ in topk_oracle(R1234, 15)]


class TestPowerOfTwoBijection:
    """With values 1,2,4,8 the q-th subset reads off the bits of q."""

    R = InputSet.from_values((1, 2, 4, 8))

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
    def test_rank_encodes_subset(self, variant):
        stream, _ = topk(self.R, 15, variant)
        if variant is Variant.ONDEMAND_COMPACT:
            stream = expand_deltas(stream)
        for it in stream:
            want = tuple(p for p in range(1, 5) if it.rank & (1 << (p - 1)))
            assert it.positions == want
            assert it.total == it.rank


class TestCounters:
    R30 = InputSet.from_values(range(1, 31))

    def test_baseline_exact_when_no_leaf_extracted(self):
        # top 100 subsets of 1..30 never touch position 30, so every
        # extraction inserts both children: 2k+1 total, k+1 peak
        rows, m = drain(self.R30, 100, "baseline")
        assert max(it.positions[-1] for it in rows) < 30
        assert m.total_insertions == 2 * 100 + 1
        assert m.peak_size == 100 + 1
        assert m.prunes == 0

    def test_baseline_small_n_leaves(self):
        # at n=2 leaf extractions do occur and the counts fall short
        rows, m = drain(InputSet.from_values((1, 2)), 3, "baseline")
        assert len(rows) == 3
        assert (m.total_insertions, m.peak_size) == (3, 2)

    def test_ondemand_insertion_band(self):
        for variant in ("bitvec", "compact"):
            _, m = drain(self.R30, 100, variant)
            assert 100 <= m.total_insertions <= 2 * 100 - 1
            assert m.peak_size <= 100 + 1

    def test_bitvec_and_compact_counters_identical(self):
        # same DAG, same pruning schedule: the pools move in lockstep
        _, mb = drain(self.R30, 100, "bitvec")
        _, mc = drain(self.R30, 100, "compact")
        assert (mb.total_insertions, mb.peak_size, mb.prunes) == (
            mc.total_insertions,
            mc.peak_size,
            mc.prunes,
        )

    @pytest.mark.parametrize("variant", ["bitvec", "compact"])
    def test_pool_pruned_to_answers_owed(self, variant):
        # after the q-th result the live pool holds at most the k - q answers still owed
        stream, m = topk(self.R30, 100, variant)
        for it in stream:
            assert m.total_insertions - m.extractions - m.prunes <= 100 - it.rank

    @pytest.mark.parametrize("mode", ["int", "float"])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("values", [range(1, 31), [0] * 9, [v % 3 for v in range(12)]],
                             ids=["distinct", "zeros", "ties"])
    def test_counters_follow_the_pool_operations(self, monkeypatch, variant, values, mode):
        # what the walk asks of the real pool, counted at the pool: inserts,
        # largest len() after an insert, extractions, live entries a budget drops;
        # small k puts budget cuts in the steps that reach the peak.  Every key is
        # the node's exact int total at node[0], in float mode too
        ops = []

        class Spy(enumerators.BoundedPool):
            __slots__ = ()

            def insert(self, item, key):
                assert type(key) is int and key == item[0]
                super().insert(item, key)
                ops[0] += 1
                ops[1] = max(ops[1], len(self))

            def extract_min(self):
                ops[2] += 1
                return super().extract_min()

            def prune_to(self, m):
                ops[3] += max(0, len(self) - m)
                super().prune_to(m)

        monkeypatch.setattr(enumerators, "BoundedPool", Spy)
        r = InputSet.from_values(values, mode)
        for k in (*range(1, 41), 100):
            ops[:] = [0, 0, 0, 0]
            stream, m = topk(r, k, variant)
            for _ in stream:
                assert [m.total_insertions, m.peak_size, m.extractions, m.prunes] == ops
            assert m.extractions == k

    def test_extractions_count_reported_rows(self):
        for variant in ALL_VARIANTS:
            rows, m = drain(self.R30, 37, variant)
            assert m.extractions == len(rows) == 37


class TestStreamingBehavior:
    def test_lazy_until_pulled(self):
        r = InputSet.from_values([2**i for i in range(20)])
        stream, m = topk(r, 50, "compact")
        assert m.extractions == 0
        for i in range(1, 4):
            next(stream)
            assert m.extractions == i
        stream.close()
        assert m.elapsed_ns > 0

    def test_truncation(self):
        rows, m = drain(InputSet.from_values((1, 2, 3)), 100, "compact")
        assert len(rows) == 7
        assert m.extractions == 7

    def test_k_must_be_positive(self):
        for variant in ALL_VARIANTS:
            with pytest.raises(ValueError):
                topk(R1234, 0, variant)

    def test_variant_slugs(self):
        # one variant per algorithm of the paper: its two walks and the prior work
        assert [v.value for v in Variant] == ["baseline", "bitvec", "compact"]
        assert topk(R1234, 1, Variant.BASELINE)[0] is not None
        rows, _ = drain(R1234, 1, "baseline")
        assert rows[0].total == 1
        for slug in ("dedup", "quantum"):
            with pytest.raises(ValueError):
                topk(R1234, 1, slug)


class TestCompactExpansion:
    def test_expansion_equals_bitvec(self):
        r = InputSet.from_values((2, 3, 5, 7, 11, 13))
        bit_rows, _ = drain(r, 40, "bitvec")
        stream, _ = topk(r, 40, "compact")
        compact_rows = list(expand_deltas(stream))
        assert [(it.total, it.positions) for it in compact_rows] == [
            (it.total, it.positions) for it in bit_rows
        ]


@given(
    st.lists(st.integers(0, 8), min_size=1, max_size=9),
    st.integers(1, 40),
)
def test_all_variants_match_oracle(values, k):
    r = InputSet.from_values(values)
    want = [s for s, _ in topk_oracle(r, k)]
    for variant in ALL_VARIANTS:
        rows, m = drain(r, k, variant)
        assert [it.total for it in rows] == want, variant
        assert m.extractions == len(want)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=8))
def test_bitvec_compact_same_dag_order(values):
    r = InputSet.from_values(values)
    k = 2**r.n - 1
    bit_rows, mb = drain(r, k, "bitvec")
    stream, mc = topk(r, k, "compact")
    assert [it.positions for it in expand_deltas(stream)] == [
        it.positions for it in bit_rows
    ]
    assert mb.total_insertions == mc.total_insertions
    assert mb.peak_size == mc.peak_size


@pytest.mark.parametrize("k", [1, 2, 40, 63, 200])
def test_each_rule_is_called_once_per_expanded_extraction(monkeypatch, k):
    # perfbench's per-layer spans wrap these two module globals of enumerators
    calls = {"final_dag_children": 0, "compact_children": 0}

    def counting(name):
        rule = getattr(enumerators, name)

        def call(node, r, parent_rank):
            calls[name] += 1
            out = rule(node, r, parent_rank)
            assert type(out) is list
            return out

        return call

    for name in calls:
        monkeypatch.setattr(enumerators, name, counting(name))
    r = InputSet.from_values((2, 3, 5, 7, 11, 13))
    for variant, rule in (("bitvec", "final_dag_children"), ("compact", "compact_children")):
        calls.update(dict.fromkeys(calls, 0))
        rows, m = drain(r, k, variant)
        assert len(rows) == m.extractions == min(k, 63)
        assert calls == {**dict.fromkeys(calls, 0), rule: m.extractions - 1}


def test_compact_float_mode_matches_exact_oracle():
    r = InputSet.from_values((6, 9e16, 8e-8, 1e-8, 2e-8), mode="float")
    rows, _ = drain(r, 31, "compact")
    assert [it.total for it in rows] == [s for s, _ in topk_oracle(r, 31)]


_FLOATS = st.one_of(st.floats(0, 1e-300), st.floats(0, 1e3), st.floats(0, sys.float_info.max))


@given(st.lists(_FLOATS, min_size=1, max_size=6), st.integers(1, 63))
def test_float_mode_matches_fraction_brute_force(values, k):
    """Every variant's totals are the exact sums rounded once, in order, as floats."""
    r = InputSet.from_values(values, mode="float")
    want = [exact_float(total) for total, _ in fraction_reference(r)[:k]]
    for variant in ALL_VARIANTS:
        rows, _ = drain(r, k, variant)
        if variant is Variant.ONDEMAND_COMPACT:
            rows = list(expand_deltas(rows))
        assert [it.total for it in rows] == want, variant
        assert all(type(it.total) is float for it in rows), variant
        for it in rows:
            assert it.total == exact_float(sum(Fraction(r.values[p - 1]) for p in it.positions))


def test_closing_a_float_stream_ends_the_walk():
    stream, metrics = topk(InputSet.from_values((0.5, 0.25, 2.0), mode="float"), 7)
    assert next(stream).total == 0.25
    stream.close()
    assert metrics.elapsed_ns > 0 and metrics.extractions == 1
