"""Shift predicates, their generator counterparts, and the final-DAG rules.

The predicates define edges declaratively.  The mandatory static
generator is the package's; the three incremental relations (every one
shift, the mandatory form and the paper's modified form) live here,
because only the checks below use them.  Equivalence between predicates
and generators is checked exhaustively for every subset pair up to n=8,
as is each relation's reach: with the mandatory static edges it covers
every subset from {1}.  Then the bit-level rules are checked against the
position-level generators, and the whole DAG against its own report.
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import topk_subsets.shifts as shifts
from topk_subsets.core import InputSet, SubsetPositions
from topk_subsets.shifts import (
    _cursors,
    bit_root,
    compact_children,
    compact_root,
    final_dag_children,
    final_dag_report,
    mandatory_static_children,
    positions_from_bits,
    walk_final_dag,
)


# -- relation predicates on position tuples -----------------------------------


def is_static_one_shift(s: SubsetPositions, t: SubsetPositions) -> bool:
    """True when t equals s with exactly one position advanced by 1."""
    if len(s) != len(t):
        return False
    diffs = [(a, b) for a, b in zip(s, t) if a != b]
    return len(diffs) == 1 and diffs[0][1] == diffs[0][0] + 1


def is_incremental_one_shift(s: SubsetPositions, t: SubsetPositions) -> bool:
    """True when t is s plus exactly one extra position."""
    return len(t) == len(s) + 1 and set(s) < set(t)


def static_parents(t: SubsetPositions) -> list[SubsetPositions]:
    """All s with t a static one shift of s, i.e. one position decremented."""
    out = []
    for i, p in enumerate(t):
        q = p - 1
        if q >= 1 and (i == 0 or t[i - 1] != q):
            out.append(t[:i] + (q,) + t[i + 1 :])
    return out


def is_mandatory_static_one_shift(s: SubsetPositions, t: SubsetPositions) -> bool:
    """True when s is the lexicographically smallest static parent of t."""
    parents = static_parents(t)
    return bool(parents) and s == min(parents)


def is_mandatory_incremental_one_shift(s: SubsetPositions, t: SubsetPositions) -> bool:
    """True when t adds one position below min(s).

    Equivalently s is the lexicographically largest subset having t as an
    incremental one shift: dropping min(t) maximizes the position tuple.
    """
    return len(t) == len(s) + 1 and t[1:] == tuple(s) and t[0] < s[0]


def is_modified_mandatory_incremental(s: SubsetPositions, t: SubsetPositions) -> bool:
    """True when t is the unique smallest mandatory incremental child: add position 1."""
    return len(t) == len(s) + 1 and t[1:] == tuple(s) and t[0] == 1 and s[0] > 1


def incremental_children_all(s: SubsetPositions, n: int) -> list[SubsetPositions]:
    """Adds any absent position: n - |s| children."""
    members = set(s)
    return [tuple(sorted(s + (j,))) for j in range(1, n + 1) if j not in members]


def mandatory_incremental_children(s: SubsetPositions, n: int) -> list[SubsetPositions]:
    """Adds one position below min(s): min(s) - 1 children."""
    return [(j,) + s for j in range(1, s[0])]


def modified_mandatory_incremental_children(
    s: SubsetPositions, n: int
) -> list[SubsetPositions]:
    """Adds position 1 alone: at most one child, the final DAG's Incr edge."""
    return [(1,) + s] if s[0] > 1 else []


def subsets_of(n):
    for size in range(1, n + 1):
        yield from itertools.combinations(range(1, n + 1), size)


class TestPredicateExamples:
    def test_static(self):
        assert is_static_one_shift((1, 3), (1, 4))
        assert is_static_one_shift((1, 3), (2, 3))
        assert not is_static_one_shift((1, 3), (2, 4))  # two positions moved
        assert not is_static_one_shift((1, 3), (1, 3))
        assert not is_static_one_shift((1,), (1, 2))  # sizes differ

    def test_incremental(self):
        assert is_incremental_one_shift((1, 3), (1, 3, 4))
        assert is_incremental_one_shift((1, 3), (1, 2, 3))
        assert not is_incremental_one_shift((1, 3), (1, 4, 5))
        assert not is_incremental_one_shift((1, 3), (1, 3))

    def test_static_parents(self):
        assert static_parents((2, 4)) == [(1, 4), (2, 3)]
        assert static_parents((1, 2)) == []
        assert static_parents((1,)) == []

    def test_mandatory_static(self):
        # lexicographically least static parent and no other
        assert is_mandatory_static_one_shift((1, 4), (2, 4))
        assert not is_mandatory_static_one_shift((2, 3), (2, 4))

    def test_mandatory_incremental(self):
        assert is_mandatory_incremental_one_shift((2, 3), (1, 2, 3))
        assert not is_mandatory_incremental_one_shift((1, 3), (1, 3, 4))
        assert not is_mandatory_incremental_one_shift((1, 2), (1, 2, 3))

    def test_modified_mandatory_incremental(self):
        assert is_modified_mandatory_incremental((2, 3), (1, 2, 3))
        assert not is_modified_mandatory_incremental((1, 3), (1, 2, 3))
        assert not is_modified_mandatory_incremental((2, 4), (2, 3, 4))


class TestGenerators:
    def test_incremental_children(self):
        assert incremental_children_all((2, 3), 4) == [(1, 2, 3), (2, 3, 4)]
        assert mandatory_incremental_children((2, 3), 4) == [(1, 2, 3)]
        assert modified_mandatory_incremental_children((2, 3), 4) == [(1, 2, 3)]
        # position 1 taken: nothing below the minimum to add
        assert mandatory_incremental_children((1, 3), 4) == []
        assert modified_mandatory_incremental_children((1, 3), 4) == []

    def test_mandatory_static_children(self):
        assert mandatory_static_children((1,), 4) == [((2,), "Type2")]
        assert mandatory_static_children((2, 4), 4) == [((3, 4), "Type1")]
        assert mandatory_static_children((1, 2), 4) == [((1, 3), "Type2")]
        assert mandatory_static_children((1, 3), 4) == [
            ((1, 4), "Type1"),
            ((2, 3), "Type2"),
        ]
        assert mandatory_static_children((2, 3), 4) == []
        assert mandatory_static_children((1, 2, 3, 4), 4) == []


@pytest.mark.parametrize("n", range(1, 9))
def test_predicates_match_generators_exhaustively(n):
    """Each generator yields exactly the pairs its predicate accepts, n <= 8."""
    all_subsets = list(subsets_of(n))
    for t in all_subsets:
        parents = static_parents(t)
        assert parents == sorted(s for s in all_subsets if is_static_one_shift(s, t))
        mandatory = [s for s in all_subsets if is_mandatory_static_one_shift(s, t)]
        assert mandatory == (parents[:1] if parents else [])
    for s in all_subsets:
        for children, pred in (
            (incremental_children_all, is_incremental_one_shift),
            (mandatory_incremental_children, is_mandatory_incremental_one_shift),
            (modified_mandatory_incremental_children, is_modified_mandatory_incremental),
        ):
            want = [t for t in all_subsets if pred(s, t)]
            assert children(s, n) == want
        want_static = {t for t in all_subsets if is_mandatory_static_one_shift(s, t)}
        assert {c for c, _ in mandatory_static_children(s, n)} == want_static


@pytest.mark.parametrize("incremental", [
    pytest.param(incremental_children_all, id="incr"),
    pytest.param(mandatory_incremental_children, id="mincr"),
    pytest.param(modified_mandatory_incremental_children, id="mmincr"),
])
def test_static_and_incremental_edges_reach_every_subset(incremental):
    # a BFS from {1} over the mandatory static edges plus the relation, n <= 8
    for n in range(1, 9):
        queue = [(1,)]
        seen = set(queue)
        for s in queue:  # read while it grows: breadth first
            for child in [c for c, _ in mandatory_static_children(s, n)] + incremental(s, n):
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
        assert seen == set(subsets_of(n)), n


@pytest.mark.parametrize("n", range(1, 11))
def test_fanout_bound_exhaustive(n):
    # replacement edges plus the gated growth edge never exceed two children
    for s in subsets_of(n):
        static = mandatory_static_children(s, n)
        assert len(static) <= 2
        grown = modified_mandatory_incremental_children(s, n)
        assert len(static) + len(grown) <= 2


class TestBitRules:
    R4 = InputSet.from_values((1, 2, 3, 4))

    @staticmethod
    def node(pattern: str, r: InputSet) -> tuple:
        """A bit-vector node: compact fields, a blank delta, then the pattern."""
        bits = bytes(int(c) for c in pattern)
        total = sum(r.values[i] for i, b in enumerate(bits) if b)
        return _cursors(positions_from_bits(bits)) + (sum(bits), total, None, None, None, bits)

    @staticmethod
    def edge(node: tuple, child: tuple) -> str:
        """The move a child's delta records, named as in the DOT export."""
        if child[7] is None:
            return "Incr"
        return "Type1" if child[7] == node[0] else "Type2"

    def child(self, pattern: str, edge: str) -> "tuple | None":
        node = self.node(pattern, self.R4)
        kids = [c for c in final_dag_children(node, self.R4, 0) if self.edge(node, c) == edge]
        assert len(kids) <= 1
        return kids[0] if kids else None

    def test_root(self):
        root = bit_root(self.R4)
        assert root == (0, 1, 1, 0, 1, 1, None, None, 1, b"\x01\x00\x00\x00")

    def test_type1_moves_first_one_after_gap(self):
        child = self.child("1010", "Type1")
        assert child[9] == b"\x01\x00\x00\x01"
        assert child[:3] == (4, 1, 4)
        assert child[5] == 5

    def test_type1_blocked_by_neighbour_or_edge(self):
        assert self.child("0110", "Type1") is None
        assert self.child("0001", "Type1") is None
        assert self.child("1100", "Type1") is None  # no gap one

    def test_type2_shrinks_leading_run(self):
        child = self.child("1100", "Type2")
        assert child[9] == b"\x01\x00\x01\x00"
        assert child[:3] == (3, 1, 3)
        assert child[5] == 4

    def test_type2_needs_leading_run_with_room(self):
        assert self.child("0110", "Type2") is None
        assert self.child("1111", "Type2") is None

    def test_growth_fills_position_one(self):
        child = self.child("0110", "Incr")
        assert child[9] == b"\x01\x01\x01\x00"
        assert child[4] == 3 and child[5] == 6
        assert child[:3] == (0, 3, 3)

    def test_growth_requires_block_pattern(self):
        assert self.child("1100", "Incr") is None
        assert self.child("0101", "Incr") is None

    @given(st.integers(2, 24), st.data())
    def test_children_keep_invariants(self, n, data):
        mask = data.draw(st.integers(1, (1 << n) - 1))
        r = InputSet.from_values(range(1, n + 1))
        bits = bytes((mask >> i) & 1 for i in range(n))
        node = self.node("".join(map(str, bits)), r)
        children = final_dag_children(node, r, 7)
        assert len(children) <= 2
        for child in children:
            decoded = positions_from_bits(child[9])
            assert child[:4] == _cursors(decoded)
            assert child[4] == len(decoded)
            assert child[5] == sum(r.values[p - 1] for p in decoded)
            assert child[5] >= node[5]
            assert child[6] == 7
            grew = self.edge(node, child) == "Incr"
            assert child[4] == node[4] + (1 if grew else 0)


class TestCompactForm:
    def test_root(self):
        r = InputSet.from_values((2, 5, 9))
        # cursors 0, 1, 1, 0; size 1; total 2; no parent, adds position 1
        assert compact_root(r) == (0, 1, 1, 0, 1, 2, None, None, 1)

    def test_blocked_move_detected_without_bits(self):
        # pattern 0110: the candidate landing slot is occupied, which the
        # cursor form sees as second_after_gap == first_after_gap + 1
        r = InputSet.from_values((1, 2, 3, 4))

        def follow(node, rank, removed):
            return next(
                c for c in compact_children(node, r, rank) if c[7] == removed
            )

        # root 1000 -T2-> 0100 -Incr-> 1100 -T2-> 1010 -T2-> 0110; a move
        # removes the position it leaves, growth removes nothing
        node = compact_root(r)
        node = follow(node, 1, 1)
        node = follow(node, 2, None)
        node = follow(node, 3, 2)
        node = follow(node, 4, 1)
        assert (node[0], node[3]) == (2, 3)  # first_after_gap, second_after_gap

        deltas = [c[7:9] for c in compact_children(node, r, 5)]
        assert deltas == [(None, 1)]  # growth only

    def test_every_node_is_a_plain_tuple(self):
        # one node shape: 9 fields, 10 with the pattern, and no tuple subclass
        r = InputSet.from_values((1, 2, 3, 4))
        assert type(bit_root(r)) is tuple and len(bit_root(r)) == 10
        for node, children in walk_final_dag(4):  # final_dag_children from bit_root
            for c in [node] + [child for child, _ in children]:
                assert type(c) is tuple and len(c) == 10
        stack, count = [compact_root(r)], 0
        while stack:
            node = stack.pop()
            assert type(node) is tuple and len(node) == 9
            stack.extend(compact_children(node, r, 1))
            count += 1
        assert count == 15


def test_final_dag_report_checks_compact_deltas(monkeypatch):
    real = shifts.compact_children

    def skewed(node, r, parent_rank):
        # moves claim to remove the landing slot instead of the one they leave
        return [
            c if c[7] is None else c[:7] + (c[8], c[8])
            for c in real(node, r, parent_rank)
        ]

    monkeypatch.setattr(shifts, "compact_children", skewed)
    problems = final_dag_report(4)
    # the pattern patch sets the landing slot and keeps the slot it left
    assert problems[0] == "1000: children [((1, 2), 'Type2')] != position rule [((2,), 'Type2')]"


def test_final_dag_report_checks_dropped_children(monkeypatch):
    real = shifts.compact_children

    def no_type2(node, r, parent_rank):
        # Type2 removes the parent's prefix_end, never its first_after_gap
        return [c for c in real(node, r, parent_rank) if c[7] in (None, node[0])]

    monkeypatch.setattr(shifts, "compact_children", no_type2)
    assert final_dag_report(4) == ["1000: children [] != position rule [((2,), 'Type2')]"]


@pytest.mark.parametrize("field", [0, 3])
def test_final_dag_report_checks_cursors(monkeypatch, field):
    real = shifts.compact_children

    def skewed(node, r, parent_rank):
        return [c[:field] + (c[field] + 1,) + c[field + 1:] for c in real(node, r, parent_rank)]

    monkeypatch.setattr(shifts, "compact_children", skewed)
    # the root's Type2 child 0100 is the first node the rule builds
    want = (2, 0, 2, 0)
    got = want[:field] + (want[field] + 1,) + want[field + 1:]
    assert final_dag_report(4)[0] == f"0100: cursors {got} != recomputed {want}"


def test_final_dag_report_checks_child_totals(monkeypatch):
    real = shifts.compact_children

    def heavy(node, r, parent_rank):
        return [c[:5] + (c[5] + 1,) + c[6:] for c in real(node, r, parent_rank)]

    monkeypatch.setattr(shifts, "compact_children", heavy)
    assert final_dag_report(4)[0] == "0100: stored total diverges from direct sum"


def test_final_dag_report_stops_on_a_cycle(monkeypatch):
    real = shifts.final_dag_children

    def looping(node, r, parent_rank):
        return real(node, r, parent_rank) + [node]  # every node is its own child

    monkeypatch.setattr(shifts, "final_dag_children", looping)
    problems = final_dag_report(3)
    # the root's own delta adds position 1 and removes nothing, so it reads as Incr
    assert problems[0] == (
        "100: children [((2,), 'Type2'), ((1,), 'Incr')] != position rule [((2,), 'Type2')]"
    )
    assert "100 generated twice (second parent 100)" in problems


@pytest.mark.parametrize("n", range(1, 9))
def test_final_dag_report_clean(n):
    assert final_dag_report(n) == []


@pytest.mark.parametrize("n", range(1, 8))
def test_bit_edges_agree_with_position_generators(n):
    """Every DAG edge is one the position-level generators also produce."""
    for node, children in walk_final_dag(n):
        s = positions_from_bits(node[9])
        static = mandatory_static_children(s, n)
        grown = modified_mandatory_incremental_children(s, n)
        for child, edge in children:
            t = positions_from_bits(child[9])
            if edge == "Incr":
                assert t in grown
            else:
                assert (t, edge) in static
