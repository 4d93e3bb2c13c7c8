"""Shift relations and successor rules over the subset DAG.

A *static one shift* advances exactly one member position by 1 (same
size); an *incremental one shift* adds exactly one member (size grows by
1).  Restricting each to a canonical parent yields the mandatory forms,
and thinning the incremental edges to one special case yields a DAG in
which every non-root subset has exactly one parent and every node has at
most two children.  Walking that DAG best-first enumerates subsets in
non-decreasing sum order without any duplicate suppression.

Successor rules come in two equivalent forms:

* :func:`final_dag_children` on :class:`BitNode` mutates a copied bit
  pattern, O(n) per child.
* :func:`compact_children` on :class:`CompactNode` updates the cursor
  quadruple only, O(1) per child, emitting a (removed, added) delta
  instead of a pattern.

The edge names match the DOT export: ``Type1`` moves the first 1 after
the leading zero run one step right, ``Type2`` moves the last 1 of the
leading one run one step right, ``Incr`` extends a pattern of the shape
``01..10..0`` with position 1.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Iterator

from .core import (
    BitNode,
    CompactNode,
    InputSet,
    SubsetPositions,
    cursors_from_bits,
    positions_from_bits,
)

__all__ = [
    "ShiftKind",
    "EdgeType",
    "incremental_children_all",
    "mandatory_static_children",
    "bit_root",
    "compact_root",
    "type1_child",
    "type2_child",
    "growth_child",
    "final_dag_children",
    "compact_children",
    "walk_final_dag",
    "final_dag_report",
]


class ShiftKind(Enum):
    STATIC = "static"
    INCREMENTAL = "incr"
    MANDATORY_STATIC = "mstatic"
    MANDATORY_INCREMENTAL = "mincr"
    MODIFIED_MANDATORY_INCREMENTAL = "mmincr"


class EdgeType(Enum):
    """Child kind in the final DAG; values are the DOT edge labels."""

    TYPE1 = "Type1"
    TYPE2 = "Type2"
    INCREMENTAL = "Incr"


_INCREMENTAL_KINDS = (
    ShiftKind.INCREMENTAL,
    ShiftKind.MANDATORY_INCREMENTAL,
    ShiftKind.MODIFIED_MANDATORY_INCREMENTAL,
)


def incremental_children_all(
    s: SubsetPositions, n: int, kind: ShiftKind
) -> list[SubsetPositions]:
    """Children of s under the chosen incremental edge flavour.

    Plain incremental adds any absent position (n - |s| children), the
    mandatory form adds only positions below min(s) (min(s) - 1 children),
    and the modified mandatory form adds position 1 alone (at most one).
    """
    if kind not in _INCREMENTAL_KINDS:
        raise ValueError(f"{kind} is not an incremental edge kind")
    if kind is ShiftKind.INCREMENTAL:
        members = set(s)
        out = []
        for j in range(1, n + 1):
            if j not in members:
                child = tuple(sorted(s + (j,)))
                out.append(child)
        return out
    if kind is ShiftKind.MANDATORY_INCREMENTAL:
        return [(j,) + tuple(s) for j in range(1, s[0])]
    return [(1,) + tuple(s)] if s[0] > 1 else []


def _prefix_run_len(s: SubsetPositions) -> int:
    """Length of the leading run 1,2,...  Zero when 1 is absent."""
    if not s or s[0] != 1:
        return 0
    m = 1
    while m < len(s) and s[m] == m + 1:
        m += 1
    return m


def mandatory_static_children(
    s: SubsetPositions, n: int
) -> list[tuple[SubsetPositions, EdgeType]]:
    """The at-most-two mandatory static children of s, as position tuples."""
    out: list[tuple[SubsetPositions, EdgeType]] = []
    pe = _prefix_run_len(s)
    if pe < len(s):
        # first member after the leading run; the Type1 move advances it
        p = s[pe]
        blocked = pe + 1 < len(s) and s[pe + 1] == p + 1
        if 2 <= p <= n - 1 and not blocked:
            out.append((s[:pe] + (p + 1,) + s[pe + 1 :], EdgeType.TYPE1))
    if 1 <= pe <= n - 1:
        out.append((s[: pe - 1] + (pe + 1,) + s[pe:], EdgeType.TYPE2))
    return out


# -- successor rules on bit-pattern nodes --------------------------------------


def bit_root(r: InputSet) -> BitNode:
    """The singleton {1}: pattern 10..0, cursors (0, 1, 1)."""
    bits = bytes([1]) + bytes(r.n - 1)
    return BitNode(bits, 1, r.values[0], 0, 1, 1)


def type1_child(node: BitNode, r: InputSet) -> "BitNode | None":
    """Move the first 1 after the leading zero run one step right.

    Exists when that 1 is at position 2..n-1 and its right neighbour is 0.
    The last_one cursor follows the moved bit when they coincide.
    """
    fag = node.first_after_gap
    bits = node.bits
    if not 1 < fag < len(bits) or bits[fag]:
        return None
    b = bytearray(bits)
    b[fag - 1] = 0
    b[fag] = 1
    last = node.last_one + 1 if node.last_one == fag else node.last_one
    total = node.total - r.values[fag - 1] + r.values[fag]
    return BitNode(bytes(b), node.size, total, fag + 1, node.prefix_end, last)


def type2_child(node: BitNode, r: InputSet) -> "BitNode | None":
    """Move the last 1 of the leading one run one step right.

    Exists when the run ends at position 1..n-1; the landing bit is 0 by
    run maximality.  The moved bit becomes the new first_after_gap and
    the leading run shrinks by one.
    """
    pe = node.prefix_end
    if not 1 <= pe < len(node.bits):
        return None
    b = bytearray(node.bits)
    b[pe - 1] = 0
    b[pe] = 1
    last = pe + 1 if node.last_one == pe else node.last_one
    total = node.total - r.values[pe - 1] + r.values[pe]
    return BitNode(bytes(b), node.size, total, pe + 1, pe - 1, last)


def growth_child(node: BitNode, r: InputSet) -> "BitNode | None":
    """Set position 1 on a pattern of the shape 01..10..0.

    The shape test is pure cursor arithmetic: first_after_gap is 2, the
    pattern starts with 0, and the single one run ends at size + 1.  The
    child is the root of the next subset-size layer and this is its only
    incoming edge in the final DAG.
    """
    if not (
        node.first_after_gap == 2
        and node.prefix_end == 0
        and node.last_one == node.size + 1
    ):
        return None
    b = bytearray(node.bits)
    b[0] = 1
    return BitNode(
        bytes(b), node.size + 1, node.total + r.values[0], 0, node.last_one, node.last_one
    )


def final_dag_children(node: BitNode, r: InputSet) -> list[tuple[BitNode, EdgeType]]:
    """All children of node in the final DAG, at most two, in Type1, Type2, Incr order."""
    out = []
    child = type1_child(node, r)
    if child is not None:
        out.append((child, EdgeType.TYPE1))
    child = type2_child(node, r)
    if child is not None:
        out.append((child, EdgeType.TYPE2))
    child = growth_child(node, r)
    if child is not None:
        out.append((child, EdgeType.INCREMENTAL))
    return out


# -- successor rules on cursor-only nodes --------------------------------------


def compact_root(r: InputSet) -> CompactNode:
    """The singleton {1} with a root delta that adds position 1."""
    return CompactNode(0, 1, 1, 0, 1, r.values[0], None, None, 1)


# nodes skip the Python-level NamedTuple __new__, which runs once per child
_new = tuple.__new__


def compact_children(node: CompactNode, r: InputSet, parent_rank: int) -> list[CompactNode]:
    """Cursor-only form of :func:`final_dag_children`, as bare nodes.

    The Type1 neighbour test B[first_after_gap + 1] == 0 becomes
    ``second_after_gap != first_after_gap + 1``; everything else is the
    same arithmetic without the pattern.  second_after_gap survives a
    Type1 move unchanged, becomes the parent's first_after_gap after a
    Type2 move, and resets to 0 on growth (first_after_gap becomes 0).
    ``parent_rank`` is stamped into each child's delta.  The edge kind is
    read off the delta: growth removes nothing, Type2 removes the parent's
    prefix_end, Type1 its first_after_gap.
    """
    # one unpack instead of repeated field gets: this runs once per extraction
    fag, pe, last, sag, size, total = node[:6]
    values = r.values
    n = len(values)
    out: list[CompactNode] = []
    if 1 < fag < n and sag != fag + 1:
        moved_last = last + 1 if last == fag else last
        out.append(_new(CompactNode, (
            fag + 1, pe, moved_last, sag, size,
            total - values[fag - 1] + values[fag], parent_rank, fag, fag + 1,
        )))
    if 1 <= pe < n:
        moved_last = pe + 1 if last == pe else last
        out.append(_new(CompactNode, (
            pe + 1, pe - 1, moved_last, fag, size,
            total - values[pe - 1] + values[pe], parent_rank, pe, pe + 1,
        )))
    if fag == 2 and pe == 0 and last == size + 1:
        out.append(_new(CompactNode, (
            0, last, last, 0, size + 1, total + values[0], parent_rank, None, 1,
        )))
    return out


# -- structural checkers --------------------------------------------------------


def walk_final_dag(
    n: int, r: "InputSet | None" = None
) -> Iterator[tuple[BitNode, list[tuple[BitNode, EdgeType]]]]:
    """Breadth-first walk of the whole final DAG from the root {1}.

    Yields each node once together with its child list.  With the
    one-parent property intact the walk visits all 2**n - 1 subsets; the
    walk itself does not deduplicate, so a broken rule set shows up as
    repeated or missing patterns in :func:`final_dag_report`.
    """
    if r is None:
        r = InputSet.from_values(range(1, n + 1))
    queue = deque([bit_root(r)])
    while queue:
        node = queue.popleft()
        children = final_dag_children(node, r)
        yield node, children
        queue.extend(child for child, _ in children)


def final_dag_report(n: int, r: "InputSet | None" = None) -> list[str]:
    """Check every structural invariant of the final DAG at width n.

    Returns a list of problem descriptions, empty when all hold: at most
    two children per node, every subset generated exactly once, full
    coverage of all 2**n - 1 subsets, incrementally maintained cursors of
    both node forms equal to the from-scratch recomputation, compact
    deltas (removed, added) equal to the bit difference between parent and
    child patterns, and non-decreasing sums along edges.
    Runs the bit-pattern and cursor-only walks side by side.
    """
    if r is None:
        r = InputSet.from_values(range(1, n + 1))
    problems: list[str] = []
    seen: set[bytes] = set()
    root_b = bit_root(r)
    root_c = compact_root(r)
    seen.add(root_b.bits)
    queue: deque[tuple[BitNode, CompactNode]] = deque([(root_b, root_c)])
    while queue and len(problems) < 20:
        bnode, cnode = queue.popleft()
        pattern = "".join(map(str, bnode.bits))
        quad = cursors_from_bits(bnode.bits)
        if (bnode.first_after_gap, bnode.prefix_end, bnode.last_one) != quad[:3]:
            problems.append(f"{pattern}: bit cursors diverge from recomputation {quad[:3]}")
        cquad = (
            cnode.first_after_gap,
            cnode.prefix_end,
            cnode.last_one,
            cnode.second_after_gap,
        )
        if cquad != quad:
            problems.append(f"{pattern}: compact cursors {cquad} != recomputed {quad}")
        if bnode.size != len(positions_from_bits(bnode.bits)) or bnode.size != cnode.size:
            problems.append(f"{pattern}: size field out of step")
        if bnode.total != sum(r.values[p - 1] for p in positions_from_bits(bnode.bits)):
            problems.append(f"{pattern}: stored total diverges from direct sum")
        bkids = final_dag_children(bnode, r)
        ckids = compact_children(cnode, r, parent_rank=0)
        if len(bkids) > 2:
            problems.append(f"{pattern}: {len(bkids)} children, more than two")
        if len(bkids) != len(ckids):
            problems.append(f"{pattern}: child counts differ between node forms")
            continue
        for (bchild, edge), cchild in zip(bkids, ckids):
            gone = [p for p, (a, b) in enumerate(zip(bnode.bits, bchild.bits), 1) if a > b]
            new = [p for p, (a, b) in enumerate(zip(bnode.bits, bchild.bits), 1) if a < b]
            if (gone or [None], new or [None]) != ([cchild.removed], [cchild.added]):
                problems.append(f"{pattern} -{edge.value}-> compact delta != bits {gone} {new}")
            if bchild.total != cchild.total:
                problems.append(f"{pattern} -{edge.value}-> totals differ between forms")
            if bchild.total < bnode.total:
                problems.append(f"{pattern} -{edge.value}-> sum decreases")
            if bchild.bits in seen:
                problems.append(
                    f"{''.join(map(str, bchild.bits))} generated twice (second parent {pattern})"
                )
                continue
            seen.add(bchild.bits)
            queue.append((bchild, cchild))
    expected = (1 << n) - 1
    if len(seen) != expected and not problems:
        problems.append(f"covered {len(seen)} subsets, expected {expected}")
    return problems
