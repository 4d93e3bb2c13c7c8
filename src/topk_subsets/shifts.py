"""Shift relations and successor rules over the subset DAG.

A *static one shift* advances exactly one member position by 1 (same
size); an *incremental one shift* adds exactly one member (size grows by
1).  Restricting each to a canonical parent yields the mandatory forms,
and thinning the incremental edges to one special case yields a DAG in
which every non-root subset has exactly one parent and every node has at
most two children.  Walking that DAG best-first enumerates subsets in
non-decreasing sum order without any duplicate suppression.

A node is a plain tuple, laid out here and indexed in no other module:

* 0-3: the cursors, which let the rule run in O(1): ``first_after_gap``,
  the first member after the first non-member (so the first member when
  1 is not one; never 1), or 0 when none follows; ``prefix_end``, the
  end of the leading run 1, 2, ..., or 0 when 1 is not a member;
  ``last_one``, the largest member; ``second_after_gap``, the first
  member after ``first_after_gap``, or 0 when there is none or
  ``first_after_gap`` is 0;
* 4: the size, 5: the exact total;
* 6-8: ``(parent_rank, removed, added)``, the edge from the node's one
  parent, stamped with its emission rank (None, None, 1 at the root);
* 9: the pattern, on bit-vector nodes only: bytes, one per position,
  any non-zero byte a member.

There is one successor rule, :func:`compact_children`: it updates the
cursors in O(1) per child and emits a (removed, added) delta instead of a
pattern, which :func:`topk_subsets.core.expand_deltas` replays.  A
bit-vector node is a compact node with its pattern appended:
:func:`final_dag_children` runs the same rule and patches a copy of the
parent's pattern with each child's delta, O(n) per child.

The edge names match the DOT export: ``Type1`` moves the first 1 after
the leading zero run one step right, ``Type2`` moves the last 1 of the
leading one run one step right, ``Incr`` extends a pattern of the shape
``01..10..0`` with position 1.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Iterator

from .core import Delta, InputSet, RankedSubset, SubsetPositions, _new

__all__ = [
    "mandatory_static_children",
    "compact_root",
    "compact_children",
    "node_total",
    "delta_record",
    "with_total",
    "positions_from_bits",
    "pattern_text",
    "bit_root",
    "final_dag_children",
    "bitvec_record",
    "walk_final_dag",
    "final_dag_report",
]


def _prefix_run_len(s: SubsetPositions) -> int:
    """Length of the leading run 1,2,...  Zero when 1 is absent."""
    if not s or s[0] != 1:
        return 0
    m = 1
    while m < len(s) and s[m] == m + 1:
        m += 1
    return m


def _cursors(s: SubsetPositions) -> tuple[int, int, int, int]:
    """The cursors of a subset, from its positions: the reference for the rule's updates."""
    pe = _prefix_run_len(s)
    fag = s[pe] if pe < len(s) else 0
    return (fag, pe, s[-1], s[pe + 1] if fag and pe + 1 < len(s) else 0)


def mandatory_static_children(s: SubsetPositions, n: int) -> list[tuple[SubsetPositions, str]]:
    """The at-most-two mandatory static children of s, as (positions, edge label) pairs."""
    out: list[tuple[SubsetPositions, str]] = []
    pe = _prefix_run_len(s)
    if pe < len(s):
        # first member after the leading run; the Type1 move advances it
        p = s[pe]
        blocked = pe + 1 < len(s) and s[pe + 1] == p + 1
        if 2 <= p <= n - 1 and not blocked:
            out.append((s[:pe] + (p + 1,) + s[pe + 1 :], "Type1"))
    if 1 <= pe <= n - 1:
        out.append((s[: pe - 1] + (pe + 1,) + s[pe:], "Type2"))
    return out


# -- the successor rule --------------------------------------------------------


def compact_root(r: InputSet) -> tuple:
    """The singleton {1} with a root delta that adds position 1."""
    return (0, 1, 1, 0, 1, r.exact[0], None, None, 1)


def compact_children(node: tuple, r: InputSet, parent_rank: int) -> list[tuple]:
    """The children of node in the final DAG, at most two, in Type1, Type2, Incr order.

    Type1 moves first_after_gap ``node[0]`` (at 2..n-1) right onto a free
    slot, seen as second_after_gap ``node[3] != node[0] + 1``.  Type2
    moves prefix_end ``node[1]`` (at 1..n-1) right; the slot is free by
    run maximality, and the old ``node[0]`` becomes the child's field 3.
    Incr sets position 1 on a pattern 01..10..0, the only edge into the
    next size layer.  ``parent_rank`` fills each child's field 6, and its
    fields 7-8, (removed, added), name the edge: Incr removes nothing,
    Type1 the parent's ``node[0]``, Type2 its ``node[1]``.
    """
    # one unpack instead of repeated field gets: this runs once per extraction
    fag, pe, last, sag, size, total = node[:6]
    values = r.exact
    n = len(values)
    out: list[tuple] = []
    if 1 < fag < n and sag != fag + 1:
        moved_last = last + 1 if last == fag else last
        out.append((fag + 1, pe, moved_last, sag, size,
                    total - values[fag - 1] + values[fag], parent_rank, fag, fag + 1))
    if 1 <= pe < n:
        moved_last = pe + 1 if last == pe else last
        out.append((pe + 1, pe - 1, moved_last, fag, size,
                    total - values[pe - 1] + values[pe], parent_rank, pe, pe + 1))
    if fag == 2 and pe == 0 and last == size + 1:
        out.append((0, last, last, 0, size + 1, total + values[0], parent_rank, None, 1))
    return out


node_total = itemgetter(5)  # the best-first walk's sort key: a node's exact total


def delta_record(rank: int, node: tuple) -> RankedSubset:
    """The record of a compact node: its total and the edge from its parent."""
    return _new(RankedSubset, (rank, node[5], None, _new(Delta, node[6:])))


def with_total(node: tuple, total) -> tuple:
    """The node with ``total`` in place of its exact one: float mode builds its items so."""
    return node[:5] + (total,) + node[6:]


# -- bit-vector nodes: a compact node plus its pattern --------------------------


def positions_from_bits(bits: bytes) -> tuple[int, ...]:
    """The members of a pattern, in increasing order: an O(n) scan of every byte."""
    return tuple([i for i, bit in enumerate(bits, 1) if bit])


def pattern_text(node: tuple) -> str:
    """A bit-vector node's pattern as digits, as the DOT export names it."""
    return "".join(map(str, node[9]))


def bit_root(r: InputSet) -> tuple:
    """:func:`compact_root` with the pattern 10..0 appended as ``node[9]``."""
    return compact_root(r) + (bytes([1]) + bytes(r.n - 1),)


def final_dag_children(node: tuple, r: InputSet, parent_rank: int) -> list[tuple]:
    """:func:`compact_children` of a bit-vector node, each with its own pattern.

    A child's pattern is a copy of the parent's ``node[9]`` patched with
    the child's (removed, added) delta: O(n) per child.
    """
    pattern = node[9]
    out = []
    for child in compact_children(node, r, parent_rank):
        b = bytearray(pattern)
        if child[7] is not None:
            b[child[7] - 1] = 0
        b[child[8] - 1] = 1
        out.append(child + (bytes(b),))
    return out


def bitvec_record(rank: int, node: tuple) -> RankedSubset:
    """The record of a bit-vector node: its total and its decoded pattern.

    Decoding scans all n bytes in Python: the paper's O(n) retrieval, which
    acceptance tests 5-6 measure against compact.  A C-level bytes.find
    scan hides the n in the constant and fails both.
    """
    return _new(RankedSubset, (rank, node[5], positions_from_bits(node[9]), None))


# per topk CLI --output, the fields it prints of a node: its walk yields them, not records
_compact_fields = {"sums": lambda rank, node: node[5], "deltas": lambda rank, node: node[5:9]}
_compact_fields["subsets"] = _compact_fields["deltas"]
_bitvec_fields = {"sums": _compact_fields["sums"],
                 "subsets": lambda rank, node: (node[5], positions_from_bits(node[9]))}


# -- structural checkers --------------------------------------------------------


def walk_final_dag(n: int) -> Iterator[tuple[tuple, list[tuple[tuple, str]]]]:
    """Breadth-first walk of the whole final DAG of width n from the root {1}.

    Yields each bit-vector node once together with its (child, edge)
    list, the edge label read off the child's delta.  Position p holds the
    value p, so a node's total is the sum of its positions.  With the
    one-parent property intact the walk visits all 2**n - 1 subsets; the
    walk itself does not deduplicate, so a broken rule shows up as
    repeated or missing patterns in :func:`final_dag_report`.
    """
    r = InputSet.from_values(range(1, n + 1))
    queue = deque([bit_root(r)])
    while queue:
        node = queue.popleft()
        children = final_dag_children(node, r, 0)
        yield node, [(c, "Incr" if c[7] is None else "Type1" if c[7] == node[0] else "Type2")
                     for c in children]
        queue.extend(children)


def final_dag_report(n: int) -> list[str]:
    """Check every structural invariant of the final DAG at width n.

    Returns a list of problem descriptions, empty when all hold.  Each
    node of :func:`walk_final_dag` is checked against definitions that do
    not use the rule: its cursors, size and total against the decoded
    positions, and its (child, edge) list against the position-level rule,
    the mandatory static children plus (1,) + s when s is
    (2, ..., |s| + 1) and |s| < n.  Sums must not
    decrease along an edge, each subset must be generated once, and all
    2**n - 1 must be covered.  Stops after 20 problems or 2**n nodes, so
    a broken rule cannot loop.
    """
    problems: list[str] = []
    seen = {bytes([1]) + bytes(n - 1)}  # the root's pattern
    for count, (node, children) in enumerate(walk_final_dag(n), 1):
        pattern, s = pattern_text(node), positions_from_bits(node[9])
        quad = _cursors(s)
        if node[:4] != quad:
            problems.append(f"{pattern}: cursors {node[:4]} != recomputed {quad}")
        if node[4] != len(s):
            problems.append(f"{pattern}: size field out of step")
        if node[5] != sum(s):
            problems.append(f"{pattern}: stored total diverges from direct sum")
        want = mandatory_static_children(s, n)
        if s == tuple(range(2, len(s) + 2)) and len(s) < n:
            want.append(((1,) + s, "Incr"))
        got = [(positions_from_bits(c[9]), edge) for c, edge in children]
        if got != want:
            problems.append(f"{pattern}: children {got} != position rule {want}")
        for child, edge in children:
            if child[5] < node[5]:
                problems.append(f"{pattern} -{edge}-> sum decreases")
            if child[9] in seen:
                problems.append(f"{pattern_text(child)} generated twice (second parent {pattern})")
            seen.add(child[9])
        if len(problems) >= 20 or count >= 1 << n:
            break
    expected = (1 << n) - 1
    if len(seen) != expected and not problems:
        problems.append(f"covered {len(seen)} subsets, expected {expected}")
    return problems
