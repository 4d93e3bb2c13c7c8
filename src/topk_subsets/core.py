"""Shared domain types for ranked subset-sum enumeration.

Conventions used throughout the package:

* The input is a list of non-negative numbers kept in non-decreasing order.
  Positions are 1-based: position ``p`` names the p-th smallest value.
* A subset is written either as its strictly increasing tuple of positions
  or as a bit pattern ``B[1..n]`` with ``B[p] = 1`` when position ``p`` is
  a member.  Helpers below convert between the two.
* Any pattern with at least one set bit is summarized by cursor indices
  that let successor rules run in constant time:

  - ``first_after_gap``: position of the first 1 that follows the first
    run of 0s, or 0 when no 1 follows that run.  When the pattern starts
    with 0 the first run of 0s is the leading one, so this is simply the
    first set position.  The value is never 1.
  - ``prefix_end``: last position of the leading run of 1s, or 0 when the
    pattern starts with 0.
  - ``last_one``: position of the rightmost 1, always in ``[1, n]``.
  - ``second_after_gap``: position of the first 1 strictly after
    ``first_after_gap``, or 0 when there is none or ``first_after_gap``
    is itself 0.  Only the cursor-only (compact) node form carries it.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from operator import le
from typing import IO, Iterable, Iterator, NamedTuple, Sequence, Union

__all__ = [
    "InputError",
    "NegativeValueError",
    "OverflowRiskError",
    "InputSet",
    "SubsetPositions",
    "BitNode",
    "CompactNode",
    "Delta",
    "RankedSubset",
    "load_input",
    "validate_positions",
    "sum_of",
    "positions_from_bits",
    "mask_from_positions",
    "cursors_from_bits",
    "expand_deltas",
]

Number = Union[int, float]

#: Sorted, strictly increasing, 1-based member positions of a subset.
SubsetPositions = tuple[int, ...]

# Largest value of n * max(values) accepted in exact-integer mode.  Keeping
# every reachable sum inside a signed 64-bit word makes integer results
# portable to fixed-width implementations.
_INT64_MAX = 2**63 - 1


class InputError(ValueError):
    """Raised for unusable input: empty, unparseable, or out of contract."""


class NegativeValueError(InputError):
    """Raised when any input value is negative."""


class OverflowRiskError(InputError):
    """Raised in exact-integer mode when n * max(values) exceeds 63 bits."""


@dataclass(frozen=True)
class InputSet:
    """The sorted ground set that subsets are drawn from.

    ``values`` is non-decreasing and non-negative.  ``mode`` is ``"int"``
    for exact integer arithmetic or ``"float"`` for floating point.
    Construct through :meth:`from_values` or :func:`load_input`, which
    sort and validate; direct construction re-checks the invariants.
    """

    values: tuple
    mode: str = "int"

    def __post_init__(self) -> None:
        if self.mode not in ("int", "float"):
            raise InputError(f"unknown mode {self.mode!r}, expected 'int' or 'float'")
        values = self.values
        if not values:
            raise InputError("input set must contain at least one value")
        # C-level checks for the common cases: plain ints in either mode, or
        # plain finite floats in float mode, non-negative and non-decreasing.
        types = set(map(type, values))
        plain = types == {int} or (
            types == {float} and self.mode == "float" and all(map(math.isfinite, values))
        )
        if not (plain and values[0] >= 0 and all(map(le, values, islice(values, 1, None)))):
            self._check_each()
        if self.mode == "int":
            worst = self.n * values[-1]
            if worst > _INT64_MAX:
                raise OverflowRiskError(
                    f"n * max(values) = {worst} exceeds the signed 64-bit range"
                )

    def _check_each(self) -> None:
        """Per-value checks: raise on the first fault, in value order.

        Runs only when the fast checks fail, to word the error, and decides
        the rare inputs they do not cover, such as int subclasses other than
        bool or a mix of ints and floats.
        """
        prev = None
        for v in self.values:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise InputError(f"non-numeric value {v!r}")
            if self.mode == "int" and not isinstance(v, int):
                raise InputError(f"non-integer value {v!r} in exact-integer mode")
            if isinstance(v, float) and not math.isfinite(v):
                raise InputError(f"non-finite value {v!r}")
            if v < 0:
                raise NegativeValueError(f"negative value {v!r} not allowed")
            if prev is not None and v < prev:
                raise InputError("values must be in non-decreasing order")
            prev = v

    @classmethod
    def from_values(cls, values: Iterable[Number], mode: str = "int") -> "InputSet":
        return cls(tuple(sorted(values)), mode)

    @property
    def n(self) -> int:
        return len(self.values)


# A comment runs from "#" to the next line boundary, exactly as
# str.splitlines draws them.
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")


def load_input(
    source: Union[str, IO[str]], mode: str = "int", keep: "int | None" = None
) -> InputSet:
    """Parse whitespace-separated numbers into a sorted :class:`InputSet`.

    ``source`` is raw text or a readable text stream.  A ``#`` starts a
    comment that runs to the next line boundary, where a boundary is any
    that ``str.splitlines`` splits on (``\\n``, ``\\r``, ``\\x0b``,
    ``\\x0c``, ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028``, ``\\u2029``).
    Unsorted input is sorted here; empty input, unparseable tokens,
    negative values, and integer inputs that could overflow 64-bit sums
    are rejected.

    ``keep=k`` loads only what the k smallest subset sums can use.  The k
    singletons are k distinct subsets, so the k-th smallest sum is at most
    v_k, the k-th smallest value.  With m the last position whose value
    equals v_k, every value past m exceeds v_k, so no answer contains
    position m+1 or later.  The set returned holds the m+1 smallest values
    (all of them when m+1 >= n): position m+1 stays so that every
    successor rule tests its bound ``p < n`` as it would on the full set.
    The cut applies in int mode only (float totals are inexact, so
    rounding could let a node past the cut surface), and every verdict is
    still reached over the full input, so errors and messages do not
    depend on ``keep``: each token is parsed, an input that fails the
    63-bit guard (full n and maximum) is loaded uncut, and the prefix
    holds the global minimum, which the sign check looks at.

    Memory peaks while the tokens are parsed: the token list and the value
    list are alive together, and the text too when ``source`` is a string
    (text read from a stream is released once it is split).  The token
    list is dropped before the values are sorted.
    """
    if keep is not None and keep < 1:
        raise ValueError("keep must be >= 1")
    tokens = _COMMENT.sub("", source if isinstance(source, str) else source.read()).split()
    if not tokens:
        raise InputError("empty input: no values found")
    parse = int if mode == "int" else float
    try:
        values: list[Number] = list(map(parse, tokens))
    except ValueError:
        # only a failing input pays for this scan, which names the first bad token
        for tok in tokens:
            try:
                parse(tok)
            except ValueError:
                raise InputError(f"unparseable token {tok!r}") from None
        raise
    del tokens
    n = len(values)
    if mode == "int" and keep is not None and keep + 1 < n and n * max(values) <= _INT64_MAX:
        return InputSet(tuple(_answer_prefix(values, keep)), mode)
    values.sort()
    return InputSet(tuple(values), mode)


def _answer_prefix(values: list, keep: int) -> list:
    """The m+1 smallest of the parsed ints, m the last position of v_keep.

    Needs ``keep + 1 < n``.  A threshold a little above the (keep+1)/n
    quantile of a sorted stride sample filters the values at C level, and
    only the survivors are sorted.  When they do not reach past position m
    (the threshold fell below v_keep or on its ties), the whole list is
    sorted instead, as without ``keep``.  The result depends on m alone,
    not on the sample.
    """
    n = len(values)
    sample = sorted(values[:: max(1, n // 4096)])
    i = (keep + 1) * len(sample) // n
    kept = list(filter(sample[min(i + 8 + i // 8, len(sample) - 1)].__ge__, values))
    if len(kept) > keep:
        kept.sort()
        m = bisect_right(kept, kept[keep - 1])
        if m < len(kept):
            return kept[: m + 1]
    del kept
    values.sort()
    return values[: bisect_right(values, values[keep - 1]) + 1]


def validate_positions(positions: Sequence[int], n: int) -> None:
    """Reject anything that is not a non-empty strictly increasing tuple in [1, n]."""
    if len(positions) == 0:
        raise InputError("subset must be non-empty")
    prev = 0
    for p in positions:
        if not isinstance(p, int) or isinstance(p, bool):
            raise InputError(f"position {p!r} is not an integer")
        if p <= prev:
            raise InputError("positions must be strictly increasing and >= 1")
        prev = p
    if prev > n:
        raise InputError(f"position {prev} exceeds n = {n}")


def sum_of(positions: Sequence[int], r: InputSet) -> Number:
    """Sum of the values at the given 1-based positions.

    Exact in integer mode; correctly rounded (``math.fsum``) in float mode.
    """
    validate_positions(positions, r.n)
    values = r.values
    if r.mode == "float":
        return math.fsum(values[p - 1] for p in positions)
    return sum(values[p - 1] for p in positions)


# -- bit-pattern helpers -----------------------------------------------------

Bits = Union[bytes, str, Sequence[int]]


def _as_bits(bits: Bits) -> bytes:
    """Normalize a pattern given as bytes, "0"/"1" text, or an int sequence."""
    if isinstance(bits, bytes):
        return bits
    if isinstance(bits, str):
        try:
            return bytes("01".index(c) for c in bits)
        except ValueError:
            raise InputError(f"bit string must contain only 0 and 1: {bits!r}") from None
    return bytes(bits)


def positions_from_bits(bits: Bits) -> tuple[int, ...]:
    b = _as_bits(bits)
    return tuple([i for i, bit in enumerate(b, 1) if bit])


def mask_from_positions(positions: Sequence[int]) -> int:
    """Canonical integer key for a subset: bit p-1 set for member position p."""
    mask = 0
    for p in positions:
        mask |= 1 << (p - 1)
    return mask


def cursors_from_bits(bits: Bits) -> tuple[int, int, int, int]:
    """Recompute the cursor quadruple of a pattern from scratch.

    Returns ``(first_after_gap, prefix_end, last_one, second_after_gap)``.
    This is the reference definition that incrementally maintained cursors
    are checked against; it scans the whole pattern and is O(n).
    """
    b = _as_bits(bits)
    n = len(b)
    if n == 0 or 1 not in b:
        raise InputError("pattern must contain at least one set bit")
    i = 0
    if b[0]:
        while i < n and b[i]:
            i += 1
        prefix_end = i  # 1-based: run covers positions 1..i
    else:
        prefix_end = 0
    while i < n and not b[i]:
        i += 1
    first_after_gap = i + 1 if i < n else 0
    last_one = b.rfind(1) + 1
    second_after_gap = 0
    if first_after_gap:
        j = b.find(1, first_after_gap)  # 0-based index > first_after_gap - 1
        second_after_gap = j + 1 if j != -1 else 0
    return (first_after_gap, prefix_end, last_one, second_after_gap)


# -- node and result records --------------------------------------------------


class BitNode(NamedTuple):
    """Frontier node that carries its full bit pattern.

    Creating a child copies the pattern, so per-node cost is O(n) in both
    time and space.  Cursors are maintained incrementally and must always
    equal :func:`cursors_from_bits` of ``bits``.
    """

    bits: bytes
    size: int
    total: Number
    first_after_gap: int
    prefix_end: int
    last_one: int


class CompactNode(NamedTuple):
    """Frontier node in cursor-only form: constant space, no pattern.

    The subset itself is recoverable only through the delta chain
    (``parent_rank``, ``removed``, ``added``), replayed by
    :func:`expand_deltas`.  ``parent_rank`` is the emission rank of the
    node's unique parent (None for the root).
    """

    first_after_gap: int
    prefix_end: int
    last_one: int
    second_after_gap: int
    size: int
    total: Number
    parent_rank: "int | None"
    removed: "int | None"
    added: "int | None"


class Delta(NamedTuple):
    """One-step patch against an earlier emitted subset."""

    parent_rank: "int | None"
    removed: "int | None"
    added: "int | None"


class RankedSubset(NamedTuple):
    """One emitted answer: the rank-th smallest subset sum.

    ``positions`` is present for variants that materialize subsets and
    None for the compact variant, whose output is the ``delta`` patch
    stream instead.  Ranks start at 1 and sums are non-decreasing.
    """

    rank: int
    total: Number
    positions: "tuple[int, ...] | None" = None
    delta: "Delta | None" = None


# records skip the Python-level NamedTuple __new__, which runs once per result
_new = tuple.__new__


def expand_deltas(stream: Iterable[RankedSubset]) -> Iterator[RankedSubset]:
    """Replay a delta stream into explicit position tuples.

    Each incoming record must carry a delta whose ``parent_rank`` refers
    to an earlier record (None for the root).  Memory grows with the
    number of records kept, O(k * n) worst case, since any later delta may
    reference any earlier rank.
    """
    known: dict[int, tuple[int, ...]] = {}
    for item in stream:
        d = item.delta
        if d is None:
            raise ValueError(f"rank {item.rank}: no delta to expand")
        if d.parent_rank is None:
            if d.added is None or d.removed is not None:
                raise ValueError(f"rank {item.rank}: malformed root delta {d}")
            positions = (d.added,)
        else:
            positions = known.get(d.parent_rank)
            if positions is None:
                raise ValueError(
                    f"rank {item.rank}: delta references unknown rank {d.parent_rank}"
                )
            if d.removed is not None:
                i = bisect_left(positions, d.removed)
                if i == len(positions) or positions[i] != d.removed:
                    raise ValueError(
                        f"rank {item.rank}: removed position {d.removed} absent "
                        f"from parent subset"
                    )
                positions = positions[:i] + positions[i + 1 :]
            if d.added is not None:
                i = bisect_left(positions, d.added)
                if i < len(positions) and positions[i] == d.added:
                    raise ValueError(
                        f"rank {item.rank}: added position {d.added} already present"
                    )
                positions = positions[:i] + (d.added,) + positions[i:]
        known[item.rank] = positions
        yield _new(RankedSubset, (item.rank, item.total, positions, d))
