"""Shared domain types for ranked subset-sum enumeration.

Conventions used throughout the package:

* The input is a list of non-negative numbers kept in non-decreasing order.
  Positions are 1-based: position ``p`` names the p-th smallest value.
* A subset is written as its strictly increasing tuple of positions; the
  bit-pattern form of the final DAG's nodes is laid out in
  :mod:`topk_subsets.shifts`.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from operator import itemgetter, le, methodcaller, mul
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence, Union

__all__ = [
    "InputError",
    "NegativeValueError",
    "OverflowRiskError",
    "InputSet",
    "SubsetPositions",
    "Delta",
    "RankedSubset",
    "load_input",
    "answer_width",
    "unscale",
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

    ``exact`` (the ints that every walk and the oracle add) and ``scale``
    are derived, with ``exact[i] / scale == values[i]`` exactly.  In int
    mode they are ``values`` and 1; in float mode ``scale`` is the largest
    ``as_integer_ratio`` denominator, a power of 2.
    """

    values: tuple
    mode: str = "int"
    exact: tuple = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)

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
            _check_int64(self.n, values[-1])
            exact, scale = values, 1
        else:
            # each denominator is a power of two, so the largest is a multiple of all;
            # streamed twice, as a list of 10**6 ratio pairs costs more than a pass
            ratio = methodcaller("as_integer_ratio")
            scale = max(map(itemgetter(1), map(ratio, values)))
            exact = tuple(map(mul, map(itemgetter(0), map(ratio, values)),
                              map(scale.__floordiv__, map(itemgetter(1), map(ratio, values)))))
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "scale", scale)

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
        values = tuple(values)
        try:
            values = tuple(sorted(values))
        except TypeError:  # values that do not compare: non-numbers first, for the checks to name
            values = tuple(sorted(values, key=lambda v: isinstance(v, (int, float))))
        return cls(values, mode)

    @property
    def n(self) -> int:
        return len(self.values)


def _check_int64(n: int, top: int) -> None:
    """The 63-bit guard: raise unless n values up to ``top`` sum inside int64."""
    worst = n * top
    if worst > _INT64_MAX:
        raise OverflowRiskError(f"n * max(values) = {worst} exceeds the signed 64-bit range")


# A comment runs from "#" to the next line boundary, exactly as
# str.splitlines draws them.
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")

# Characters read per call while loading.  Blocks of 8-128 KiB parse at the
# same speed; 1 MiB blocks lose most of the gain over one whole-text split.
_BLOCK = 1 << 16


def load_input(
    source: Union[str, IO[str]], mode: str = "int", keep: "int | None" = None,
    _rest: "Callable[[], tuple[list, int, int]] | None" = None,
) -> InputSet:
    """Parse whitespace-separated numbers into a sorted :class:`InputSet`.

    ``source`` is raw text or a readable text stream.  A ``#`` starts a
    comment that runs to the next line boundary, where a boundary is any
    that ``str.splitlines`` splits on (``\\n``, ``\\r``, ``\\x0b``,
    ``\\x0c``, ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028``, ``\\u2029``).
    Unsorted input is sorted here; empty input, unparseable tokens,
    negative values, and integer inputs that could overflow 64-bit sums
    are rejected.

    ``keep=k`` loads only what the k smallest subset sums can use, by one
    rule in both modes: every value is checked, then the :func:`answer_width`
    prefix of the exact values is kept, m+1 values with m the number of
    values <= B = min(v_k, v_1+...+v_j), j = ``k.bit_length()``, so verdicts
    and messages do not depend on ``keep``.  The sum term can cut even when
    k >= n.  An int load also cuts while it reads (see :func:`_load_values`).

    ``_rest``, private to the ``topk`` CLI, splits an int load at a ``\\n``:
    ``source`` is the input up to and including it, and ``_rest()`` returns
    the :func:`_load_values` triple of the rest, loaded with the same
    ``keep`` (by another process).  The kept values are merged, and the
    checks below take the summed n and the larger maximum.  Each part's cut
    keeps every value the whole input's cut keeps: adding values only lowers
    B, and the whole input's (m+1)-th value is either at most a part's B or
    that part's own (m+1)-th value.  A fault in either part is raised as
    it comes, so its message need not be the whole input's: the CLI loads
    the whole input again to word it.
    """
    if keep is not None and keep < 1:
        raise ValueError("keep must be >= 1")
    values, n, top = _load_values(source, int if mode == "int" else float,
                                  keep if mode == "int" else None)
    if _rest is not None:
        more, more_n, more_top = _rest()
        values += more
        n, top = n + more_n, max(top, more_top)
    if not n:
        raise InputError("empty input: no values found")
    values.sort()
    if mode == "int" and values[0] >= 0:  # a negative input is reported as such first
        _check_int64(n, top)
    r = InputSet(tuple(values), mode)
    if keep is not None and (width := answer_width(r.exact, keep)) <= r.n:
        r = InputSet(r.values[:width], mode)
    return r


def _load_values(source: Union[str, IO[str]], parse, keep: "int | None") -> tuple[list, int, int]:
    """The block loop of :func:`load_input`: (kept values, their count n, their maximum).

    The source is taken ``_BLOCK`` characters at a time: a string is
    sliced, not wrapped in a stream, so it is never copied whole, and a
    stream is read.  Each block is cut after its last ``\\n``, which ends
    every comment and every token; the rest is carried into the next
    block, and a long text with no ``\\n`` is carried whole.  After a bad
    token the rest of the blocks are still taken, so a read or decode error
    later in the input is raised in its place, as with a single ``read()``.

    n counts every value read, and the maximum takes them all (0 for none).
    Given ``keep``, the values are cut while they are read: adding values
    can only lower B, so once the values read so far can be cut, their
    (m+1)-th value is a limit that no value of the final prefix exceeds,
    and each later block keeps only the values up to it.  The kept values
    are sorted and cut again whenever their number doubles, so the sorts
    stay O(n log n) when nothing can be cut, and memory follows the kept
    values plus one block.  The minimum is never cut.  ``load_input``
    passes no ``keep`` in float mode, whose checks must see each ``inf``
    and ``nan``.
    """
    # a last "\n" ends the carried tail, so the loop parses it too
    blocks = chain((source[i : i + _BLOCK] for i in range(0, len(source), _BLOCK))
                   if isinstance(source, str) else iter(partial(source.read, _BLOCK), ""), ("\n",))
    values: list[Number] = []
    n = top = 0
    tail, limit, cut_at = "", None, 1 if keep is not None else math.inf
    for block in blocks:
        end = block.rfind("\n") + 1  # 0: no "\n", the whole block is carried
        if not end:
            tail += block
            continue
        new = _parse(parse, tail + block[:end], blocks)
        tail = block[end:]
        n += len(new)
        top = max(top, max(new, default=top))
        values.extend(new if limit is None else [v for v in new if v <= limit])
        if len(values) >= cut_at:
            values.sort()
            width = answer_width(values, keep)
            if width <= len(values):
                del values[width:]
                limit = values[-1]
            cut_at = 2 * len(values)
    return values, n, top


def _parse(parse, text: str, rest: Iterator[str]) -> list:
    """The parsed tokens of ``text``, comments stripped."""
    tokens = _COMMENT.sub("", text).split()
    try:
        return list(map(parse, tokens))
    except ValueError:
        # only a failing input pays for this scan, which names the first bad token
        for tok in tokens:
            try:
                parse(tok)
            except ValueError:
                for _ in rest:  # drained, so a later decode error wins
                    pass
                raise InputError(f"unparseable token {tok!r}") from None
        raise


def answer_width(values: Sequence, k: int) -> int:
    """m+1, m the number of sorted ``values`` <= B = min(v_k, v_1+...+v_j).

    Here j = ``k.bit_length()``.  The k singletons bound the k-th smallest
    subset sum by v_k, and the 2**j - 1 >= k subsets of the j smallest
    values by their sum, so no answer uses a value above B, that is a
    position past m.  The v_k term applies only when k <= n and the sum
    term only when j <= n; with neither, B is unbounded and the width is
    n+1.  m+1 counts too, so that successor rules test ``p < n`` as on the
    full set.  Give exact values: a rounded float sum could fall below a
    value that an answer uses.
    """
    n, j = len(values), k.bit_length()
    bound = sum(values[:j]) if j <= n else math.inf
    if k <= n:
        bound = min(bound, values[k - 1])
    return bisect_right(values, bound) + 1


def unscale(total: int, scale: int) -> float:
    """``float(Fraction(total, scale))``, rounded once by int true division, or inf."""
    try:
        return total / scale
    except OverflowError:
        return math.inf


# -- result records ----------------------------------------------------------


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


# records skip the Python-level NamedTuple __new__: it costs as much as a successor call
_new = tuple.__new__


def _replayer() -> Callable[..., SubsetPositions]:
    """The one delta replay: ``step(parent_rank, removed, added)``, the next rank's positions.

    Ranks count from 1.  ``expand_deltas`` and the ``topk`` CLI's subset output share it.
    It keeps each rank's positions, O(k * n) memory worst case, as any later delta may
    name any earlier rank.  A delta that cannot apply raises ``ValueError`` naming its rank.
    """
    known: list = [None]  # known[rank]: the positions given at that rank

    def step(parent, removed, added) -> SubsetPositions:
        rank = len(known)
        if parent is None:
            if added is None or removed is not None:
                raise ValueError(
                    f"rank {rank}: malformed root delta {Delta(parent, removed, added)}")
            positions = (added,)
        else:
            if not 0 < parent < rank:
                raise ValueError(f"rank {rank}: delta references unknown rank {parent}")
            positions = known[parent]
            if removed is not None:
                i = bisect_left(positions, removed)
                if i == len(positions) or positions[i] != removed:
                    raise ValueError(f"rank {rank}: removed position {removed} "
                                     "absent from parent subset")
                if added == removed + 1 and positions[i + 1 : i + 2] != (added,):
                    # a shift onto a free slot: the sorted order is kept in place
                    positions = positions[:i] + (added,) + positions[i + 1 :]
                    added = None
                else:
                    positions = positions[:i] + positions[i + 1 :]
            if added is not None:
                i = bisect_left(positions, added)
                if i < len(positions) and positions[i] == added:
                    raise ValueError(f"rank {rank}: added position {added} already present")
                positions = positions[:i] + (added,) + positions[i:]
        known.append(positions)
        return positions

    return step


def expand_deltas(stream: Iterable[RankedSubset]) -> Iterator[RankedSubset]:
    """Replay a delta stream into explicit position tuples.

    Records must come with consecutive ranks from 1, each carrying a delta
    whose ``parent_rank`` refers to an earlier record (None for the root).
    ``_replayer``, which the ``topk`` CLI shares, replays the deltas.
    """
    step = _replayer()
    for expected, item in enumerate(stream, 1):
        rank, d = item.rank, item.delta
        if rank != expected:
            raise ValueError(f"rank {rank}: out of sequence, expected rank {expected}")
        if d is None:
            raise ValueError(f"rank {rank}: no delta to expand")
        parent, removed, added = d
        yield _new(RankedSubset, (rank, item.total, step(parent, removed, added), d))
