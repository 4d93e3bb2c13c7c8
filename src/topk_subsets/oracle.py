"""Brute-force reference enumeration for differential testing.

Enumerates every non-empty subset, so it is usable only at desk scale
(n <= 24 is enforced).  Ties between equal sums are broken by the
lexicographic order of the position tuples; streaming variants are free
to order ties differently, so comparisons against this oracle should be
on the sum sequence unless all subset sums are distinct.

Sums are exact in both modes: the oracle adds and sorts the input's
``exact`` ints, and in float mode reports each total once as
:func:`topk_subsets.core.unscale` of it (``inf`` past the float range).
"""

from __future__ import annotations

from operator import lt
from typing import Sequence

from .core import InputSet, Number, RankedSubset, SubsetPositions, expand_deltas, unscale

__all__ = ["all_subsets_sorted", "subset_problem", "topk_oracle"]

_N_CAP = 24


def all_subsets_sorted(r: InputSet) -> list[tuple[Number, SubsetPositions]]:
    """All 2**n - 1 non-empty subsets as (sum, positions), fully sorted."""
    n = r.n
    if n > _N_CAP:
        raise ValueError(f"oracle limited to n <= {_N_CAP}, got {n}")
    values = r.exact
    sums: list = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    out = []
    for mask in range(1, 1 << n):
        positions = tuple(i + 1 for i in range(n) if mask >> i & 1)
        out.append((sums[mask], positions))
    out.sort()
    if r.mode == "float":
        return [(unscale(total, r.scale), positions) for total, positions in out]
    return out


def subset_problem(r: InputSet, records: Sequence[RankedSubset]) -> "str | None":
    """The first record whose subset is wrong, as ``rank <q>: ...``, or None.

    Delta records (``compact``'s) are replayed by :func:`expand_deltas`
    first.  Each record's positions must be strictly increasing within
    1..n, their exact sum must be its total (through ``unscale`` in float
    mode), and no subset may appear twice.  The totals themselves are the
    caller's to compare with the oracle's.
    """
    if records and records[0].delta is not None:
        records = expand_deltas(records)
    n, value, seen = r.n, (0, *r.exact).__getitem__, set()  # value(p): the value at p
    scale = None if r.mode == "int" else r.scale
    for rank, total, positions, _ in records:
        if not (positions and 0 < positions[0] and positions[-1] <= n
                and all(map(lt, positions, positions[1:]))):
            return f"rank {rank}: positions {positions} are not non-empty and increasing in 1..{n}"
        got = sum(map(value, positions))
        if (got if scale is None else unscale(got, scale)) != total:
            return f"rank {rank}: positions {positions} do not sum to {total}"
        if positions in seen:
            return f"rank {rank}: subset {positions} repeated"
        seen.add(positions)
    return None


def topk_oracle(r: InputSet, k: int) -> list[tuple[Number, SubsetPositions]]:
    """First min(k, 2**n - 1) entries of :func:`all_subsets_sorted`."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return all_subsets_sorted(r)[:k]
