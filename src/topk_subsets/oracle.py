"""Brute-force reference enumeration for differential testing.

Enumerates every non-empty subset, so it is usable only at desk scale
(n <= 24 is enforced).  Ties between equal sums are broken by the
lexicographic order of the position tuples; streaming variants are free
to order ties differently, so comparisons against this oracle should be
on the sum sequence unless all subset sums are distinct.

Sums are exact in both modes: float values are scaled by 2**s to ints
(``float.as_integer_ratio``), summed and sorted as ints, and each total
is reported as ``total / 2**s``.  Int true division rounds correctly, so
this is the float of ``Fraction(total, 2**s)``, without the import that
would load ``fractions`` and ``decimal`` with the package.
"""

from __future__ import annotations

from .core import InputSet, Number, SubsetPositions

__all__ = ["all_subsets_sorted", "topk_oracle"]

_N_CAP = 24


def all_subsets_sorted(r: InputSet) -> list[tuple[Number, SubsetPositions]]:
    """All 2**n - 1 non-empty subsets as (sum, positions), fully sorted."""
    n = r.n
    if n > _N_CAP:
        raise ValueError(f"oracle limited to n <= {_N_CAP}, got {n}")
    values = r.values
    if r.mode == "float":
        ratios = [v.as_integer_ratio() for v in values]
        scale = max(d for _, d in ratios)  # every denominator is a power of 2
        values = [m * (scale // d) for m, d in ratios]
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
        return [(total / scale, positions) for total, positions in out]
    return out


def topk_oracle(r: InputSet, k: int) -> list[tuple[Number, SubsetPositions]]:
    """First min(k, 2**n - 1) entries of :func:`all_subsets_sorted`."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return all_subsets_sorted(r)[:k]
