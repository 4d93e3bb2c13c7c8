"""Deterministic instance generation and timed benchmark runs.

Instances come from an explicit 64-bit splittable mix generator so any
implementation, in any language, can reproduce the exact value stream
from (seed, n) alone:

    state := seed;  each draw does
    state := (state + 0x9E3779B97F4A7C15) mod 2**64
    z := state
    z := ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z := ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    draw := z XOR (z >> 31)

Each draw maps to the value 1 + (draw mod 10**6), in [1, 10**6].  The
modulo introduces negligible bias; exact reproducibility is the contract
here, not statistical perfection.  A float instance takes two draws per
value, a mantissa and a power of two (see :func:`gen_float_instance`).

Timing is the enumerator's own elapsed_ns, from the stream's first
``next()`` to its end.  It includes the consumer's time between yields,
which in :func:`run_matrix` is an empty loop; instance generation stays
outside the clock.  Repetitions interleave: each one times every cell once,
in grid order and then reversed, so a drift of the machine's speed reaches
every cell alike instead of the cells timed during it.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterator, NamedTuple, Sequence

from .core import InputSet
from .enumerators import Variant, topk

__all__ = [
    "Cell",
    "splitmix64_stream",
    "gen_instance",
    "gen_float_instance",
    "run_matrix",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64_stream(seed: int) -> Iterator[int]:
    """Endless stream of 64-bit draws from the documented generator."""
    state = seed & _MASK64
    while True:
        state = (state + _GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        yield z ^ (z >> 31)


def gen_instance(n: int, seed: int) -> InputSet:
    """Deterministic sorted int instance of n values in [1, 10**6] for (n, seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    stream = splitmix64_stream(seed)
    return InputSet.from_values([1 + next(stream) % 10**6 for _ in range(n)])


# The lowest leading-bit exponent of value i's band, by i mod 4: half the values
# near 1, whose float sums round, a quarter subnormal, and a quarter in
# [2**1022, 2**1024), two of which sum past the float range
_FLOAT_BANDS = (-4, -1060, -4, 1022)


def gen_float_instance(n: int, seed: int) -> InputSet:
    """Deterministic sorted float instance of n values for (n, seed).

    Value i has a full 53-bit mantissa, 2**52 + a mod 2**52, and its leading
    bit at 2**E, E = ``_FLOAT_BANDS[i mod 4]`` + b mod 2, for the draws a, b
    of the seed's stream.  An instance of four or more values mixes
    subnormals, values near 1 and values near 1e308, and from five on float
    additions of its values round, cancel and overflow where the exact sums
    do not.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    stream = splitmix64_stream(seed)
    return InputSet.from_values(
        [math.ldexp(2**52 + next(stream) % 2**52, _FLOAT_BANDS[i % 4] + next(stream) % 2 - 52)
         for i in range(n)], "float")


class Cell(NamedTuple):
    """One (n, k, variant) cell: median time over its repetitions, and space.

    The counters are those of one run; every repetition of a cell walks the
    same instance and so reports the same counts.
    """

    n: int
    k: int
    variant: str
    elapsed_ns: int
    reps: int
    total_insertions: int
    peak_size: int
    extractions: int


def run_matrix(
    n_list: Sequence[int], k_list: Sequence[int], variants: Sequence, seed: int, reps: int
) -> list[Cell]:
    """Time every (n, k, variant) cell reps times; one :class:`Cell` each.

    All variants at one n share the instance ``gen_instance(n, seed)`` on
    values in [1, 10**6].  Repetition i times every cell once, in grid
    order for even i and in reverse for odd i.  Cells come back in grid
    order (n, then k, then variant, as listed); a repeated list entry
    names the same cell.
    """
    instances = {n: gen_instance(n, seed) for n in n_list}
    grid = list(dict.fromkeys(
        (n, k, Variant(v)) for n in n_list for k in k_list for v in variants))
    times = {cell: [] for cell in grid}
    counts = {}
    for rep in range(reps):
        for cell in grid if rep % 2 == 0 else reversed(grid):
            n, k, variant = cell
            stream, metrics = topk(instances[n], k, variant)
            for _ in stream:
                pass
            times[cell].append(metrics.elapsed_ns)
            counts[cell] = (metrics.total_insertions, metrics.peak_size, metrics.extractions)
    return [
        Cell(n, k, variant.value, int(statistics.median(times[n, k, variant])), reps,
             *counts[n, k, variant])
        for n, k, variant in grid
    ]
