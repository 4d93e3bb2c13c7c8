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

Each draw maps to [lo, hi] as lo + (draw mod (hi - lo + 1)).  The modulo
introduces negligible bias for desk-scale spans; exact reproducibility
is the contract here, not statistical perfection.

Timing is the enumerator's own elapsed_ns, from the stream's first
``next()`` to its end.  It includes the consumer's time between yields,
which in :func:`run_matrix` is an empty loop; instance generation and CSV
formatting stay outside the clock.  Repetition rows share one instance,
so medians can be taken per (n, k, variant) cell downstream.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import astuple, dataclass
from typing import IO, Iterable, Iterator, Union

from .core import InputSet
from .enumerators import Variant, topk

__all__ = [
    "UniformInteger",
    "BenchConfig",
    "BenchRow",
    "CSV_HEADER",
    "splitmix64_stream",
    "gen_instance",
    "run_matrix",
    "emit_csv",
    "median_cells",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

CSV_HEADER = "n,k,variant,seed,elapsed_ns,total_insertions,peak_size,reported_count"


def splitmix64_stream(seed: int) -> Iterator[int]:
    """Endless stream of 64-bit draws from the documented generator."""
    state = seed & _MASK64
    while True:
        state = (state + _GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        yield z ^ (z >> 31)


@dataclass(frozen=True)
class UniformInteger:
    """Uniform integer distribution on [lo, hi], both ends inclusive."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError(f"need 0 <= lo <= hi, got [{self.lo}, {self.hi}]")


def gen_instance(
    n: int, seed: int, distribution: UniformInteger, mode: str = "int"
) -> InputSet:
    """Deterministic sorted instance of n values for (n, seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    span = distribution.hi - distribution.lo + 1
    stream = splitmix64_stream(seed)
    values = [distribution.lo + next(stream) % span for _ in range(n)]
    if mode == "float":
        values = [float(v) for v in values]
    return InputSet.from_values(values, mode)


@dataclass(frozen=True)
class BenchConfig:
    n_list: tuple
    k_list: tuple
    variants: tuple
    seed: int
    distribution: UniformInteger = UniformInteger(1, 10**6)
    repetitions: int = 1

    def __post_init__(self) -> None:
        if not self.n_list or min(self.n_list) < 1:
            raise ValueError("n_list must be non-empty with n >= 1")
        if not self.k_list or min(self.k_list) < 1:
            raise ValueError("k_list must be non-empty with k >= 1")
        if not self.variants:
            raise ValueError("variants must be non-empty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass(frozen=True)
class BenchRow:
    """One timed run; mirrors RunMetrics plus the cell coordinates."""

    n: int
    k: int
    variant: str
    seed: int
    elapsed_ns: int
    total_insertions: int
    peak_size: int
    reported_count: int


def run_matrix(cfg: BenchConfig) -> list[BenchRow]:
    """Run every (n, k, variant) cell, repetitions times each.

    All variants at one n share the same instance, so rows are directly
    comparable.  Rows come back in deterministic loop order.
    """
    rows: list[BenchRow] = []
    for n in cfg.n_list:
        instance = gen_instance(n, cfg.seed, cfg.distribution)
        for k in cfg.k_list:
            for variant in cfg.variants:
                variant = Variant(variant)
                for _ in range(cfg.repetitions):
                    stream, metrics = topk(instance, k, variant)
                    for _ in stream:
                        pass
                    rows.append(
                        BenchRow(
                            n=n,
                            k=k,
                            variant=variant.value,
                            seed=cfg.seed,
                            elapsed_ns=metrics.elapsed_ns,
                            total_insertions=metrics.total_insertions,
                            peak_size=metrics.peak_size,
                            reported_count=metrics.extractions,
                        )
                    )
    return rows


def emit_csv(rows: Iterable[BenchRow], out: Union[str, IO[str]]) -> None:
    """Write rows sorted by (n, k, variant, seed) under the fixed header.

    Ties (repetitions of one cell) fall back to the remaining fields, so
    the bytes written depend only on the multiset of rows: "\\n" line
    ends, no quoting needed for any field.
    """
    ordered = sorted(rows, key=astuple)  # field order matches the header
    close = False
    if isinstance(out, str):
        out = open(out, "w", encoding="ascii", newline="")
        close = True
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for row in ordered:
            writer.writerow(
                [
                    row.n,
                    row.k,
                    row.variant,
                    row.seed,
                    row.elapsed_ns,
                    row.total_insertions,
                    row.peak_size,
                    row.reported_count,
                ]
            )
    finally:
        if close:
            out.close()


def median_cells(rows: Iterable[BenchRow]) -> list[tuple[int, int, str, int, int]]:
    """Median elapsed_ns per (n, k, variant) cell, sorted; last field is reps."""
    cells: dict[tuple[int, int, str], list[int]] = {}
    for row in rows:
        cells.setdefault((row.n, row.k, row.variant), []).append(row.elapsed_ns)
    out = []
    for (n, k, variant), timings in sorted(cells.items()):
        med = int(statistics.median(timings))
        out.append((n, k, variant, med, len(timings)))
    return out
