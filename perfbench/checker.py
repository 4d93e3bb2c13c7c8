"""Answer checks for `topk-subsets topk` output, made apart from the program.

Nothing here imports ``topk_subsets``.  The reference for "the k smallest
subset sums" is a capped counting knapsack over the benchmark's own sorted
copy of the input values, so a fault in the enumerators, the pool, or the
TSV writer cannot also hide in the check.

Every result line is one operation.  A line fails when it breaks a
per-line rule (rank, order, positions, total, duplicate), and the stream
as a whole is charged one failed line for each line too many or too few
at some sum against the knapsack count.  ``failed`` is capped at
``attempted`` so a garbled stream never reports more failures than lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Check", "subset_sum_counts", "check_lines", "check_totals"]


@dataclass
class Check:
    """Outcome of checking one result stream."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: max(0, 10 - len(self.problems))])

    def fail(self, lines: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + lines)
        if len(self.problems) < 10:
            self.problems.append(problem)


def subset_sum_counts(values: list, limit: int, cap: int) -> list:
    """``c[s]`` = number of non-empty subsets of ``values`` with sum ``s``, for s <= limit.

    Counts are clamped at ``cap``; the check only compares counts that a
    correct stream of ``cap - 1`` lines can reach.  ``values`` must be
    non-negative integers.
    """
    counts = [1] + [0] * limit  # counts[0] starts with the empty subset
    for v in sorted(values):
        if v > limit:
            break
        # 0/1 knapsack step: the comprehension reads the old list whole
        tail = [a + b for a, b in zip(counts[v:], counts)]
        counts = counts[:v] + [x if x < cap else cap for x in tail]
    counts[0] = min(cap, counts[0] - 1)
    return counts


def check_totals(values: list, totals: list, k: int) -> Check:
    """Check a stream of ``totals`` against the k smallest subset sums.

    Ranks are implied by list order.  The totals must be non-decreasing,
    number ``min(k, 2**n - 1)``, and as a multiset equal the smallest
    subset sums: below the last total every sum appears exactly as often
    as subsets reach it, at the last total at most that often.
    """
    chk = Check(attempted=max(len(totals), 1))
    n = len(values)
    want = k if n >= 63 else min(k, (1 << n) - 1)
    if len(totals) != want:
        chk.fail(abs(want - len(totals)), f"{len(totals)} lines, expected {want}")
    if not totals:
        return chk
    bad_order = sum(1 for a, b in zip(totals, totals[1:]) if b < a)
    if bad_order:
        chk.fail(bad_order, f"{bad_order} totals smaller than the line before")
    negative = sum(1 for t in totals if t < 0)
    if negative:
        chk.fail(negative, f"{negative} negative totals")
        totals = [t for t in totals if t >= 0]
        if not totals:
            return chk
    last = max(totals)
    counts = subset_sum_counts(values, last, want + 1)
    seen = [0] * (last + 1)
    for t in totals:
        seen[t] += 1
    off = 0
    first_bad = None
    for s in range(last + 1):
        have, exact = seen[s], counts[s]
        miss = abs(have - exact) if s < last else max(0, have - exact)
        if miss:
            off += miss
            first_bad = first_bad if first_bad is not None else (s, have, exact)
    if off:
        s, have, exact = first_bad
        chk.fail(off, f"sum {s}: {have} lines, {exact} subsets exist")
    return chk


def check_lines(text: str, values: list, k: int, subsets: bool) -> tuple[Check, list]:
    """Check TSV from ``topk`` with ``--output sums`` or ``--output subsets``.

    ``values`` is the input in any order.  Returns the check and the
    parsed totals (None for an unparseable line).  Subsets lines must list
    strictly increasing positions in [1, n] whose sorted input values sum
    exactly to the line's total, and no subset may appear twice.
    """
    ordered = sorted(values)
    n = len(ordered)
    rows = text.split("\n")
    if rows and rows[-1] == "":
        rows.pop()
    else:
        rows.append("")  # a missing final newline is a fault of the last line
    chk = Check(attempted=max(len(rows), 1))
    totals: list = []
    seen: set = set()
    width = 3 if subsets else 2
    bad = 0
    first = None
    for rank, row in enumerate(rows, 1):
        parts = row.split("\t")
        problem = None
        total = None
        if len(parts) != width:
            problem = f"{len(parts)} fields"
        else:
            try:
                got_rank, total = int(parts[0]), int(parts[1])
            except ValueError:
                problem = "unparseable rank or total"
            else:
                if got_rank != rank:
                    problem = f"rank {got_rank}"
                elif subsets:
                    problem = _subset_problem(parts[2], total, ordered, n, seen)
        totals.append(total)
        if problem is not None:
            bad += 1
            first = first or f"line {rank}: {problem}: {row[:80]!r}"
    if bad:
        chk.fail(bad, first)
    whole = check_totals(ordered, [t for t in totals if t is not None], k)
    if whole.failed:
        chk.fail(whole.failed, whole.problems[0])
    return chk, totals


def _subset_problem(field: str, total: int, ordered: list, n: int, seen: set) -> "str | None":
    try:
        positions = [int(p) for p in field.split(",")]
    except ValueError:
        return "unparseable positions"
    prev = 0
    for p in positions:
        if p <= prev or p > n:
            return "positions not strictly increasing in [1, n]"
        prev = p
    if sum(ordered[p - 1] for p in positions) != total:
        return "total is not the sum of the listed values"
    key = tuple(positions)
    if key in seen:
        return "subset listed twice"
    seen.add(key)
    return None
