"""Tests for the benchmark's own answer checker and its declared metrics.

Run from the repository root:

    python3 -m pytest perfbench -q

The brute-force ``topk_oracle`` from the package is the independent
reference that the checker must accept; hand-made faults in its output
must be rejected.
"""

import json
import os
import random
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from checker import check_lines, check_totals, subset_sum_counts  # noqa: E402
from topk_subsets import InputSet, topk_oracle  # noqa: E402


def instance(n: int, seed: int, hi: int = 40) -> list:
    rng = random.Random(seed)
    return [rng.randint(1, hi) for _ in range(n)]


def oracle_rows(values: list, k: int) -> list:
    """(total, positions text) rows of the oracle's k best subsets."""
    return [(s, ",".join(map(str, p))) for s, p in topk_oracle(InputSet.from_values(values), k)]


def tsv(rows: list, subsets: bool) -> str:
    if subsets:
        return "".join(f"{i}\t{s}\t{p}\n" for i, (s, p) in enumerate(rows, 1))
    return "".join(f"{i}\t{s}\n" for i, (s, _) in enumerate(rows, 1))


def failed(rows: list, values: list, k: int, subsets: bool = True) -> int:
    chk, _ = check_lines(tsv(rows, subsets), values, k, subsets)
    return chk.failed


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("subsets", [False, True])
def test_accepts_oracle_output(n, subsets):
    for seed in range(6):
        values = instance(n, seed)
        for k in {1, 5, 40, (1 << n) - 1, 1 << n}:
            rows = oracle_rows(values, k)
            chk, _ = check_lines(tsv(rows, subsets), values, k, subsets)
            assert chk.failed == 0, (n, seed, k, chk.problems)
            assert chk.attempted == len(rows)


def test_counts_match_brute_force():
    for seed in range(20):
        values = instance(9, seed, hi=12)
        want = Counter(s for s, _ in topk_oracle(InputSet.from_values(values), 1 << 9))
        counts = subset_sum_counts(values, 60, cap=10**9)
        assert counts == [want.get(s, 0) for s in range(61)]


def test_counts_are_capped():
    assert max(subset_sum_counts([1] * 12, 6, cap=50)) == 50


@pytest.fixture
def case():
    values = instance(10, 7)
    k = 60
    return values, k, oracle_rows(values, k)


def test_rejects_missing_sum(case):
    values, k, rows = case
    assert failed(rows[:20] + rows[21:], values, k) > 0
    assert failed(rows[:20] + rows[21:], values, k, subsets=False) > 0


def test_rejects_extra_sum(case):
    values, k, rows = case
    extra = rows[:20] + [rows[20]] + rows[20:-1]
    assert failed(extra, values, k, subsets=False) > 0


def test_rejects_two_lines_swapped(case):
    values, k, rows = case
    i = next(i for i in range(len(rows) - 1) if rows[i][0] != rows[i + 1][0])
    swapped = list(rows)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    assert failed(swapped, values, k) > 0
    assert failed(swapped, values, k, subsets=False) > 0
    # the same swap with the rank column left as emitted
    text = tsv(rows, True).splitlines(keepends=True)
    text[i], text[i + 1] = text[i + 1], text[i]
    chk, _ = check_lines("".join(text), values, k, True)
    assert chk.failed > 0


def test_rejects_duplicated_subset(case):
    values, k, rows = case
    dup = list(rows)
    dup[31] = dup[30]
    assert failed(dup, values, k) > 0


def test_rejects_duplicated_subset_with_a_tied_total():
    values = [1, 1, 1, 2, 5]  # {1}, {2}, {3} tie at 1
    rows = oracle_rows(values, 4)
    dup = [rows[0], rows[0]] + rows[2:]
    assert rows[0][0] == rows[1][0]
    assert failed(dup, values, 4) > 0


def test_rejects_wrong_total(case):
    values, k, rows = case
    wrong = list(rows)
    wrong[-1] = (wrong[-1][0] + 1, wrong[-1][1])
    assert failed(wrong, values, k) > 0
    assert failed(wrong, values, k, subsets=False) > 0
    mid = list(rows)
    mid[25] = (mid[25][0] + 1, mid[25][1])
    assert failed(mid, values, k) > 0


def test_rejects_short_stream_and_garbage():
    values = instance(6, 3)
    rows = oracle_rows(values, 20)
    assert check_totals(values, [s for s, _ in rows[:-1]], 20).failed > 0
    assert check_totals(values, [-1] + [s for s, _ in rows[1:]], 20).failed > 0
    assert failed(rows, values, 21) > 0
    chk, _ = check_lines("1\tx\n2\t3\n", values, 2, False)
    assert 0 < chk.failed <= chk.attempted
    chk, _ = check_lines("1\t" + str(rows[0][0]), values, 1, False)  # no final newline
    assert chk.failed > 0


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_inputs_depend_on_seed_only():
    a = run.make_values("compact-subsets", 5, 300)
    assert a == run.make_values("compact-subsets", 5, 300)
    assert a != run.make_values("compact-subsets", 6, 300)
    assert min(a) >= 1 and max(a) <= run.VALUE_MAX
