"""Input handling, bit/position conversions, cursor recomputation, deltas."""

import io
import itertools
import math
import sys
import tracemalloc
from bisect import bisect_left, bisect_right
from enum import IntEnum
from fractions import Fraction
from typing import IO, Iterable, Iterator, Sequence, Union

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topk_subsets import core
from topk_subsets.bench import splitmix64_stream
from topk_subsets.core import (
    Delta,
    InputError,
    InputSet,
    NegativeValueError,
    OverflowRiskError,
    RankedSubset,
    expand_deltas,
    load_input,
)
from topk_subsets.enumerators import Variant, topk
from topk_subsets.shifts import _cursors, positions_from_bits
from topk_subsets.oracle import all_subsets_sorted


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


def bits_from_positions(positions: Sequence[int], n: int) -> bytes:
    validate_positions(positions, n)
    b = bytearray(n)
    for p in positions:
        b[p - 1] = 1
    return bytes(b)


def mask_from_positions(positions: Sequence[int]) -> int:
    """Canonical integer key for a subset: bit p-1 set for member position p."""
    mask = 0
    for p in positions:
        mask |= 1 << (p - 1)
    return mask


class TestInputSet:
    def test_from_values_sorts(self):
        r = InputSet.from_values([5, 1, 3])
        assert r.values == (1, 3, 5)
        assert r.n == 3
        assert r.mode == "int"

    def test_constructor_requires_sorted(self):
        with pytest.raises(InputError):
            InputSet((3, 1, 5))

    def test_duplicates_and_zero_are_fine(self):
        r = InputSet.from_values([0, 0, 2, 2])
        assert r.values == (0, 0, 2, 2)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            InputSet.from_values([])

    def test_unknown_mode_rejected(self):
        with pytest.raises(InputError):
            InputSet((1, 2), mode="dec")

    def test_int_mode_rejects_floats(self):
        with pytest.raises(InputError):
            InputSet.from_values([1, 2.5])

    def test_float_mode_accepts_mixed(self):
        r = InputSet.from_values([2, 0.5], mode="float")
        assert r.values == (0.5, 2)

    def test_negative_rejected(self):
        with pytest.raises(NegativeValueError):
            InputSet.from_values([3, -1])
        with pytest.raises(NegativeValueError):
            InputSet.from_values([-0.5, 3.0], mode="float")

    def test_negative_error_is_input_error(self):
        assert issubclass(NegativeValueError, InputError)
        assert issubclass(InputError, ValueError)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(InputError):
                InputSet.from_values([1.0, bad], mode="float")

    @pytest.mark.parametrize("values, bad", [
        ([1, "a"], "'a'"), (["a"], "'a'"), ([1, None], "None"), ([2, 1j], "1j"),
        ([2, 1, "a"], "'a'"), ([2, 1, 1j], "1j"),  # out of order as well
    ])
    def test_from_values_names_a_value_that_does_not_compare(self, values, bad):
        # sorted() raises TypeError on these; the checks name the value instead
        with pytest.raises(InputError) as excinfo:
            InputSet.from_values(values)
        assert str(excinfo.value) == f"non-numeric value {bad}"

    def test_overflow_guard(self):
        # n * max must stay within signed 64-bit range.
        InputSet.from_values([2**63 - 1])  # exactly at the line
        with pytest.raises(OverflowRiskError):
            InputSet.from_values([2**62, 2**62, 2**62])


class TestLoadInput:
    def test_tokens_whitespace_and_comments(self):
        text = "# header comment\n3 1\t4 # trailing\n\n2\n"
        r = load_input(text)
        assert r.values == (1, 2, 3, 4)

    def test_file_object(self):
        r = load_input(io.StringIO("7 5"))
        assert r.values == (5, 7)

    def test_float_mode(self):
        r = load_input("0.25 1e2 3", mode="float")
        assert r.values == (0.25, 3.0, 100.0)
        assert r.mode == "float"

    def test_bad_token(self):
        with pytest.raises(InputError, match="abc"):
            load_input("1 abc 2")

    def test_int_mode_rejects_decimal_token(self):
        with pytest.raises(InputError):
            load_input("1 2.5")

    def test_empty_source(self):
        with pytest.raises(InputError):
            load_input("# nothing but comments\n")


# -- reference loader: the per-value code the fast paths replaced --------------


def reference_check(values: tuple, mode: str) -> tuple:
    """``InputSet.__post_init__`` as a plain per-value loop."""
    if mode not in ("int", "float"):
        raise InputError(f"unknown mode {mode!r}, expected 'int' or 'float'")
    if not values:
        raise InputError("input set must contain at least one value")
    prev = None
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise InputError(f"non-numeric value {v!r}")
        if mode == "int" and not isinstance(v, int):
            raise InputError(f"non-integer value {v!r} in exact-integer mode")
        if isinstance(v, float) and not math.isfinite(v):
            raise InputError(f"non-finite value {v!r}")
        if v < 0:
            raise NegativeValueError(f"negative value {v!r} not allowed")
        if prev is not None and v < prev:
            raise InputError("values must be in non-decreasing order")
        prev = v
    if mode == "int":
        worst = len(values) * values[-1]
        if worst > 2**63 - 1:
            raise OverflowRiskError(
                f"n * max(values) = {worst} exceeds the signed 64-bit range"
            )
    return values


def reference_load_input(source: Union[str, IO[str]], mode: str = "int") -> tuple:
    """``load_input`` line by line and token by token; returns the values."""
    text = source if isinstance(source, str) else source.read()
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if not tokens:
        raise InputError("empty input: no values found")
    parse = int if mode == "int" else float
    values = []
    for tok in tokens:
        try:
            values.append(parse(tok))
        except ValueError:
            raise InputError(f"unparseable token {tok!r}") from None
    return reference_check(tuple(sorted(values)), mode)


def _outcome(fn):
    """Accepted values with their types, or the exception class and message."""
    try:
        values = fn()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return [(type(v), repr(v)) for v in values]


# every line boundary of str.splitlines
_BOUNDARIES = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
_TEXT_PIECES = list("0123456789-.e#") + ["nan", "inf", " ", "\t"] + _BOUNDARIES


class _Level(IntEnum):
    LOW = 1
    HIGH = 7


class TestLoaderMatchesReference:
    @given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=40).map("".join),
           st.sampled_from(["int", "float"]))
    def test_load_input(self, text, mode):
        got = _outcome(lambda: load_input(text, mode).values)
        assert got == _outcome(lambda: reference_load_input(text, mode))

    @given(
        st.lists(
            st.one_of(
                st.integers(-3, 2**62),
                st.floats(),
                st.booleans(),
                st.sampled_from(list(_Level)),
                st.just("3"),
            ),
            max_size=8,
        ),
        st.booleans(),
        st.sampled_from(["int", "float", "dec"]),
    )
    def test_input_set(self, values, presort, mode):
        if presort:
            try:
                values = sorted(values)
            except TypeError:
                pass
        values = tuple(values)
        got = _outcome(lambda: InputSet(values, mode).values)
        assert got == _outcome(lambda: reference_check(values, mode))

    def test_comment_ends_at_any_line_boundary(self):
        assert load_input("1 # c\r2").values == (1, 2)
        for boundary in _BOUNDARIES:
            assert load_input(f"3 # c{boundary}2").values == (2, 3)

    def test_unsorted_negative_reports_negative(self):
        with pytest.raises(NegativeValueError):
            InputSet((3, -1))

    def test_bool_rejected_int_subclass_accepted(self):
        with pytest.raises(InputError, match="non-numeric value True"):
            InputSet((True, 2))
        assert InputSet((_Level.LOW, 2)).values == (_Level.LOW, 2)

    def test_bad_token_named_in_order(self):
        with pytest.raises(InputError, match="unparseable token '2x'"):
            load_input("1 2x 3 y")


class _ReadLog(io.StringIO):
    """A text stream that records the size asked for by each read call."""

    def __init__(self, text: str):
        super().__init__(text, newline="")
        self.sizes: list = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


class TestBlockReads:
    @given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=40).map("".join),
           st.sampled_from(["int", "float"]), st.integers(1, 7), st.integers(1, 12))
    @example("12345\n678 9", "int", 2, 1)  # a block boundary inside a token
    @example("1 # a comment\n2 3", "int", 3, 1)  # inside a comment
    @example("1\r\n2\r\n3", "int", 2, 1)  # between "\r" and "\n"
    @example("3\n1 2 # c\rx\n0 y", "int", 4, 1)  # the first bad token is named
    def test_tiny_blocks_match_the_reference(self, text, mode, block, k):
        want = _outcome(lambda: reference_load_input(text, mode))
        cut = want
        if isinstance(want, list):
            cut = want[: _cut_length(reference_load_input(text, mode), k)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK", block)
            for source in (lambda: io.StringIO(text, newline=""), lambda: text):
                assert _outcome(lambda: load_input(source(), mode).values) == want
                assert _outcome(lambda: load_input(source(), mode, keep=k).values) == cut

    @pytest.mark.parametrize("block", [16, core._BLOCK])
    @pytest.mark.parametrize("text", ["1\n" * 100, "1 x\n" + "2\n" * 100, "5 4 3"],
                             ids=["lines", "bad-token-first", "one-line"])
    def test_reads_are_sized_and_reach_the_end(self, text, block, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK", block)
        stream = _ReadLog(text)
        _outcome(lambda: load_input(stream).values)
        assert stream.sizes and all(0 < size <= block for size in stream.sizes)
        assert stream.tell() == len(text)  # a bad token still drains the stream

    @pytest.mark.parametrize("make", [io.StringIO, str], ids=["stream", "str"])
    def test_int_load_peaks_at_most_50_bytes_per_value(self, make):
        # each value keeps about 36 B; a whole-text split peaks near 100 B per value,
        # and a string copied into a stream adds 4 B per character
        n = 200_000
        for keep in (None, 1):
            assert _load_peak(make(_scrambled(n)), keep) <= 50 * n, keep

    def test_cut_load_peak_does_not_grow_with_n(self):
        # the kept values and one block: about 1.2 MB at either size, where a
        # load that holds every value before cutting peaks at 7.7 and 29.5 MB
        small, large = (_load_peak(_scrambled(n), keep=1) for n in (200_000, 800_000))
        assert large <= 1.1 * small


def _scrambled(n: int) -> str:
    """n distinct ints above the small-int cache, one per line, in a scrambled order."""
    return "\n".join(str(10**6 + i * 7919 % n) for i in range(n))


def _load_peak(source, keep) -> int:
    """Peak bytes traced by tracemalloc while ``load_input(source, keep=keep)`` runs."""
    tracemalloc.start()
    try:
        load_input(source, keep=keep)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- answer-bounded load (keep=k) ----------------------------------------------


def _cut_length(values: tuple, k: int) -> int:
    """min(n, m+1), m the count of values <= min(v_k, v_1+...+v_j), j = k.bit_length().

    A term counts only when its positions exist; with neither, all n values.
    The sum is exact, as float values need.
    """
    n, j = len(values), k.bit_length()
    bounds = values[k - 1 : k] + (sum(map(Fraction, values[:j])),) * (j <= n)
    return min(n, bisect_right(values, min(bounds)) + 1) if bounds else n


# tie-heavy value lists: all zeros, one repeated value, few distinct values
_TIED_VALUES = st.one_of(
    st.lists(st.just(0), min_size=1, max_size=10),
    st.integers(0, 5).flatmap(lambda v: st.lists(st.just(v), min_size=1, max_size=10)),
    st.lists(st.integers(0, 3), min_size=1, max_size=10),
)
_BAD_TOKENS = ["-1", "x", str(2**62)]


@st.composite
def _tied_case(draw):
    """A tie-heavy value list and a k from 1 past 2**n, often small enough to cut."""
    vals = draw(_TIED_VALUES)
    k = draw(st.one_of(st.integers(1, max(1, len(vals) - 2)), st.integers(1, 2 ** len(vals) + 2)))
    return vals, k


# zeros, ties and powers of two: subset sums that tie each other or sit on the bound
_WIDTH_VALUES = st.lists(
    st.one_of(st.just(0), st.integers(0, 3), st.sampled_from([1 << e for e in range(12)]),
              st.integers(0, 10**6)),
    min_size=1, max_size=12,
).map(sorted)


@st.composite
def _width_case(draw):
    values = draw(_WIDTH_VALUES)
    return values, draw(st.integers(1, 2 ** len(values) + 2))


def _uniform(n: int, seed: int) -> list:
    """n seeded ints in [1, 10**6], unsorted."""
    stream = splitmix64_stream(seed)
    return [1 + next(stream) % 10**6 for _ in range(n)]


class TestAnswerWidth:
    @given(_width_case())
    @example(([1, 2, 4, 8], 3))  # the sum of the j - 1 smallest, 1, is below the 3rd sum
    @example(([0] * 12, 4097))  # no term applies: every position is kept
    @example(([5, 5, 5, 9], 2))  # v_k binds, on a tie
    def test_every_subset_up_to_the_kth_sum_fits(self, case):
        values, k = case
        ranked = all_subsets_sorted(InputSet(tuple(values)))
        kth = ranked[min(k, len(ranked)) - 1][0]
        width = core.answer_width(values, k)
        assert all(positions[-1] < width for total, positions in ranked if total <= kth)


_COUNTERS = ("total_insertions", "peak_size", "extractions", "prunes")


def _run(r: InputSet, k: int, variant: Variant):
    stream, metrics = topk(r, k, variant)
    records = list(stream)
    return records, {name: getattr(metrics, name) for name in _COUNTERS}


def _answers(records: list, variant: Variant) -> list:
    """(total, positions) per rank, compact's positions replayed from its deltas."""
    if variant is Variant.ONDEMAND_COMPACT:
        records = expand_deltas(records)
    return [(item.total, item.positions) for item in records]


# duplicates, subnormals, values near 1e308, any non-negative float, and now and
# then an inf, a nan or a negative token; -0.0 is accepted, as it equals 0.0
_FLOAT_TOKENS = st.one_of(
    st.sampled_from(["0", "0.5", "1", "1.25", "3", "0.1", "0.2", "0.3", "5e-324",
                     "2.2250738585072014e-308", "1e308", "1.7976931348623157e308",
                     "8.98846567431158e307", "-0.0"] * 3 + ["inf", "nan", "-inf", "-2"]),
    st.floats(min_value=0, allow_infinity=False).map(repr),
)


class TestAnswerBoundedLoad:
    @given(
        st.lists(
            st.tuples(
                # about one token in ten is bad, so most texts are accepted and cut
                st.sampled_from(["0", "0", "1", "2", "3", "5", "7"] * 4 + _BAD_TOKENS),
                st.sampled_from([" ", "\n"]),
            ),
            min_size=1,
            max_size=16,
        ).map(lambda pairs: "".join(tok + sep for tok, sep in pairs)),
        st.integers(1, 12),
    )
    @example("1 2 3 4611686018427387904", 1)
    @example("5 1 2 x", 1)
    @example("3 -1 0 0 0", 2)
    # each arrives in a late block, after the values read so far were cut to 2
    @example("7\n7\n2\n2\n1\n0\n5\n-1\n", 1)
    @example("7\n7\n2\n2\n1\n0\n5\nx\n", 1)
    @example("7\n7\n2\n2\n1\n0\n5\n4611686018427387904\n", 1)
    @example("1\n7\n2\n", 1)  # the limit is 7, the (m+1)-th value, not 1, the m-th
    def test_same_verdict_or_a_prefix(self, text, k):
        full = _outcome(lambda: load_input(text).values)
        if isinstance(full, list):
            full = full[: _cut_length(load_input(text).values, k)]
        # tiny blocks cut between blocks; the default one reads these texts whole
        for block in (2, 4, core._BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "_BLOCK", block)
                # a rejection has the same class and message, an answer is cut
                assert _outcome(lambda: load_input(text, keep=k).values) == full, block

    @settings(max_examples=200)  # all-equal lists never cut, so draw more
    @given(_tied_case())
    @example(([0] * 9, 3))
    @example(([2] * 9, 1))
    @example(([1, 1, 2, 2, 3, 3, 3, 0, 0], 4))
    def test_records_and_counters_match_the_full_load(self, case):
        vals, k = case
        text = " ".join(map(str, vals))
        full, cut = load_input(text), load_input(text, keep=k)
        assert cut.values == full.values[: _cut_length(full.values, k)]
        for variant in Variant:
            want_records, want = _run(full, k, variant)
            got_records, got = _run(cut, k, variant)
            assert got_records == want_records, variant
            assert got == want, variant

    @pytest.mark.parametrize(
        "values",
        [
            [v % 1000 for v in range(20_000)],  # each value 20 times
            [7] * 20_000,  # no cut possible: the kept values double until the end
            [0] * 19_000 + list(range(1000)),  # the cut keeps the tied zeros and one more
            list(range(20_000, 0, -1)),
            # every fourth value is 0: the zeros come in as the limit falls
            [0 if i % 4 == 0 else i for i in range(20_000)],
            # k >= 3000 = n leaves only the sum term to bind
            list(range(1, 3001)),
            _uniform(3000, 18),
        ],
        ids=["repeats", "all-equal", "zero-plateau", "distinct", "zeros-under-the-limit",
             "range-3000", "uniform-3000"],
    )
    @pytest.mark.parametrize("k", [1, 5, 3000, 6000, 15_000, 18_999, 19_998])
    def test_running_cut_on_wide_inputs(self, values, k):
        text = "\n".join(map(str, values))
        full = tuple(sorted(values))
        assert load_input(text, keep=k).values == full[: _cut_length(full, k)]

    def test_float_mode_keeps_the_answer_width_prefix(self):
        full = load_input("3 1 2 2", "float")
        assert full.values == (1.0, 2.0, 2.0, 3.0)
        width = core.answer_width(full.exact, 1)
        assert load_input("3 1 2 2", "float", keep=1).values == full.values[:width] == (1.0, 2.0)

    @settings(max_examples=300)  # about one text in three is cut
    @given(
        st.lists(st.tuples(_FLOAT_TOKENS, st.sampled_from([" ", "\n"])), min_size=1, max_size=16)
        .map(lambda pairs: "".join(tok + sep for tok, sep in pairs)),
        st.one_of(st.integers(1, 8), st.integers(1, 2**10)),
    )
    @example("3 nan 1 2", 1)  # the nan is named wherever it sorts, past the cut too
    @example("5 -2 1 inf", 1)  # the negative value is named, not the inf after it
    @example("1e308 1e308 5e-324 1e308", 3)  # past the float range, the exact sums still order
    @example("0.30000000000000004 0.2 0.1 1", 3)  # the exact 0.1 + 0.2 lies below the third
    def test_float_cut_matches_the_full_load(self, text, k):
        full = _outcome(lambda: load_input(text, "float").values)
        cut = _outcome(lambda: load_input(text, "float", keep=k).values)
        if not isinstance(full, list):  # the same class and message
            assert cut == full
            return
        assert isinstance(cut, list) and cut == full[: len(cut)]
        full, cut = load_input(text, "float"), load_input(text, "float", keep=k)
        for variant in Variant:
            want_records, want = _run(full, k, variant)
            got_records, got = _run(cut, k, variant)
            assert _answers(got_records, variant) == _answers(want_records, variant), variant
            assert got == want, variant

    def test_keep_must_be_positive(self):
        with pytest.raises(ValueError, match="keep"):
            load_input("1 2", keep=0)


def _utf8(data: bytes) -> io.TextIOWrapper:
    """data decoded as the topk CLI decodes a file: UTF-8, universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


class TestSplitLoad:
    """A load split at a "\\n", the rest loaded apart and merged, is the whole load.

    A fault in either part is raised as it comes; the CLI words it by a whole
    load, which ``tests/test_cli.py``'s ``TestSplitLoad`` checks at every cut.
    """

    @pytest.mark.parametrize("data, want", [
        (b"3 x\n1 y\n", (InputError, "unparseable token 'x'")),
        (b"3 1\nx\n", (InputError, "unparseable token 'x'")),
        (b"3 -1\n-2 5\n", (NegativeValueError, "negative value -2 not allowed")),
        (b"1\n4611686018427387904\n", (OverflowRiskError, "n * max(values) = "
                                        "9223372036854775808 exceeds the signed 64-bit range")),
        (b"1\n5 6 4611686018427387904\n", (OverflowRiskError, "n * max(values) = "
                                            "18446744073709551616 exceeds the signed 64-bit range")),
        (b"# c\n\n", (InputError, "empty input: no values found")),
        (b"# c\n5\n", [(int, "5")]),
    ])
    def test_verdicts(self, data, want):
        # the split after the first "\n"
        cut = data.index(b"\n") + 1
        assert _outcome(lambda: load_input(
            _utf8(data[:cut]), keep=1,
            _rest=lambda: core._load_values(_utf8(data[cut:]), int, 1)).values) == want

    def test_the_rest_merges_cut_values(self):
        # each half keeps its own prefix; the merge cuts the union again
        first, rest = "9 8 1 7\n", "6 2 5 3\n"
        r = load_input(first, keep=1, _rest=lambda: core._load_values(rest, int, 1))
        assert r.values == load_input(first + rest, keep=1).values == (1, 2)


def _core_line_events(fn) -> int:
    """Lines executed inside ``topk_subsets.core`` while fn runs."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename != core.__file__:
            return None
        if event == "line":
            count += 1
        return trace

    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count


class TestAcceptPathHasNoPerValueLoop:
    @pytest.mark.parametrize("mode", ["int", "float"])
    def test_load_input(self, mode):
        small = _core_line_events(lambda: load_input("3 1 # c\n2", mode))
        lines = "\n".join(f"{v} # c" for v in range(2000, 0, -1))
        assert _core_line_events(lambda: load_input(lines, mode)) == small

    def test_load_input_with_keep(self):
        # both texts have the same shape, lines with a comment and no final "\n", so
        # both fit one block and are read as the same two pieces
        def text(values):
            return "\n".join(f"{v} # c" for v in values)

        # 20 and 2000 values both cut to the 1 smallest and the next
        small = _core_line_events(lambda: load_input(text(range(20, 0, -1)), keep=1))
        lines = text(range(2000, 0, -1))
        assert _core_line_events(lambda: load_input(lines, keep=1)) == small
        # keep >= n: 20 and 2000 values both cut by the sum of the 11 smallest
        small = _core_line_events(
            lambda: load_input(text([10**6, *range(19, 0, -1)]), keep=2000))
        assert _core_line_events(lambda: load_input(lines, keep=2000)) == small

    @pytest.mark.parametrize("mode", ["int", "float"])
    def test_load_input_grows_per_block(self, mode, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK", 4096)
        line = "{} # abcde\n"  # 16 characters: 256 values fill one block

        def events(blocks):
            text = "".join(line.format(10**6 + i) for i in range(256 * blocks, 0, -1))
            return _core_line_events(lambda: load_input(io.StringIO(text), mode))

        counts = [events(blocks) for blocks in (1, 2, 3, 4)]
        steps = {b - a for a, b in zip(counts, counts[1:])}
        assert len(steps) == 1 and 0 < steps.pop() < 256

    def test_input_set(self):
        small = _core_line_events(lambda: InputSet((1, 2)))
        assert _core_line_events(lambda: InputSet(tuple(range(2000)))) == small
        small = _core_line_events(lambda: InputSet((0.5, 2.0), "float"))
        assert _core_line_events(lambda: InputSet((0.5,) * 2000, "float")) == small


class TestValidatePositions:
    def test_ok(self):
        validate_positions((1, 3), 3)

    @pytest.mark.parametrize(
        "positions", [(), (0, 1), (1, 4), (2, 2), (3, 1)], ids=repr
    )
    def test_bad(self, positions):
        with pytest.raises(InputError):
            validate_positions(positions, 3)


def oracle_total(positions: tuple, r: InputSet):
    """The total that the oracle reports for the subset at ``positions``."""
    return next(total for total, p in all_subsets_sorted(r) if p == positions)


class TestSumOf:
    """Totals as the oracle adds them: exact ints, rounded once in float mode."""

    def test_int_exact(self):
        r = InputSet.from_values([1, 2, 3, 4])
        assert oracle_total((1, 4), r) == 5
        assert oracle_total((1, 2, 3, 4), r) == 10

    def test_float_uses_compensated_sum(self):
        r = InputSet.from_values((0.1,) * 10, mode="float")
        # naive left-to-right accumulation gives 0.9999999999999999 here;
        # the exact sum of ten 0.1 floats rounds once to 1.0
        assert oracle_total(tuple(range(1, 11)), r) == 1.0

    def test_float_totals_are_floats_and_inf_past_the_range(self):
        r = InputSet.from_values((1e308, 1e308), mode="float")
        assert oracle_total((1, 2), r) == math.inf
        assert type(oracle_total((1,), InputSet.from_values((1.0, 2.0**53), mode="float"))) is float


class TestBitsAndPositions:
    def test_positions_from_bits_forms(self):
        # one byte per position; any non-zero byte is a member
        assert positions_from_bits(b"\x00\x01\x00\x01") == (2, 4)
        assert positions_from_bits(b"\x00\x02\x00\xff") == (2, 4)

    def test_bits_from_positions(self):
        assert bits_from_positions((2, 4), 4) == b"\x00\x01\x00\x01"
        assert bits_from_positions((1,), 1) == b"\x01"

    def test_mask_low_bit_is_position_one(self):
        assert mask_from_positions((1,)) == 1
        assert mask_from_positions((1, 3)) == 0b101
        assert mask_from_positions((2, 4)) == 0b1010

    @given(st.sets(st.integers(1, 60), min_size=1), st.randoms())
    def test_round_trip(self, posset, rng):
        positions = tuple(sorted(posset))
        n = positions[-1] + rng.randrange(3)
        bits = bits_from_positions(positions, n)
        assert len(bits) == n
        assert positions_from_bits(bits) == positions


def cursors_of(bits: bytes) -> tuple[int, int, int, int]:
    """The cursors of a 0/1 pattern, through the positions-based derivation."""
    return _cursors(positions_from_bits(bits))


def _reference_cursors(bits: bytes) -> tuple[int, int, int, int]:
    """Cursor recomputation written a second way, via run-length groups."""
    runs = [(v, len(list(g))) for v, g in itertools.groupby(bits)]
    pos, fag, pe = 1, 0, 0
    if runs[0][0] == 1:
        pe = runs[0][1]
    seen_zero = False
    for v, length in runs:
        if v == 0:
            seen_zero = True
        elif seen_zero:
            fag = pos
            break
        pos += length
    last = max(i for i, b in enumerate(bits, 1) if b)
    sag = 0
    if fag:
        later = [i for i, b in enumerate(bits, 1) if b and i > fag]
        sag = later[0] if later else 0
    return fag, pe, last, sag


class TestCursors:
    @pytest.mark.parametrize(
        "pattern,expected",
        [
            ("1000", (0, 1, 1, 0)),
            ("1", (0, 1, 1, 0)),
            ("1010", (3, 1, 3, 0)),
            ("0110", (2, 0, 3, 3)),
            ("0101", (2, 0, 4, 4)),
            ("1101", (4, 2, 4, 0)),
            ("1111", (0, 4, 4, 0)),
            ("0001", (4, 0, 4, 0)),
        ],
    )
    def test_known_patterns(self, pattern, expected):
        assert cursors_of(bytes(map(int, pattern))) == expected

    def test_first_after_gap_never_one(self):
        # position 1 can never follow a zero run
        for n in range(1, 9):
            for mask in range(1, 1 << n):
                bits = bytes((mask >> i) & 1 for i in range(n))
                assert cursors_of(bits)[0] != 1

    @given(st.integers(1, 14), st.integers(1, 2**14 - 1))
    def test_matches_group_based_reference(self, n, mask):
        mask &= (1 << n) - 1
        if mask == 0:
            mask = 1
        bits = bytes((mask >> i) & 1 for i in range(n))
        assert cursors_of(bits) == _reference_cursors(bits)


def _ranked(rank, total, parent, removed, added):
    return RankedSubset(rank, total, None, Delta(parent, removed, added))


class TestExpandDeltas:
    def test_replay(self):
        stream = [
            _ranked(1, 1, None, None, 1),
            _ranked(2, 2, 1, 1, 2),
            _ranked(3, 3, 2, 2, 3),
            _ranked(4, 3, 2, None, 1),
            _ranked(5, 4, 3, 3, 4),
        ]
        got = [(it.rank, it.total, it.positions) for it in expand_deltas(stream)]
        assert got == [
            (1, 1, (1,)),
            (2, 2, (2,)),
            (3, 3, (3,)),
            (4, 3, (1, 2)),
            (5, 4, (4,)),
        ]

    def test_missing_delta(self):
        with pytest.raises(ValueError, match="no delta"):
            list(expand_deltas([RankedSubset(1, 1, (1,), None)]))

    def test_malformed_root(self):
        with pytest.raises(ValueError, match="root"):
            list(expand_deltas([_ranked(1, 1, None, 1, 1)]))

    def test_unknown_parent(self):
        stream = [_ranked(1, 1, None, None, 1), _ranked(2, 2, 7, 1, 2)]
        with pytest.raises(ValueError, match="unknown rank 7"):
            list(expand_deltas(stream))

    def test_removed_absent(self):
        stream = [_ranked(1, 1, None, None, 1), _ranked(2, 2, 1, 2, 3)]
        with pytest.raises(ValueError, match="absent"):
            list(expand_deltas(stream))

    def test_added_already_present(self):
        stream = [_ranked(1, 1, None, None, 1), _ranked(2, 2, 1, None, 1)]
        with pytest.raises(ValueError, match="already present"):
            list(expand_deltas(stream))

    def test_lazy(self):
        def feed():
            yield _ranked(1, 1, None, None, 1)
            raise RuntimeError("must not be pulled")

        it = expand_deltas(feed())
        assert next(it).positions == (1,)

    def test_shift_onto_an_occupied_slot(self):
        # {1, 2}: moving 1 to 2 lands on a member
        stream = [_ranked(1, 1, None, None, 1), _ranked(2, 3, 1, None, 2),
                  _ranked(3, 4, 2, 1, 2)]
        with pytest.raises(ValueError, match="rank 3: added position 2 already present"):
            list(expand_deltas(stream))

    @pytest.mark.parametrize("parent", [0, -1, 2, 3])
    def test_parent_rank_out_of_range(self, parent):
        stream = [_ranked(1, 1, None, None, 1), _ranked(2, 2, parent, 1, 2)]
        with pytest.raises(ValueError, match=f"rank 2: delta references unknown rank {parent}$"):
            list(expand_deltas(stream))

    @pytest.mark.parametrize("ranks", [(2,), (1, 3), (1, 1), (1, 2, 2), (0,)])
    def test_rank_out_of_sequence(self, ranks):
        stream = [_ranked(rank, rank, None, None, rank) for rank in ranks]
        with pytest.raises(ValueError, match=f"rank {ranks[-1]}: out of sequence"):
            list(expand_deltas(stream))


_new = tuple.__new__


def reference_expand_deltas(stream: Iterable[RankedSubset]) -> Iterator[RankedSubset]:
    """``expand_deltas`` before its rank-indexed list, kept verbatim but for its name.

    Replay a delta stream into explicit position tuples.

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


def _replay(expand, stream):
    """The records an expansion yields, and the message it stops with, if any."""
    out = []
    try:
        for item in expand(stream):
            out.append(item)
    except ValueError as exc:
        return out, str(exc)
    return out, None


_POSITION = st.one_of(st.none(), st.integers(1, 6))


@st.composite
def _delta_stream(draw):
    """Consecutive ranks with loose deltas: mostly valid, some bad parents, clashes."""
    root = draw(st.integers(1, 6))
    stream, subsets = [_ranked(1, 1, None, None, root)], [None, {root}]
    for rank in range(2, draw(st.integers(2, 14)) + 1):
        kind = draw(st.integers(0, 9))  # 0-7 a known parent, 8 a root, 9 an unknown rank
        if kind < 8:
            parent = draw(st.integers(1, rank - 1))
            members = sorted(subsets[parent]) or [1]
            removed = draw(st.sampled_from([None, *members, *members, draw(_POSITION)]))
        else:
            parent = None if kind == 8 else draw(st.sampled_from([-1, 0, rank, rank + 1]))
            members, removed = [], draw(st.sampled_from([None, None, 1]))
        added = draw(st.sampled_from([None, removed and removed + 1, removed and removed + 1,
                                      draw(_POSITION)]))
        stream.append(_ranked(rank, rank, parent, removed, added))
        subsets.append(set(members) - {removed} | {added} - {None})
    return stream


class TestExpandDeltasMatchesReference:
    @given(_delta_stream())
    def test_hand_made_streams(self, stream):
        assert _replay(expand_deltas, stream) == _replay(reference_expand_deltas, stream)

    @given(_TIED_VALUES.flatmap(
        lambda vals: st.tuples(st.just(vals), st.integers(1, 2 ** len(vals) + 3))))
    def test_compact_streams(self, case):
        vals, k = case
        records = list(topk(InputSet.from_values(sorted(vals)), k, Variant.ONDEMAND_COMPACT)[0])
        got = _replay(expand_deltas, records)
        assert got == _replay(reference_expand_deltas, records)
        assert got[1] is None and len(got[0]) == len(records)

    def test_wide_compact_stream(self):
        r = InputSet.from_values(range(1, 301))
        records = list(topk(r, 20_000, Variant.ONDEMAND_COMPACT)[0])
        assert list(expand_deltas(records)) == list(reference_expand_deltas(records))
