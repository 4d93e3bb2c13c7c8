"""Input handling, bit/position conversions, cursor recomputation, deltas."""

import io
import itertools
import math
import sys
from bisect import bisect_right
from enum import IntEnum
from typing import IO, Sequence, Union

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topk_subsets import core
from topk_subsets.core import (
    Delta,
    InputError,
    InputSet,
    NegativeValueError,
    OverflowRiskError,
    RankedSubset,
    cursors_from_bits,
    expand_deltas,
    load_input,
    mask_from_positions,
    positions_from_bits,
    sum_of,
    validate_positions,
)
from topk_subsets.enumerators import Variant, topk
from topk_subsets.shifts import ShiftKind


def bits_from_positions(positions: Sequence[int], n: int) -> bytes:
    validate_positions(positions, n)
    b = bytearray(n)
    for p in positions:
        b[p - 1] = 1
    return bytes(b)


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


# -- answer-bounded load (keep=k) ----------------------------------------------


def _cut_length(values: tuple, k: int) -> int:
    """min(n, m+1), with m the last position whose value equals v_k."""
    n = len(values)
    return n if k >= n else min(n, bisect_right(values, values[k - 1]) + 1)


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


# every variant, and dedup once per edge set
_EDGE_SETS = (ShiftKind.INCREMENTAL, ShiftKind.MANDATORY_INCREMENTAL,
              ShiftKind.MODIFIED_MANDATORY_INCREMENTAL)
_RUNS = [(v, ShiftKind.INCREMENTAL) for v in Variant if v is not Variant.DEDUP_HEAP] + [
    (Variant.DEDUP_HEAP, e) for e in _EDGE_SETS
]
_COUNTERS = ("total_insertions", "peak_size", "extractions", "prunes")


def _run(r: InputSet, k: int, variant: Variant, edge_set: ShiftKind):
    stream, metrics = topk(r, k, variant, edge_set=edge_set)
    records = list(stream)
    return records, {name: getattr(metrics, name) for name in _COUNTERS}


class TestAnswerBoundedLoad:
    @given(
        st.lists(
            st.one_of(st.sampled_from(["0", "0", "1", "2", "7"]), st.sampled_from(_BAD_TOKENS)),
            min_size=1,
            max_size=10,
        ).map(" ".join),
        st.integers(1, 12),
    )
    @example("1 2 3 4611686018427387904", 1)
    @example("5 1 2 x", 1)
    @example("3 -1 0 0 0", 2)
    def test_same_verdict_or_a_prefix(self, text, k):
        full = _outcome(lambda: load_input(text).values)
        cut = _outcome(lambda: load_input(text, keep=k).values)
        if isinstance(full, tuple):  # rejected: same class and message
            assert cut == full
        else:
            assert cut == full[: _cut_length(load_input(text).values, k)]

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
        for variant, edge_set in _RUNS:
            want_records, want = _run(full, k, variant, edge_set)
            got_records, got = _run(cut, k, variant, edge_set)
            assert got_records == want_records, (variant, edge_set)
            if (variant, edge_set) == (Variant.DEDUP_HEAP, ShiftKind.INCREMENTAL):
                # incr adds any absent position up to n: the cut run inserts less
                assert got["extractions"] == want["extractions"]
                assert all(got[name] <= want[name] for name in _COUNTERS)
            else:
                assert got == want, (variant, edge_set)

    @pytest.mark.parametrize(
        "values",
        [
            [v % 1000 for v in range(20_000)],  # each value 20 times
            [7] * 20_000,  # no cut possible: the threshold keeps all
            [0] * 19_000 + list(range(1000)),  # the threshold keeps only the tied zeros
            list(range(20_000, 0, -1)),
            # the stride sample sees only the zeros: the threshold keeps too few values
            [0 if i % 4 == 0 else i for i in range(20_000)],
        ],
        ids=["repeats", "all-equal", "zero-plateau", "distinct", "sampled-zeros"],
    )
    @pytest.mark.parametrize("k", [1, 5, 3000, 6000, 18_999, 19_998])
    def test_sampled_thresholds_on_wide_inputs(self, values, k):
        text = "\n".join(map(str, values))
        full = tuple(sorted(values))
        assert load_input(text, keep=k).values == full[: _cut_length(full, k)]

    def test_float_mode_is_not_cut(self):
        assert load_input("3 1 2 2", "float", keep=1).values == (1.0, 2.0, 2.0, 3.0)

    def test_keep_must_be_positive(self):
        with pytest.raises(ValueError, match="keep"):
            load_input("1 2", keep=0)


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
        # 20 and 2000 values both filter below one sampled threshold
        small = _core_line_events(lambda: load_input(" ".join(map(str, range(20, 0, -1))), keep=1))
        lines = "\n".join(f"{v} # c" for v in range(2000, 0, -1))
        assert _core_line_events(lambda: load_input(lines, keep=1)) == small

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


class TestSumOf:
    def test_int_exact(self):
        r = InputSet.from_values([1, 2, 3, 4])
        assert sum_of((1, 4), r) == 5
        assert sum_of((1, 2, 3, 4), r) == 10

    def test_float_uses_compensated_sum(self):
        r = InputSet.from_values((0.1,) * 10, mode="float")
        # naive left-to-right accumulation gives 0.9999999999999999 here
        assert sum_of(tuple(range(1, 11)), r) == 1.0


class TestBitsAndPositions:
    def test_positions_from_bits_forms(self):
        # bytes, 0/1 string, and int sequence all decode the same
        assert positions_from_bits(b"\x00\x01\x00\x01") == (2, 4)
        assert positions_from_bits("0101") == (2, 4)
        assert positions_from_bits([0, 1, 0, 1]) == (2, 4)

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
        assert cursors_from_bits(pattern) == expected

    def test_input_forms_agree(self):
        want = cursors_from_bits("1101")
        assert cursors_from_bits(b"\x01\x01\x00\x01") == want
        assert cursors_from_bits([1, 1, 0, 1]) == want

    def test_all_zero_rejected(self):
        with pytest.raises(InputError):
            cursors_from_bits("000")

    def test_first_after_gap_never_one(self):
        # position 1 can never follow a zero run
        for n in range(1, 9):
            for mask in range(1, 1 << n):
                bits = bytes((mask >> i) & 1 for i in range(n))
                assert cursors_from_bits(bits)[0] != 1

    @given(st.integers(1, 14), st.integers(1, 2**14 - 1))
    def test_matches_group_based_reference(self, n, mask):
        mask &= (1 << n) - 1
        if mask == 0:
            mask = 1
        bits = bytes((mask >> i) & 1 for i in range(n))
        assert cursors_from_bits(bits) == _reference_cursors(bits)


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
