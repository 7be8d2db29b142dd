"""What the weight entry points accept and refuse at the edges of the count domain.

`np.array` infers bool for an all-bool list, float64 for ints beside 2^63,
object past 2^64 and a string dtype beside a str: the places where an array
port could silently change what is accepted.  Each row gives, for one input,
the outcome of `WeightVector(...)`, `WeightVector.from_values`, `preprocess`
under Passthrough, Ignore and Truncate(1/5, 1/2), and `read_weights_file` on
the input written one value a line: the accepted values, or the refusal's
type and message.

The table is the one the tuple-backed vector gave, with three deliberate
differences, each marked in its row:
- numpy integer arrays and scalars are counts now that the vector is an
  int64 array (the tuple refused them as not Python ints);
- `from_values` and `preprocess` name a non-integer as the constructor does,
  where the tuple's `sorted` raised TypeError on the comparison;
- accepted values come back as array elements, so a bool count reads as 0
  or 1.

`preprocess` returns one read-only `exact_counts` array in client order, as
the vector does in sorted order; where the tuple-backed code gave a list of
Python ints, the table holds the array's values.
"""

from __future__ import annotations

from fractions import Fraction as F

import numpy as np
import pytest

from byzweight.weights import (
    Ignore,
    Passthrough,
    PreprocessInfeasible,
    Truncate,
    TruncationQuery,
    WeightVector,
    ZeroTotalWeight,
    preprocess,
    read_weights_file,
)


def bad(offender: str):
    return ValueError, f"weights must be non-negative integers, got {offender}"


def line(n: int, message: str):
    return ValueError, f"<path>:{n}: {message}"


UNSORTED = ValueError, "values must be sorted non-decreasing"
EMPTY = ValueError, "weight vector must hold at least one client"
ZERO = ZeroTotalWeight, "cannot compute shares of an all-zero weight vector"
INFEASIBLE = PreprocessInfeasible, "no cap satisfies share limit 1/2 at fraction 1/5"
NEGATIVE = "weights must be non-negative"
ONES = [1] * 5

# input: (WeightVector, from_values, passthrough, ignore, truncate, file);
# None: the input has no one-value-a-line file form
ROWS = [
    ([-1], [bad("-1")] * 5 + [line(1, NEGATIVE)]),
    ([1, 1, 1, 1, -1], [bad("-1")] * 5 + [line(5, NEGATIVE)]),
    ([0], [[0], [0], [0], [1], ZERO, [0]]),
    ([1, 1, 1, 1, 0], [UNSORTED, [0, 1, 1, 1, 1], [1, 1, 1, 1, 0], ONES, [1, 1, 1, 1, 0],
                       [0, 1, 1, 1, 1]]),
    *[row for x in (2**62 - 1, 2**62 + 1, 2**63 - 1, 2**63, 2**64, 2**70) for row in (
        ([x], [[x], [x], [x], [1], INFEASIBLE, [x]]),
        ([1, 1, 1, 1, x], [[1, 1, 1, 1, x]] * 3 + [ONES, [1, 1, 1, 1, 4], [1, 1, 1, 1, x]]),
    )],
    ([True], [[1], [1], [1], [1], INFEASIBLE, line(1, "not an integer: 'True'")]),
    ([1, 1, 1, 1, True], [ONES] * 5 + [line(5, "not an integer: 'True'")]),
    ([False], [[0], [0], [0], [1], ZERO, line(1, "not an integer: 'False'")]),
    ([1, 1, 1, 1, False], [UNSORTED, [0, 1, 1, 1, 1], [1, 1, 1, 1, 0], ONES, [1, 1, 1, 1, 0],
                           line(5, "not an integer: 'False'")]),
    ([1.0], [bad("1.0")] * 5 + [line(1, "not an integer: '1.0'")]),
    ([1, 1, 1, 1, 1.0], [bad("1.0")] * 5 + [line(5, "not an integer: '1.0'")]),
    ([1.5], [bad("1.5")] * 5 + [line(1, "not an integer: '1.5'")]),
    ([1, 1, 1, 1, 1.5], [bad("1.5")] * 5 + [line(5, "not an integer: '1.5'")]),
    ([True, False], [UNSORTED, [0, 1], [1, 0], [1, 1], INFEASIBLE,
                     line(1, "not an integer: 'True'")]),
    ([False, True, 2], [[0, 1, 2], [0, 1, 2], [0, 1, 2], [1, 1, 1], [0, 1, 1],
                        line(1, "not an integer: 'False'")]),
    ([1, 2.0], [bad("2.0")] * 5 + [line(2, "not an integer: '2.0'")]),
    ([3, 1, 2], [UNSORTED, [1, 2, 3], [3, 1, 2], [1, 1, 1], [3, 1, 2], [1, 2, 3]]),
    ([], [EMPTY] * 5 + [(ValueError, "<path>: no weights found")]),
    ([-1, 2**63], [bad("-1")] * 5 + [line(1, NEGATIVE)]),
    ([2**63, -1], [bad("-1")] * 5 + [line(2, NEGATIVE)]),
    ([1, 2**63], [[1, 2**63]] * 3 + [[1, 1], [1, 1], [1, 2**63]]),
    ([2**63, 2**64, 1], [UNSORTED, [1, 2**63, 2**64], [2**63, 2**64, 1], [1, 1, 1],
                         [2**63, 2**63 + 1, 1], [1, 2**63, 2**64]]),
    # from_values and preprocess: TypeError from sorted's comparison before
    ([1, "a"], [bad("'a'")] * 5 + [line(2, "not an integer: 'a'")]),
    ([[1], 2], [bad("[1]")] * 5 + [line(1, "not an integer: '[1]'")]),
    ([1, None], [bad("None")] * 5 + [line(2, "not an integer: 'None'")]),
    # numpy integers: refused before as not Python ints
    (np.array([1, 2, 9]), [[1, 2, 9], [1, 2, 9], [1, 2, 9], [1, 1, 1], [1, 2, 3], None]),
    (np.array([1, 2, 9], np.int32), [[1, 2, 9], [1, 2, 9], [1, 2, 9], [1, 1, 1], [1, 2, 3], None]),
    (np.array([1, 2, 9], np.uint64), [[1, 2, 9], [1, 2, 9], [1, 2, 9], [1, 1, 1], [1, 2, 3], None]),
    (np.array([1, 2**63], np.uint64), [[1, 2**63]] * 3 + [[1, 1], [1, 1], None]),
    ([np.int64(1), 2], [[1, 2], [1, 2], [1, 2], [1, 1], [1, 1], [1, 2]]),
    # numpy values that are not integers, or negative, stay refused
    (np.array([-1, 2]), [bad("np.int64(-1)")] * 5 + [None]),
    (np.array([1.0, 2.0]), [bad("np.float64(1.0)")] * 5 + [None]),
    (np.array([False, True]), [bad("np.False_")] * 5 + [None]),
]

QUERY = TruncationQuery(F(1, 5), F(1, 2))


def check(call, want, path="<path>"):
    if isinstance(want, tuple):
        error, message = want
        with pytest.raises(error) as info:
            call()
        assert str(info.value).replace(str(path), "<path>") == message
        return None
    return call()


def check_array(out, want, values):
    assert out.tolist() == want
    assert out.dtype == (object if max(want) >= 2**63 else np.int64)
    assert not out.flags.writeable
    assert not isinstance(values, np.ndarray) or values.flags.writeable  # the caller's array


def check_vector(call, want, path="<path>", values=None):
    v = check(call, want, path)
    if v is not None:
        check_array(v.values, want, values)


def check_weights(call, want, values):
    out = check(call, want)
    if out is not None:
        check_array(out, want, values)


@pytest.mark.parametrize("values, want", ROWS, ids=[repr(r[0]) for r in ROWS])
def test_boundary_inputs(tmp_path, values, want):
    check_vector(lambda: WeightVector(values), want[0], values=values)
    check_vector(lambda: WeightVector.from_values(values), want[1], values=values)
    for mode, expected in zip((Passthrough(), Ignore(), Truncate(QUERY)), want[2:5]):
        check_weights(lambda: preprocess(values, mode), expected, values)
    if want[5] is not None:
        path = tmp_path / "w.txt"
        path.write_text("".join(f"{x}\n" for x in values))
        check_vector(lambda: read_weights_file(path), want[5], path)


def test_vector_holds_a_read_only_view():
    # an int64 array is not copied: the vector reads it through a read-only
    # view, and the caller's own array stays writeable
    counts = np.array([1, 2, 3])
    v = WeightVector(counts)
    assert counts.flags.writeable and not v.values.flags.writeable
    with pytest.raises(ValueError):
        v.values[0] = 5


@pytest.mark.parametrize("mode", [Passthrough(), Truncate(TruncationQuery(F(1, 3), F(1, 2)))])
def test_preprocess_returns_a_read_only_view(mode):
    # counts that need no cap come back as a read-only view of the caller's
    # int64 array, which stays writeable
    counts = np.array([1, 2, 3])
    out = preprocess(counts, mode)
    assert np.shares_memory(out, counts) and out.tolist() == [1, 2, 3]
    assert counts.flags.writeable and not out.flags.writeable
    with pytest.raises(ValueError):
        out[0] = 5


# one odd line of a weights file, and the outcome it gives: its value, or
# the refusal's message.  The bulk parse applies int() to each line as the
# line-by-line loop does, so both give what the loop alone gave.
ODD_LINES = [
    ("1_000", 1000), ("+5", 5), (" 7 ", 7), ("\t8", 8), ("٣", 3), ("５", 5), ("-0", 0),
    ("5\x00", "not an integer: '5\\x00'"), ("0x10", "not an integer: '0x10'"),
    ("1.0", "not an integer: '1.0'"), ("1e3", "not an integer: '1e3'"),
    ("True", "not an integer: 'True'"), ("-5", NEGATIVE),
    (str(2**63), 2**63), (str(2**64), 2**64),
]


@pytest.mark.parametrize("text, want", ODD_LINES, ids=[repr(r[0]) for r in ODD_LINES])
@pytest.mark.parametrize("before", [[], [1]], ids=["alone", "after-1"])
def test_odd_weight_file_lines(tmp_path, text, want, before):
    path = tmp_path / "w.txt"
    path.write_text("".join(f"{x}\n" for x in before) + text + "\n")
    n = len(before) + 1
    check_vector(lambda: read_weights_file(path),
                 line(n, want) if isinstance(want, str) else sorted(before + [want]), path)
