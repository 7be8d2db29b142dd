"""Exact-arithmetic preprocessing of client-declared sample counts.

A federation of K clients reports integer sample counts.  A coalition of up
to an ``alpha`` fraction of clients may lie, so the aggregation weight any
small group can hold must be limited: the combined share of the largest
``alpha``-fraction of clients has to stay at or below ``alpha_star``.
Among real-valued repairs that only shrink counts, capping every count at a
common bound is the cheapest in L1 distance.  This module computes the
largest integer such bound exactly, with the full trade-off between assumed
coalition size and the resulting cap, in array code: int64 while magnitudes
stay below 2^62, else Python integers, and shares as fractions.  The integer
cap is the floor of the real-valued one, so it removes fewer than n units
more than the cheapest integer repair, where n is the number of clients whose
counts exceed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np


class ZeroTotalWeight(ValueError):
    """A weight vector with zero total cannot be given shares."""


class PreprocessInfeasible(ValueError):
    """No cap makes the declared counts satisfy the share limit."""


def as_fraction(x: Union[Fraction, int, float, str]) -> Fraction:
    """Coerce to an exact Fraction.

    Floats are converted through their shortest decimal repr, so 0.3 means
    3/10 rather than the underlying binary value.
    """
    if isinstance(x, float):
        x = str(x)
    if isinstance(x, (Fraction, int, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:  # "1/0": argparse reports only ValueError and TypeError
            raise ValueError(f"{x!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {x!r} as an exact fraction")


def exact_counts(values) -> np.ndarray:
    """`values`, one count per client, as one exact array: int64 (no copy of an int64 array),
    or Python ints once a count reaches 2^63, where int64 wraps.  Python ints and numpy
    integers are counts; anything else, or a negative one, raises ValueError naming it."""
    values = values if isinstance(values, (list, tuple, np.ndarray)) else list(values)
    if len(values) == 0:
        raise ValueError("weight vector must hold at least one client")
    try:  # numpy infers bool for all-bool lists, float64 beside 2^63 and object past 2^64
        array = np.asarray(values)
    except ValueError:  # ragged rows
        array = np.asarray(values, object)
    if array.ndim != 1 or array.dtype.kind not in "iu" or array.min() < 0:
        for x in values:
            if not isinstance(x, (int, np.integer)) or x < 0:
                raise ValueError(f"weights must be non-negative integers, got {x!r}")
        array = np.array(values, object)
    wide = array.dtype.kind != "i" and array.max() >= 2**63
    return array.astype(object if wide else np.int64, copy=False)


def exact_cap(cap, least: int = 0, name: str = "cap") -> int:
    """`cap` as a Python int, a count by `exact_counts`' rule (a Python int, bools
    among them, or a numpy integer) of at least `least` (0 or 1); else ValueError naming it."""
    if not isinstance(cap, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {cap!r}")
    if cap < least:
        raise ValueError(f"{name} must be {'positive' if least else 'non-negative'}, got {cap}")
    return int(cap)


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Client weights sorted non-decreasing, one read-only `exact_counts`
    array; shares and caps need no client ids."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = exact_counts(self.values).view()  # the caller's array stays writeable
        if not (values[1:] >= values[:-1]).all():
            raise ValueError("values must be sorted non-decreasing")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "WeightVector":
        return cls(np.sort(exact_counts(values)))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class TruncationQuery:
    """Assumed lying-client fraction and the share limit to enforce."""

    alpha: Fraction
    alpha_star: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "alpha_star", as_fraction(self.alpha_star))
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0 < self.alpha_star < 1:
            raise ValueError(f"alpha_star must lie in (0, 1), got {self.alpha_star}")


class TruncationStatus:
    SOLVED = "solved"
    NO_TRUNCATION_NEEDED = "no_truncation_needed"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class TruncationOutcome:
    """Result of solving for the largest admissible cap."""

    status: str
    cap: int | None = None
    achieved_share: Fraction | None = None


@dataclass(frozen=True, eq=False)
class TradeoffCurve:
    """The feasible pairs: for alpha = js[i]/k, strictly decreasing, the
    largest cap caps[i].  Both are read-only 1-D arrays in `_crossings`'
    dtypes: int64, or Python ints once the arithmetic passes int64."""

    k: int
    js: np.ndarray
    caps: np.ndarray
    BLOCK = 8192  # rows a CSV block; a whole-curve buffer raised the process's resident peak

    def __post_init__(self) -> None:
        for name in ("js", "caps"):
            array = getattr(self, name).view()  # the caller's array stays writeable
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def to_csv(self) -> str:
        """A line a pair, alpha as f"{j / k:.6f}" prints it, then the cap."""
        blocks = range(0, len(self.js), self.BLOCK)
        return "alpha,u_star\n" + "".join([self._block(i, i + self.BLOCK) for i in blocks])

    def _block(self, start: int, stop: int) -> str:
        """Rows start..stop-1 as text, filled digit by digit into one byte buffer."""
        k, js, caps = self.k, self.js[start:stop], self.caps[start:stop]
        # alpha in millionths, rounded half up: a tie, and a j past 2^32 where
        # the float of j/k may cross a rounding boundary, take Python's own below
        q = (js if k * 10**6 < 2**63 else js.astype(object)) * 10**6
        rem = q % k
        q = q // k + (2 * rem > k)
        tens = 10 ** np.arange(1, len(str(caps.max())), dtype=caps.dtype)
        width = np.searchsorted(tens, caps, "right") + 1  # the cap's digits
        ends = np.cumsum(width + 10)  # a line: "d.dddddd," and the cap and "\n"
        comma = ends - 2 - width
        line = np.empty(ends[-1], np.uint8)
        for back in range(len(tens) + 1):  # a short cap writes its leading zeros onto the comma
            line[np.maximum(ends - 2 - back, comma)] = caps % 10 + 48
            caps = caps // 10
        for back in range(1, 7):
            line[comma - back] = q % 10 + 48
            q = q // 10
        line[comma - 8], line[comma - 7], line[comma], line[ends - 1] = q + 48, 46, 44, 10  # . , \n
        for i in np.flatnonzero((2 * rem == k) | (js >= 2**32)).tolist():
            line[comma[i] - 8:comma[i]] = np.frombuffer(f"{int(js[i]) / k:.6f}".encode(), np.uint8)
        return line.tobytes().decode()


def top_share(v: WeightVector, fraction: Union[Fraction, int, float, str]) -> Fraction:
    """Share of total weight held by the top `fraction` of clients.

    The count of clients in the top group is exact: client i (1-based, sorted
    ascending) belongs iff i > (1 - fraction) * K.
    """
    p = as_fraction(fraction)
    if not 0 <= p <= 1:
        raise ValueError(f"fraction must lie in [0, 1], got {p}")
    k = len(v)
    values = _widened(v.values, k)
    total = int(values.sum())
    if total == 0:
        raise ZeroTotalWeight("cannot compute shares of an all-zero weight vector")
    return Fraction(int(values[math.floor((1 - p) * k):].sum()), total)


def truncate(v: WeightVector, cap: int) -> WeightVector:
    """Cap every weight at `cap`."""
    cap = exact_cap(cap)
    # a cap at or above the largest weight changes none, and may not fit in int64
    return v if cap >= v.values[-1] else WeightVector(np.minimum(v.values, cap))


def _widened(values: np.ndarray, factor: int) -> np.ndarray:
    """`values`, as Python ints unless `factor` times the largest, the largest
    magnitude the caller forms, is below 2^62: numpy's int64 wraps silently."""
    return values if factor * int(values[-1]) < 2**62 else values.astype(object)


def _crossings(values: np.ndarray, js: np.ndarray, p: int, q: int) -> tuple[np.ndarray, ...]:
    """For the top-group sizes j in `js` (decreasing), the largest integer
    cap that keeps the capped top-j share at or below p/q, or 0 when no cap
    of at least 1 does: the leading js, up to the first that the uncapped
    vector meets the limit for, and their caps.

    Interval u (1-based) holds the caps between the u-th and (u+1)-th
    smallest weights v; there the top-j share exceeds p/q iff r + s*cap > 0,
    with r = a*q - c*p and s = b*q - d*p for a the weight of top-group
    clients at or below u, b the count of those above u, c the weight at or
    below u and d the count of clients above u.  Each j's answer lies in the
    first interval whose upper end exceeds the limit.  With the total there,
    T(u) = prefix[u] + (k-u)*v[u], non-decreasing in u, that is for u <= k-j
    iff j > p*T(u)/(q*v[u]), a bound that does not rise with u, and for
    u > k-j iff (q-p)*T(u) > q*prefix[k-j]: one searchsorted call each.
    """
    k, spare = len(values), q - p
    v = _widened(values, q * k)  # every product below stays under 2^63
    prefix = np.concatenate(([0], np.cumsum(v)))
    u0 = max(1, int(np.searchsorted(v, 0, "right")))  # a zero upper end never exceeds the limit
    # numpy reuses each of the next two lines' temporaries, so each leaves one buffer
    total = np.arange(k - u0, 0, -1, dtype=v.dtype) * v[u0:] + prefix[u0:k]  # T(u), u >= u0
    least = -(total * p // q // v[u0:])  # minus the largest j within p/q at u <= k-j
    lo = k - js  # the top group is the 0-based indices lo..k-1
    a = np.searchsorted(least, -js, "right") + u0
    b = np.searchsorted(total, prefix[lo] * q // spare, "right") + u0  # T > x iff T > floor(x)
    del least, total
    u = np.where(a <= lo, a, np.maximum(b, lo + 1))
    # u never falls as j does; from the first j whose u reaches k, no answers
    n = np.searchsorted(np.maximum.accumulate(u, out=u), k)
    js, u, lo = js[:n], u[:n], lo[:n]
    c, d, top = prefix[u], (k - u).astype(v.dtype), lo < u  # top: a top-group client <= u
    r = c * -p + np.where(top, (c - prefix[lo]) * q, 0)
    s = np.where(top, d, js.astype(v.dtype)) * q - d * p
    # r + s*cap is > 0 at the upper end, so where it is <= 0 at the lower
    # end (at least 1) its slope s is positive and the cap it gives is at
    # least that lower end
    none = r + s * np.maximum(v[u - 1], 1) > 0
    r[none], s[none] = 0, -1
    return js, r // -s


def solve_truncation(v: WeightVector, query: TruncationQuery) -> TruncationOutcome:
    """Largest cap whose application brings the top share within the limit.

    Returns NO_TRUNCATION_NEEDED when the raw vector already satisfies the
    limit, INFEASIBLE when even flattening every weight to the smallest
    positive level fails, and otherwise the exact maximal cap together with
    the share it achieves.  Costs O(K) beyond the sort: one pass of prefix
    sums and two binary searches in `_crossings`' arrays.
    """
    alpha, limit = query.alpha, query.alpha_star
    share = top_share(v, alpha)
    if share <= limit:
        return TruncationOutcome(TruncationStatus.NO_TRUNCATION_NEEDED, None, share)
    k = len(v)
    j = k - math.floor((1 - alpha) * k)
    _, caps = _crossings(v.values, np.array([j]), limit.numerator, limit.denominator)
    cap = max(caps.tolist(), default=0)  # 0: no cap of at least 1 meets the limit
    if cap == 0:
        return TruncationOutcome(TruncationStatus.INFEASIBLE)
    return TruncationOutcome(TruncationStatus.SOLVED, cap, top_share(truncate(v, cap), alpha))


def tradeoff_curve(v: WeightVector, alpha_star: Union[Fraction, int, float, str]) -> TradeoffCurve:
    """All feasible (alpha, cap) pairs for alpha on the 1/K grid.

    Answers every grid point from the largest feasible alpha down, one fewer
    tolerated lying client per step, in one `_crossings` call: O(K) beyond
    the sort, with prefix sums and two binary searches over the intervals.
    Grid points where no cap can meet the limit are skipped; the curve stops
    once the raw vector satisfies the limit on its own.
    """
    limit = TruncationQuery(1, alpha_star).alpha_star
    k = len(v)
    js = np.arange(math.floor(limit * k), 0, -1)
    js, caps = _crossings(v.values, js, limit.numerator, limit.denominator)
    feasible = caps != 0  # caps are each >= 1, or 0 for none
    return TradeoffCurve(k, js[feasible], caps[feasible])


@dataclass(frozen=True)
class Passthrough:
    """Leave declared counts untouched."""


@dataclass(frozen=True)
class Ignore:
    """Discard declared counts; every client weighs one."""


@dataclass(frozen=True)
class Truncate:
    """Cap declared counts at the solved bound for this query."""

    query: TruncationQuery


PreprocessMode = Union[Passthrough, Ignore, Truncate]


def preprocess(declared: Iterable[int], mode: PreprocessMode) -> np.ndarray:
    """Each client's weight under a preprocessing mode, in the order of the
    declared counts, as one read-only `exact_counts` array (the caller's stays
    writeable): the count itself, 1, or the count capped at the solved bound.
    Every mode checks the counts with `exact_counts`; only Truncate sorts."""
    counts = exact_counts(declared)
    if isinstance(mode, Ignore):
        counts = np.ones(len(counts), np.int64)
    elif isinstance(mode, Truncate):
        outcome = solve_truncation(WeightVector(np.sort(counts)), mode.query)
        if outcome.status == TruncationStatus.INFEASIBLE:
            raise PreprocessInfeasible(f"no cap satisfies share limit {mode.query.alpha_star} "
                                       f"at fraction {mode.query.alpha}")
        if outcome.status == TruncationStatus.SOLVED:  # int64 again once the cap fits in it
            counts = exact_counts(np.minimum(counts, outcome.cap))
    elif not isinstance(mode, Passthrough):
        raise TypeError(f"unknown preprocess mode: {mode!r}")
    counts = counts.view()
    counts.flags.writeable = False
    return counts


def read_weights_file(path) -> WeightVector:
    """Read one integer per line; blank lines and # comments are skipped."""
    with open(path) as fh:
        # text mode has turned \r and \r\n into \n, so splitting on \n alone
        # gives the file's lines; str.splitlines would also split on
        # characters such as \x1c and U+2028 that belong inside a line
        lines = fh.read().rstrip("\n").split("\n")  # trailing blank lines hold no weight
    try:  # one C-level pass; blank, comment, bad, negative and past-int64 lines take the loop
        counts = exact_counts(np.array(lines, dtype=np.int64))  # int() on each str
    except (ValueError, OverflowError):
        counts = []
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                value = int(line)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not an integer: {line!r}") from None
            if value < 0:
                raise ValueError(f"{path}:{lineno}: weights must be non-negative")
            counts.append(value)
        if not counts:
            raise ValueError(f"{path}: no weights found")
        counts = exact_counts(counts)
    counts.sort()  # in place: a copy, its source freed, kept 8 MB more resident at 10^6 lines
    return WeightVector(counts)
