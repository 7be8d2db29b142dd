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
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Sequence, Union

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


@dataclass(frozen=True)
class WeightVector:
    """Client weights sorted non-decreasing; shares and caps need no client ids."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("weight vector must hold at least one client")
        values = self.values  # C-level scans; only a failing vector is walked for its offender
        if not all(issubclass(t, int) for t in set(map(type, values))) or min(values) < 0:
            bad = next(x for x in values if not isinstance(x, int) or x < 0)
            raise ValueError(f"weights must be non-negative integers, got {bad!r}")
        if not all(map(operator.le, values, islice(values, 1, None))):
            raise ValueError("values must be sorted non-decreasing")

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "WeightVector":
        return cls(tuple(sorted(values)))

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


@dataclass(frozen=True)
class TradeoffCurve:
    """Feasible rows (j, cap), alpha = j/k strictly decreasing."""

    k: int
    rows: tuple[tuple[int, int], ...]

    def to_csv(self) -> str:
        k = self.k  # int true division rounds correctly: j / k == float(Fraction(j, k))
        return "alpha,u_star\n" + "".join([f"{j / k:.6f},{cap}\n" for j, cap in self.rows])


def top_share(v: WeightVector, fraction: Union[Fraction, int, float, str]) -> Fraction:
    """Share of total weight held by the top `fraction` of clients.

    The count of clients in the top group is exact: client i (1-based, sorted
    ascending) belongs iff i > (1 - fraction) * K.
    """
    p = as_fraction(fraction)
    if not 0 <= p <= 1:
        raise ValueError(f"fraction must lie in [0, 1], got {p}")
    total = sum(v.values)
    if total == 0:
        raise ZeroTotalWeight("cannot compute shares of an all-zero weight vector")
    k = len(v)
    m = k - math.floor((1 - p) * k)  # members of the top group
    top = sum(v.values[k - m:]) if m > 0 else 0
    return Fraction(top, total)


def truncate(v: WeightVector, cap: int) -> WeightVector:
    """Cap every weight at `cap`."""
    if cap < 0:
        raise ValueError("cap must be non-negative")
    i = bisect_right(v.values, cap)  # values are sorted, so only the tail changes
    return WeightVector(v.values[:i] + (cap,) * (len(v) - i))


def _exact(values: Sequence[int], bound: int) -> np.ndarray:
    """`values` in int64 while `bound`, the largest magnitude the caller computes, is below
    2^62, else in Python ints: numpy's int64 wraps silently, so this bound is the only guard."""
    return np.array(values, np.int64 if bound < 2**62 else object)


def _crossings(values: Sequence[int], js: np.ndarray, p: int, q: int) -> tuple[np.ndarray, ...]:
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
    v = _exact(values, q * k * values[-1])  # every product below stays under 2^63
    prefix = np.concatenate(([0], np.cumsum(v)))
    u0 = max(1, bisect_right(values, 0))  # a zero upper end never exceeds the limit
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
    rows = np.stack((js, caps))[:, caps != 0]  # caps are each >= 1, or 0 for none
    del js, caps
    return TradeoffCurve(k, tuple(zip(*rows.tolist())))


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


def preprocess(declared: Sequence[int], mode: PreprocessMode) -> list[int]:
    """Each client's weight under a preprocessing mode, in the order of the
    declared counts: the count itself, 1, or the count capped at the solved
    bound."""
    v = WeightVector.from_values(declared)
    if isinstance(mode, Ignore):
        return [1] * len(v)
    if isinstance(mode, Truncate):
        outcome = solve_truncation(v, mode.query)
        if outcome.status == TruncationStatus.INFEASIBLE:
            raise PreprocessInfeasible(
                f"no cap satisfies share limit {mode.query.alpha_star} "
                f"at fraction {mode.query.alpha}"
            )
        if outcome.status == TruncationStatus.SOLVED:
            return np.minimum(_exact(declared, v.values[-1]), outcome.cap).tolist()
    elif not isinstance(mode, Passthrough):
        raise TypeError(f"unknown preprocess mode: {mode!r}")
    return list(declared)


def read_weights_file(path) -> WeightVector:
    """Read one integer per line; blank lines and # comments are skipped."""
    with open(path) as fh:
        # text mode has turned \r and \r\n into \n, so splitting on \n alone
        # gives the file's lines; str.splitlines would also split on
        # characters such as \x1c and U+2028 that belong inside a line
        lines = fh.read().rstrip("\n").split("\n")  # trailing blank lines hold no weight
    try:  # one C-level pass; blank, comment and bad lines take the loop below
        values = list(map(int, lines))
    except ValueError:
        values = []
    if not values or min(values) < 0:
        values = []
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
            values.append(value)
    del lines  # before the sort, which builds a list of its own
    if not values:
        raise ValueError(f"{path}: no weights found")
    return WeightVector.from_values(values)

