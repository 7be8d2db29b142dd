"""Exact-arithmetic preprocessing of client-declared sample counts.

A federation of K clients reports integer sample counts.  A coalition of up
to an ``alpha`` fraction of clients may lie, so the aggregation weight any
small group can hold must be limited: the combined share of the largest
``alpha``-fraction of clients has to stay at or below ``alpha_star``.
Among real-valued repairs that only shrink counts, capping every count at a
common bound is the cheapest in L1 distance.  This module computes the
largest integer such bound exactly, in Python integers and fractions that
cannot overflow, along with the full trade-off between assumed coalition
size and the resulting cap.  The integer cap is the floor of the
real-valued one, so it removes fewer than n units more than the cheapest
integer repair, where n is the number of clients whose counts exceed it.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from typing import Iterable, Iterator, Sequence, Union


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


def _crossings(values: Sequence[int], js: Iterable[int], p: int, q: int) -> Iterator[int | None]:
    """For each top-group size j in `js` (decreasing), the largest integer cap
    that keeps the capped top-j share at or below p/q, or None when no cap
    of at least 1 does.  Stops once the uncapped vector meets the limit.

    Interval u (1-based) holds the caps between the u-th and (u+1)-th
    smallest weights; there the top-j share of the capped vector is
    (a + b*cap) / (c + d*cap), with a the weight of top-group clients at or
    below u, b the count of top-group clients above u, c the weight at or
    below u and d the count of clients above u.  The share exceeds p/q iff
    r + s*cap > 0, with r = a*q - c*p and s = b*q - d*p.  Each j's answer
    lies in the first interval whose upper end exceeds the limit; a smaller
    j never needs an earlier interval, so u only moves upward across the
    j's, and with prefix sums each j costs O(1) beyond that walk.
    """
    k = len(values)
    prefix = list(accumulate(values, initial=0))
    spare = q - p
    u = 1
    for j in js:
        lo = k - j  # the top group is the 0-based indices lo..k-1
        while u < k:
            c, d = prefix[u], k - u
            if lo < u:
                r, s = c * spare - prefix[lo] * q, d * spare
            else:
                r, s = -c * p, j * q - d * p
            if r + s * values[u] > 0:  # a zero weight has c = 0, so r = 0
                break
            u += 1
        else:
            return
        # r + s*cap is > 0 at the upper end, so where it is <= 0 at the lower
        # end (at least 1) its slope s is positive and the cap it gives is at
        # least that lower end
        yield None if r + s * (values[u - 1] or 1) > 0 else r // -s


def solve_truncation(v: WeightVector, query: TruncationQuery) -> TruncationOutcome:
    """Largest cap whose application brings the top share within the limit.

    Returns NO_TRUNCATION_NEEDED when the raw vector already satisfies the
    limit, INFEASIBLE when even flattening every weight to the smallest
    positive level fails, and otherwise the exact maximal cap together with
    the share it achieves.  Costs O(K) beyond the sort: one pass of prefix
    sums and one upward walk over the intervals, with no per-interval
    rescans of the vector.
    """
    alpha, limit = query.alpha, query.alpha_star
    share = top_share(v, alpha)
    if share <= limit:
        return TruncationOutcome(TruncationStatus.NO_TRUNCATION_NEEDED, None, share)
    k = len(v)
    j = k - math.floor((1 - alpha) * k)
    cap = next(_crossings(v.values, (j,), limit.numerator, limit.denominator), None)
    if cap is None:
        return TruncationOutcome(TruncationStatus.INFEASIBLE)
    return TruncationOutcome(TruncationStatus.SOLVED, cap, top_share(truncate(v, cap), alpha))


def tradeoff_curve(v: WeightVector, alpha_star: Union[Fraction, int, float, str]) -> TradeoffCurve:
    """All feasible (alpha, cap) pairs for alpha on the 1/K grid.

    Walks alpha downward from the largest feasible grid point, one fewer
    tolerated lying client per step, while the interval pointer only moves
    upward; with precomputed prefix sums the whole sweep costs O(K) beyond
    the sort.  Grid points where no cap can meet the limit are skipped; the
    sweep stops once the raw vector satisfies the limit on its own.
    """
    limit = TruncationQuery(1, alpha_star).alpha_star
    k = len(v)
    js = range(math.floor(limit * k), 0, -1)
    caps = _crossings(v.values, js, limit.numerator, limit.denominator)  # each >= 1 or None
    return TradeoffCurve(k, tuple(filter(operator.itemgetter(1), zip(js, caps))))


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
            return [min(d, outcome.cap) for d in declared]
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

