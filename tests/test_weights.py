"""Solver unit tests: frozen hand-computed values plus definition-based oracles."""

from __future__ import annotations

import hashlib
import os
import re
import threading
from itertools import accumulate
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzweight.weights import (
    Ignore,
    Passthrough,
    PreprocessInfeasible,
    TradeoffCurve,
    Truncate,
    TruncationQuery,
    TruncationStatus,
    WeightVector,
    ZeroTotalWeight,
    _crossings,
    preprocess,
    as_fraction,
    read_weights_file,
    solve_truncation,
    top_share,
    tradeoff_curve,
    truncate,
)

from oracles import (
    _crossing,
    bisect_outcome,
    curve_by_repeated_solve,
    reference_top_share,
    scan_outcome,
    sweep_cap,
    sweep_rows,
)


def wv(*values):
    return WeightVector.from_values(values)


def rows(curve):
    return tuple(zip(curve.js.tolist(), curve.caps.tolist()))


def pairs(curve):
    return tuple((F(j, curve.k), cap) for j, cap in rows(curve))


# ---------------------------------------------------------------- WeightVector

def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        WeightVector((2, 1))  # unsorted
    with pytest.raises(ValueError):
        WeightVector.from_values([])
    with pytest.raises(ValueError):
        WeightVector.from_values([-1, 2])


def test_constructor_names_the_first_offender():
    with pytest.raises(ValueError, match=r"^weights must be non-negative integers, got -1$"):
        WeightVector((-1, "a"))
    with pytest.raises(ValueError, match=r"^weights must be non-negative integers, got 'a'$"):
        WeightVector(("a", -1))
    with pytest.raises(ValueError, match=r"^weights must be non-negative integers, got 2.0$"):
        WeightVector((1, 2.0))
    with pytest.raises(ValueError, match=r"^values must be sorted non-decreasing$"):
        WeightVector((1, 3, 2))
    with pytest.raises(ValueError, match=r"^weight vector must hold at least one client$"):
        WeightVector(())
    assert WeightVector((False, True, 2)).values.tolist() == [False, True, 2]  # bool is an int
    assert WeightVector.from_values([True, 0]).values.tolist() == [0, True]


# ------------------------------------------------------------------- top_share

def test_top_share_full_and_empty_group():
    v = wv(1, 2, 3, 4)
    assert top_share(v, 1) == 1
    assert top_share(v, 0) == 0
    with pytest.raises(ValueError, match=r"^fraction must lie in \[0, 1\], got 3/2$"):
        top_share(v, F(3, 2))


def test_top_share_hand_values():
    assert top_share(wv(1, 2, 3, 4), F(1, 2)) == F(7, 10)
    assert top_share(wv(1, 1, 1, 1, 100), F(1, 5)) == F(100, 104)


def test_top_share_zero_total():
    with pytest.raises(ZeroTotalWeight):
        top_share(wv(0, 0), F(1, 2))


def test_top_share_decimal_string_and_float_mean_the_same():
    v = wv(1, 1, 1, 1, 100)
    assert top_share(v, "0.2") == top_share(v, 0.2) == top_share(v, F(1, 5))
    with pytest.raises(TypeError, match="^cannot interpret <object .*> as an exact fraction$"):
        as_fraction(object())


@st.composite
def weight_vectors(draw, max_k=10, max_value=60):
    k = draw(st.integers(1, max_k))
    values = draw(
        st.lists(st.integers(0, max_value), min_size=k, max_size=k).filter(
            lambda vs: sum(vs) > 0
        )
    )
    return wv(*values)


@st.composite
def fractions_01(draw, include_one=True):
    den = draw(st.integers(1, 12))
    num = draw(st.integers(0, den if include_one else den - 1))
    return F(num, den)


@given(weight_vectors(), fractions_01())
@settings(max_examples=150)
def test_top_share_matches_reference(v, p):
    assert top_share(v, p) == reference_top_share(v.values.tolist(), p)


@given(weight_vectors(), fractions_01(), fractions_01())
@settings(max_examples=150)
def test_top_share_monotone_in_fraction(v, p1, p2):
    lo, hi = min(p1, p2), max(p1, p2)
    assert top_share(v, lo) <= top_share(v, hi)


# -------------------------------------------------------------------- truncate

def test_truncate_basics():
    v = wv(1, 1, 1, 1, 100)
    assert truncate(v, 4).values.tolist() == [1, 1, 1, 1, 4]
    assert truncate(v, 1000).values.tolist() == v.values.tolist()
    with pytest.raises(ValueError, match=r"^cap must be non-negative, got -1$"):
        truncate(v, -1)


def test_truncate_takes_integer_caps_only():
    # a cap is a count by exact_counts' rule, and a refusal names the cap
    v = wv(1, 1, 1, 1, 100)
    for cap in (4, np.int64(4), np.int32(4), np.uint64(4)):
        assert truncate(v, cap).values.tolist() == [1, 1, 1, 1, 4]
        assert truncate(v, cap).values.dtype == np.int64
    assert truncate(v, True).values.tolist() == [1] * 5
    for cap, shown in ((7.0, "7.0"), (2.5, "2.5"), (np.float64(7.0), "np.float64(7.0)"),
                       (float("nan"), "nan"), ("7", "'7'"), (None, "None")):
        with pytest.raises(ValueError, match=rf"^cap must be an integer, got {re.escape(shown)}$"):
            truncate(v, cap)


@given(weight_vectors(), st.integers(1, 80), st.integers(1, 80))
@settings(max_examples=150)
def test_capped_share_monotone_in_cap(v, c1, c2):
    lo, hi = min(c1, c2), max(c1, c2)
    alpha = F(1, 3)
    assert top_share(truncate(v, lo), alpha) <= top_share(truncate(v, hi), alpha)


# ------------------------------------------------------------- solve_truncation

def kernel(v, js, p, q):
    answered, caps = _crossings(v.values, np.array(js), p, q)
    return answered.tolist(), caps.tolist()


def test_interval_solve_hand_values():
    # interval 4 of (1, 1, 1, 1, 100) holds the caps between 1 and 100; there
    # the limit 1/2 on the top share is met up to cap 2 (alpha 2/5, j = 2) and
    # up to cap 4 (alpha 1/5, j = 1)
    v = wv(1, 1, 1, 1, 100)
    values = v.values.tolist()
    prefix = list(accumulate(values, initial=0))
    assert _crossing(prefix, values, 2, 4, 1, 2) == (4, 2)
    assert _crossing(prefix, values, 1, 4, 1, 2) == (4, 4)
    assert kernel(v, (2, 1), 1, 2) == ([2, 1], [2, 4])
    # at alpha 3/5 (j = 3) no cap of at least 1 meets 1/2, which the kernel
    # reports as cap 0; the flat vector meets it on its own, so the kernel
    # stops without an answer
    assert kernel(v, (3,), 1, 2) == ([3], [0])
    assert kernel(wv(2, 2, 2, 2), (2, 1), 1, 2) == ([], [])


def _kernel_vector(rng):
    # leading zeros, runs of ties, and values from 1 up to beyond 2^63
    k = int(rng.integers(1, 501))
    top = int(rng.choice([3, 50, 10**7, 2**64, 2**70]))
    distinct = [int(x) for x in rng.integers(1, min(top, 2**62), size=int(rng.integers(1, 6)))]
    distinct += [max(1, top - int(rng.integers(0, 5))) for _ in range(int(rng.integers(0, 3)))]
    values = [distinct[i] for i in rng.integers(0, len(distinct), size=k)]
    zeros = int(rng.integers(0, k + 1)) if rng.random() < 0.5 else 0
    values[:zeros] = [0] * zeros
    if not any(values):
        values[-1] = top
    return values


def test_crossing_kernel_matches_per_row_sweep():
    # the kernel's rows and caps against the per-row _crossing sweep it replaced
    rng = np.random.default_rng(20261018)
    hits = {"rows": 0, "solved": 0, "infeasible": 0}
    for _ in range(600):
        values = _kernel_vector(rng)
        q = int(rng.integers(2, 1001))
        alpha_star = F(int(rng.integers(1, q)), q)
        v = WeightVector.from_values(values)
        got = rows(tradeoff_curve(v, alpha_star))
        assert got == sweep_rows(values, alpha_star), (values, alpha_star)
        hits["rows"] += len(got)
        k = len(values)
        for j in {int(x) for x in rng.integers(1, k + 1, size=3)}:
            out = solve_truncation(v, TruncationQuery(F(j, k), alpha_star))
            if out.status == TruncationStatus.NO_TRUNCATION_NEEDED:
                continue
            assert out.cap == sweep_cap(values, j, alpha_star), (values, alpha_star, j)
            hits[out.status] += 1
    assert min(hits.values()) > 50, hits


def test_solve_hand_values():
    out = solve_truncation(wv(1, 1, 1, 1, 100), TruncationQuery(F(1, 5), F(1, 2)))
    assert out.status == TruncationStatus.SOLVED
    assert out.cap == 4
    assert out.achieved_share == F(4, 8)

    out = solve_truncation(wv(1, 1, 1, 1, 100), TruncationQuery(F(2, 5), F(1, 2)))
    assert out.status == TruncationStatus.SOLVED
    assert out.cap == 2
    assert out.achieved_share == F(4, 8)

    out = solve_truncation(wv(2, 2, 2, 2), TruncationQuery(F(1, 4), F(1, 2)))
    assert out.status == TruncationStatus.NO_TRUNCATION_NEEDED
    assert out.achieved_share == F(1, 4)

    out = solve_truncation(wv(1, 1), TruncationQuery(F(1, 2), F(2, 5)))
    assert out.status == TruncationStatus.INFEASIBLE
    assert out.cap is None and out.achieved_share is None


def test_solved_cap_is_maximal():
    v = wv(1, 1, 1, 1, 100)
    q = TruncationQuery(F(1, 5), F(1, 2))
    out = solve_truncation(v, q)
    assert top_share(truncate(v, out.cap), q.alpha) <= q.alpha_star
    assert top_share(truncate(v, out.cap + 1), q.alpha) > q.alpha_star


def _random_queries(rng, k):
    j = int(rng.integers(1, k + 1))
    alpha = F(j, k)
    alpha_star = rng.choice([F(3, 10), F(1, 2), F(2, 3)])
    return TruncationQuery(alpha, alpha_star)


def test_solve_matches_exhaustive_scan_small():
    rng = np.random.default_rng(20240822)
    for _ in range(300):
        k = int(rng.integers(1, 9))
        values = [int(x) for x in rng.integers(0, 40, size=k)]
        if sum(values) == 0:
            values[0] = 1
        v = wv(*values)
        q = _random_queries(rng, k)
        got = solve_truncation(v, q)
        want_status, want_cap = scan_outcome(values, q.alpha, q.alpha_star)
        assert got.status == want_status, (values, q)
        if want_status == TruncationStatus.SOLVED:
            assert got.cap == want_cap, (values, q)
            assert got.achieved_share == reference_top_share(
                [min(x, want_cap) for x in values], q.alpha
            )


@given(weight_vectors(max_k=7, max_value=25), st.data())
@settings(max_examples=120, deadline=None)
def test_solve_matches_exhaustive_scan_property(v, data):
    k = len(v)
    j = data.draw(st.integers(1, k))
    alpha = F(j, k)
    alpha_star = data.draw(st.sampled_from([F(1, 4), F(2, 5), F(1, 2), F(7, 10)]))
    q = TruncationQuery(alpha, alpha_star)
    got = solve_truncation(v, q)
    want_status, want_cap = scan_outcome(v.values.tolist(), alpha, alpha_star)
    assert got.status == want_status
    if want_status == TruncationStatus.SOLVED:
        assert got.cap == want_cap


def test_bisection_oracle_matches_exhaustive_scan():
    # pins the oracle behind acceptance criterion 01 to the definition-level scan
    rng = np.random.default_rng(20261017)
    for _ in range(3000):
        k = int(rng.integers(1, 9))
        values = [int(x) for x in rng.integers(0, 60, size=k)]
        if sum(values) == 0:
            values[0] = 1
        q = _random_queries(rng, k)
        want = scan_outcome(values, q.alpha, q.alpha_star)
        assert bisect_outcome(values, q.alpha, q.alpha_star) == want, (values, q)


# --------------------------------------------------------------- tradeoff_curve

def test_tradeoff_hand_values():
    curve = tradeoff_curve(wv(1, 1, 1, 1, 100), F(1, 2))
    assert pairs(curve) == ((F(2, 5), 2), (F(1, 5), 4))


def test_tradeoff_flat_vector_is_empty():
    assert rows(tradeoff_curve(wv(2, 2, 2, 2), F(1, 2))) == ()


def test_tradeoff_matches_repeated_solve():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(2, 12))
        values = [int(x) for x in rng.integers(0, 60, size=k)]
        if sum(values) == 0:
            values[0] = 1
        alpha_star = rng.choice([F(3, 10), F(1, 2), F(3, 5)])
        got = pairs(tradeoff_curve(wv(*values), alpha_star))
        want = curve_by_repeated_solve(values, alpha_star, solve_truncation, TruncationQuery)
        assert got == want, (values, alpha_star)


def _lognormal_declared(seed, k):
    # lognormal(1.5, 3.45) counts rounded to integers (about a quarter round
    # to 0), with 1 % of the clients declaring 10^7
    rng = np.random.default_rng(seed)
    values = np.rint(rng.lognormal(1.5, 3.45, k)).astype(np.int64)
    values[rng.choice(k, size=k // 100, replace=False)] = 10**7
    return wv(*(int(x) for x in values))


def test_realistic_k_outputs_pinned():
    # Byte-identity guard at realistic K: a refactor of the solver or the
    # sweep must leave these outputs unchanged.  At K=20 000 the zero counts
    # make every grid point above alpha=7431/20000 infeasible, so the sweep
    # skips 2 569 of them before its first pair.
    curve = tradeoff_curve(_lognormal_declared(20261018, 20_000), F(1, 2))
    assert len(curve.js) == len(curve.caps) == 7330
    assert pairs(curve)[0] == (F(7431, 20000), 1)
    assert hashlib.sha256(curve.to_csv().encode()).hexdigest() == (
        "40de6614d75eb636d0c5f8f7b426d0f2a6b276aee8572326bfe81d9adf4172de"
    )
    v = _lognormal_declared(20261019, 4_000)
    for alpha, cap, share in [(F(1, 10), 283, F(56600, 113269)), (F(1, 4), 12, F(120, 241))]:
        out = solve_truncation(v, TruncationQuery(alpha, F(1, 2)))
        assert (out.status, out.cap, out.achieved_share) == (TruncationStatus.SOLVED, cap, share)


def test_counts_near_int64_limit_stay_exact():
    # liars at 2^63 - 1 and honest clients just above 2^62: every prefix sum
    # and every cross product overflows int64, so only Python ints get these
    rng = np.random.default_rng(63)
    statuses = set()
    for _ in range(40):
        k = int(rng.integers(2, 12))
        liars = int(rng.integers(1, k))
        values = [2**63 - 1] * liars + [2**62 + int(x) for x in rng.integers(0, 2**40, k - liars)]
        alpha_star = rng.choice([F(3, 10), F(1, 2), F(2, 3)])
        v = wv(*values)
        for j in range(1, k + 1):
            q = TruncationQuery(F(j, k), alpha_star)
            got = solve_truncation(v, q)
            want = bisect_outcome(values, q.alpha, alpha_star)
            assert (got.status, got.cap) == want, (values, q)
            statuses.add(got.status)
        want_curve = curve_by_repeated_solve(values, alpha_star, solve_truncation, TruncationQuery)
        assert pairs(tradeoff_curve(v, alpha_star)) == want_curve, (values, alpha_star)
    assert statuses == {"solved", "no_truncation_needed", "infeasible"}


def _switch_cases():
    # (values, alpha*, int64 expected): the kernel runs in int64 while
    # q * k * max(values) stays below 2^62, and on Python ints from there
    below, above = 2**62 // 16 - 1, 2**62 // 16 + 1  # q = 2, k = 8
    wide = F(2**32 + 1, 2**33 + 3)  # a denominator past 2^32
    return [
        ([1, 5, 9, below // 7, below // 3, below // 2, below - 1, below], F(1, 2), True),
        ([1, 5, 9, above // 7, above // 3, above // 2, above - 1, above], F(1, 2), False),
        ([2**63 - 1] * 3 + [2**62 + 17, 2**62 + 2**40, 2**61, 3], F(1, 2), False),
        ([2**63 - 1, 2**63 + 1, 2**64 + 5, 2**70, 1, 0], F(2, 5), False),
        ([0, 0, 3, 40, 41, 2**20], wide, True),
        ([1, 1, 2**33, 2**34], wide, False),
        ([7] * 9, F(1, 3), True),
        ([2**63 + 1] * 5, F(1, 2), False),
        ([0] * 4 + [1, 9, 60], F(1, 2), True),
        ([0] * 4 + [1, 2**64], F(3, 7), False),
    ]


@pytest.mark.parametrize("values, alpha_star, in_int64", _switch_cases())
def test_exact_on_both_sides_of_the_int64_switch(values, alpha_star, in_int64):
    v = wv(*values)
    k = len(v)
    _, caps = _crossings(v.values, np.arange(k, 0, -1), alpha_star.numerator, alpha_star.denominator)
    assert caps.dtype == (np.int64 if in_int64 else object)
    assert rows(tradeoff_curve(v, alpha_star)) == sweep_rows(values, alpha_star)
    oracle = scan_outcome if max(values) <= 100 else bisect_outcome
    for j in range(1, k + 1):
        q = TruncationQuery(F(j, k), alpha_star)
        got = solve_truncation(v, q)
        assert (got.status, got.cap) == oracle(values, q.alpha, alpha_star), (values, q)
        if got.status == TruncationStatus.SOLVED:
            assert got.achieved_share == reference_top_share([min(x, got.cap) for x in values], q.alpha)


def test_tradeoff_curve_is_monotone():
    # heavier tail than the hand examples; alpha strictly down, cap never down
    v = wv(1, 1, 2, 3, 5, 8, 40, 400)
    curve = pairs(tradeoff_curve(v, F(1, 2)))
    assert len(curve) >= 2
    alphas = [a for a, _ in curve]
    caps = [c for _, c in curve]
    assert all(a > b for a, b in zip(alphas, alphas[1:]))
    assert all(a <= b for a, b in zip(caps, caps[1:]))
    for alpha, cap in curve:
        assert top_share(truncate(v, cap), alpha) <= F(1, 2)
        assert top_share(truncate(v, cap + 1), alpha) > F(1, 2)


# ------------------------------------------------------------------ preprocess

def weights(declared, mode) -> list:
    """preprocess's weights as a list, once its array is checked: read-only,
    and int64 unless a weight reaches 2^63."""
    out = preprocess(declared, mode)
    assert isinstance(out, np.ndarray) and not out.flags.writeable
    assert out.dtype == (object if max(out.tolist()) >= 2**63 else np.int64)
    return out.tolist()


def test_preprocess_modes():
    declared = [1, 100, 1, 1, 1]
    q = TruncationQuery(F(1, 5), F(1, 2))
    assert weights(declared, Passthrough()) == declared
    assert weights(declared, Ignore()) == [1, 1, 1, 1, 1]
    assert weights(declared, Truncate(q)) == [1, 4, 1, 1, 1]
    assert weights([2, 2, 2, 2], Truncate(TruncationQuery(F(1, 4), F(1, 2)))) == [2, 2, 2, 2]

    with pytest.raises(PreprocessInfeasible):
        preprocess([1, 1], Truncate(TruncationQuery(F(1, 2), F(2, 5))))
    with pytest.raises(ValueError, match=r"^weights must be non-negative integers, got -1$"):
        preprocess([3, -1], Passthrough())
    with pytest.raises(TypeError, match=r"^unknown preprocess mode: "):
        preprocess([3, 1], Truncate)


_NEAR_2_63 = st.integers(2**63 - 4, 2**63 + 4) | st.integers(2**62, 2**62 + 2**40)


@given(st.lists(st.integers(0, 6) | _NEAR_2_63, min_size=1, max_size=10), st.data())
@settings(max_examples=200, deadline=None)
def test_preprocess_is_elementwise_in_client_order(declared, data):
    # weights come back in the order the counts were declared, each a
    # function of its own count: itself, 1, or its min with the cap
    declared = data.draw(st.permutations(declared + declared[: data.draw(st.integers(0, 3))]))
    assert weights(declared, Passthrough()) == declared
    assert weights(declared, Ignore()) == [1] * len(declared)
    if not any(declared):
        return
    k = len(declared)
    q = TruncationQuery(F(data.draw(st.integers(1, k)), k),
                        data.draw(st.sampled_from([F(1, 4), F(1, 2), F(2, 3)])))
    status, cap = bisect_outcome(declared, q.alpha, q.alpha_star)
    if status == TruncationStatus.INFEASIBLE:
        with pytest.raises(PreprocessInfeasible):
            preprocess(declared, Truncate(q))
    else:
        want = declared if cap is None else [min(d, cap) for d in declared]
        assert weights(declared, Truncate(q)) == want


# --------------------------------------------------------------- serialization

def test_tradeoff_csv_golden():
    curve = TradeoffCurve(5, np.array([2, 1]), np.array([2, 4]))
    assert curve.to_csv() == "alpha,u_star\n0.400000,2\n0.200000,4\n"


def _exact_array(xs):
    # as _crossings returns them: int64, or Python ints once a value passes int64
    return np.array(xs, dtype=object if max(xs, default=0) >= 2**63 else np.int64)


def _check_csv(k, js, caps):
    # each row prints j / k; it must be the float of the exact Fraction(j, k)
    lines = ["alpha,u_star"] + [f"{float(F(j, k)):.6f},{cap}" for j, cap in zip(js, caps)]
    curve = TradeoffCurve(k, _exact_array(js), _exact_array(caps))
    assert curve.to_csv() == "\n".join(lines) + "\n"


@given(st.integers(1, 10**6), st.data())
@settings(max_examples=200)
def test_tradeoff_csv_matches_fraction_formatting(k, data):
    near = st.integers(max(1, k // 2 - 50), max(1, min(k, k // 2 + 50)))
    js = data.draw(st.lists(st.one_of(near, st.integers(1, k)), max_size=20))
    js = sorted(set(js), reverse=True)
    _check_csv(k, js, [data.draw(st.integers(0, 2**64)) for _ in js])


_CAPS = st.sampled_from([1, 9, 10, 2**63 - 1, 2**63, 2**64, 10**19, 10**25]) | st.integers(0, 2**70)


@given(st.sampled_from([2**e for e in range(64)])  # exact ties
       | st.integers(2**32, 2**40)  # j past 2^32
       | st.integers(2**63 // 10**6 - 2, 2**64),  # k * 10^6 past int64
       st.data())
@settings(max_examples=300)
def test_tradeoff_csv_exact_at_ties_and_wide_values(k, data):
    near_half = st.integers(max(1, k // 2 - 50), max(1, min(k, k // 2 + 50)))
    near_top = st.integers(max(1, k - 50), k)  # rounds up to 1.000000 once k > 2 * 10^6
    js = data.draw(st.lists(near_half | near_top | st.integers(1, k), max_size=30))
    js = sorted(set(js), reverse=True)
    _check_csv(k, js, [data.draw(_CAPS) for _ in js])


def test_tradeoff_csv_prints_the_float_near_a_rounding_boundary():
    # j/k lies within 10^-18 of a boundary here, closer than the float of j/k,
    # which falls on the other side; the CSV prints the float, as it always has
    for j, k, text in [(333333500001, 1000000000003, "0.333334"),
                       (555555500005, 1000000000009, "0.555555"),
                       (444444500004, 1000000000009, "0.444445")]:
        assert f"0.{int(F(j, k) * 10**6 + F(1, 2)):06d}" != text  # j/k itself rounds the other way
        _check_csv(k, [j], [1])
        assert TradeoffCurve(k, np.array([j]), np.array([1])).to_csv()[13:21] == text


@pytest.mark.parametrize("n", [8191, 8192, 8193, 2 * 8192 + 1])
def test_tradeoff_csv_across_block_boundaries(n):
    # a block boundary inside the curve, at k a power of two (every odd j a
    # tie), k past 2^32 and k * 10^6 past int64; caps change width within a block
    assert TradeoffCurve.BLOCK == 8192
    rng = np.random.default_rng(n)
    for k in (2**15, 10**7, 2**40 + 3, 2**63 + 5):
        js = rng.choice(min(k, 2**62) - 1, size=n, replace=False) + 1
        js = sorted(js.tolist(), reverse=True)
        js[0] = k - 1  # 1.000000 at k = 10^7
        caps = rng.integers(1, 10 ** rng.integers(1, 19, size=n)).tolist()
        _check_csv(k, js, caps)
        caps[n // 2] = 2**64 + 7
        _check_csv(k, js, caps)


def test_tradeoff_curve_arrays_are_read_only():
    curve = tradeoff_curve(wv(1, 1, 1, 1, 100), F(1, 2))
    assert curve.js.dtype == curve.caps.dtype == np.int64
    for array in (curve.js, curve.caps):
        with pytest.raises(ValueError):
            array[0] = 5


@given(weight_vectors(max_k=12, max_value=200), st.sampled_from([F(3, 10), F(1, 2), F(3, 5)]))
@settings(max_examples=150, deadline=None)
def test_tradeoff_pairs_match_repeated_solve_property(v, alpha_star):
    want = curve_by_repeated_solve(v.values.tolist(), alpha_star, solve_truncation, TruncationQuery)
    assert pairs(tradeoff_curve(v, alpha_star)) == want


def test_weights_file_roundtrip(tmp_path):
    path = tmp_path / "weights.txt"
    path.write_text("# header comment\n3\n1\n\n2  # trailing\n")
    v = read_weights_file(path)
    assert v.values.tolist() == [1, 2, 3]


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


def _read_error(path, content):
    _write(path, content)
    with pytest.raises(ValueError) as info:
        read_weights_file(path)
    return str(info.value)


def test_weights_file_errors(tmp_path):
    # the exact message and line number of each rejection
    path = tmp_path / "w.txt"
    assert _read_error(path, "1\nnope\n") == f"{path}:2: not an integer: 'nope'"
    assert _read_error(path, "1\n\n  2.5  # half\n") == f"{path}:3: not an integer: '2.5'"
    assert _read_error(path, "-3\n") == f"{path}:1: weights must be non-negative"
    assert _read_error(path, "4\n# c\n 7 \n-0x1\n") == f"{path}:4: not an integer: '-0x1'"
    assert _read_error(path, "# nothing\n") == f"{path}: no weights found"
    assert _read_error(path, "# one\n\n   \n# two") == f"{path}: no weights found"
    assert _read_error(path, "") == f"{path}: no weights found"
    # characters str.splitlines would break a line at stay inside it
    for line in ("5\x1c6", "5\u20286"):
        assert _read_error(path, line + "\n7\n") == f"{path}:1: not an integer: {line!r}"


def test_weights_file_reports_the_first_bad_line(tmp_path):
    # a negative line and a non-integer line: whichever comes first is named
    path = tmp_path / "w.txt"
    assert _read_error(path, "5\n-2\n6\nx\n") == f"{path}:2: weights must be non-negative"
    assert _read_error(path, "5\nx\n6\n-2\n") == f"{path}:2: not an integer: 'x'"
    assert _read_error(path, "5\n6\n-2 # c\n") == f"{path}:3: weights must be non-negative"
    assert _read_error(path, b"1\r\n2\r\n-3\r\n") == f"{path}:3: weights must be non-negative"


@pytest.mark.parametrize(
    "content, declared",
    [
        ("5 # c\n", [5]),
        (b"3\r\n1\r\n2\r\n", [3, 1, 2]),
        ("  7 \t\n\t8\n 9\n", [7, 8, 9]),
        ("+5\n", [5]),
        ("1_000\n", [1000]),
        ("\n\n2\n\n\n1\n\n", [2, 1]),
        ("4\n3", [4, 3]),
        ("-0\n0\n", [0, 0]),
        ("# all\n2 # two\n#\n1", [2, 1]),
    ],
)
def test_weights_file_accepts(tmp_path, content, declared):
    path = tmp_path / "w.txt"
    _write(path, content)
    assert read_weights_file(path).values.tolist() == sorted(declared)


def test_weights_file_from_a_pipe(tmp_path):
    # a pipe cannot be rewound; the file is read once, as a regular file is
    fifo = tmp_path / "w.fifo"
    os.mkfifo(fifo)

    def read(content):
        writer = threading.Thread(target=fifo.write_text, args=(content,))
        writer.start()
        try:
            return read_weights_file(fifo)
        finally:
            writer.join()

    assert read("3\n1 # c\n2\n").values.tolist() == [1, 2, 3]
    assert read("5\n4\n").values.tolist() == [4, 5]
    with pytest.raises(ValueError) as info:
        read("3\n-1\n")
    assert str(info.value) == f"{fifo}:2: weights must be non-negative"


def test_query_validation():
    with pytest.raises(ValueError):
        TruncationQuery(F(0), F(1, 2))
    with pytest.raises(ValueError):
        TruncationQuery(F(1, 2), F(1))
    with pytest.raises(ValueError):
        TruncationQuery(F(3, 2), F(1, 2))


def test_zero_denominator_is_a_value_error():
    # Fraction("1/0") raised ZeroDivisionError, which argparse does not report
    for x in ("1/0", "-3/0", " 0/0 "):
        with pytest.raises(ValueError, match=r"has a zero denominator$"):
            as_fraction(x)
    with pytest.raises(ValueError):
        TruncationQuery("1/0", F(1, 2))
    with pytest.raises(ValueError):
        TruncationQuery(F(1, 5), "1/0")
