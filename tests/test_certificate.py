"""Certificate tests: frozen margin values, hand re-evaluation, soundness smoke."""

from __future__ import annotations

import math
from fractions import Fraction as F

import numpy as np
import pytest

from byzweight import certificate
from byzweight.certificate import (
    CSV_HEADER,
    STACK_VALUES,
    AlphaTooSmall,
    CertificateParams,
    CertificateResult,
    ValueExceedsBound,
    certify_sample,
    false_certification_rate,
    margins,
    trimmed_window_start,
)
from byzweight.weights import WeightVector
from oracles import per_trial_false_certification_rate


def params(k=200, alpha=F(1, 5), alpha_star=F(1, 2), delta=0.05, cap=4):
    return CertificateParams(k, alpha, alpha_star, delta, cap)


def test_margin_hand_value():
    m = margins(params(k=200, alpha=F(1, 2), delta=0.05, cap=1))
    want = math.sqrt(math.log(60.0) / 400.0)
    assert m.eps1 == pytest.approx(want, abs=1e-12)
    assert m.eps1 == pytest.approx(0.101172, abs=5e-7)


def test_margins_zero_cap():
    # a cap below 1 leaves no weight to certify: refused, where cap 0 gave
    # margins of 0 and an lhs of inf
    for cap in (0, -1):
        with pytest.raises(ValueError, match="^cap must be positive$"):
            params(cap=cap, alpha=F(1, 2))


def test_delta_whose_log_term_overflows_is_refused():
    # margins take log(3/delta): below about 1.669e-308 the quotient is inf
    assert math.isfinite(margins(params(k=200_000, delta=1.67e-308)).eps3)
    for delta in (1.668e-308, 1e-320, 5e-324):
        with pytest.raises(ValueError, match=f"^delta={delta!r} is too small: 3/delta overflows"):
            params(delta=delta)


def test_margins_match_direct_formulas():
    p = params(k=500, alpha=F(3, 10), delta=0.1, cap=7)
    m = margins(p)
    base = math.log(3.0 / 0.1)
    eps1 = math.sqrt(base / 1000.0)
    assert m.eps1 == pytest.approx(eps1, rel=1e-14)
    assert m.eps2 == pytest.approx(7 * math.sqrt(base / (2 * (500 * (0.3 - eps1) + 1))), rel=1e-14)
    assert m.eps3 == pytest.approx(7 * math.sqrt(base / 1000.0), rel=1e-14)


def test_alpha_too_small():
    with pytest.raises(AlphaTooSmall):
        margins(params(k=200, alpha=F(1, 20)))  # eps1 ~ 0.101 > 0.05


def test_margins_monotone_in_sample_size_and_cap():
    ks = [100, 400, 1600, 6400]
    ms = [margins(params(k=k, alpha=F(1, 2))) for k in ks]
    for a, b in zip(ms, ms[1:]):
        assert b.eps1 < a.eps1 and b.eps2 < a.eps2 and b.eps3 < a.eps3
    small, big = margins(params(cap=2, alpha=F(1, 2))), margins(params(cap=20, alpha=F(1, 2)))
    assert big.eps2 > small.eps2 and big.eps3 > small.eps3
    assert big.eps1 == small.eps1


def test_trimmed_window_start_exact_boundary():
    for k in (10, 200, 10_000):
        p = params(k=k, alpha=F(1, 2))
        m = margins(p)
        start = trimmed_window_start(p, m.eps1)
        want = math.ceil((1 - (F(1, 2) - F(m.eps1))) * k)
        assert start == want
        assert 1 <= start <= k
        # the window sits inside the top-alpha group
        assert start > (1 - float(p.alpha)) * k


def _hand_certify(sample, p):
    # written from the definitions: python lists, explicit sums
    base = math.log(3.0 / p.delta)
    eps1 = math.sqrt(base / (2 * p.sample_size))
    alpha = float(p.alpha)
    assert alpha > eps1
    eps2 = p.cap * math.sqrt(base / (2 * (p.sample_size * (alpha - eps1) + 1)))
    eps3 = p.cap * math.sqrt(base / (2 * p.sample_size))
    xs = sorted(int(x) for x in sample)
    start = math.ceil((1 - (p.alpha - F(eps1))) * p.sample_size)
    top = xs[start - 1:]
    top_mean = sum(top) / len(top)
    mean = sum(xs) / len(xs)
    if mean - eps3 <= 0:
        return False, top_mean, mean
    return alpha * (top_mean + eps2) / (mean - eps3) <= float(p.alpha_star), top_mean, mean


def test_certify_matches_hand_evaluation():
    # the second population's distinct values move the top mean with any
    # shift of the window's first index
    for population, cap in ([1, 1, 1, 1, 4] * 200, 4), (list(range(1, 41)), 40):
        p = params(k=500, alpha=F(1, 5), alpha_star=F(1, 2), delta=0.05, cap=cap)
        for seed in range(12):
            rng = np.random.default_rng(seed)
            sample = rng.choice(np.array(population), size=500, replace=True)
            got = certify_sample(sample, p)
            # small whole numbers sum exactly, so the means agree to the bit
            assert (got.certified, got.top_mean, got.sample_mean) == _hand_certify(sample, p), seed


def test_certify_constant_sample_closed_form():
    p = params(k=300, alpha=F(1, 4), alpha_star=F(1, 2), delta=0.05, cap=10)
    m = margins(p)
    res = certify_sample([7] * 300, p)
    assert res.top_mean == 7.0 and res.sample_mean == 7.0
    want = 0.25 * (7 + m.eps2) / (7 - m.eps3)
    assert res.lhs == pytest.approx(want, rel=1e-14)
    assert res.certified == (want <= 0.5)


def test_certify_denominator_guard():
    # nearly-all-zero sample: mean stays below eps3, so no certificate
    p = params(k=200, alpha=F(1, 2), alpha_star=F(1, 2), cap=40)
    sample = [0] * 199 + [1]
    res = certify_sample(sample, p)
    assert not res.certified
    assert math.isinf(res.lhs)


def test_certify_input_validation():
    p = params(k=4, alpha=F(1, 2), cap=3)
    with pytest.raises(ValueExceedsBound):
        certify_sample([1, 2, 3, 4], p)
    with pytest.raises(ValueError):
        certify_sample([1, 2, 3], p)
    with pytest.raises(ValueError):
        certify_sample([1, 2, 3, -1], p)


def test_stack_rows_match_one_sample_calls():
    # each row of a stack decides as its own 1-D call, to the CSV byte;
    # values near 2^62 make the float means inexact, so summation order shows
    rng = np.random.default_rng(11)
    cases = [
        (params(k=200, alpha=F(1, 5), alpha_star=F(1, 2), cap=4), 4),
        (params(k=300, alpha=F(1, 4), alpha_star=F(1, 2), cap=2**62), 2**62),
        (params(k=200, alpha=F(1, 2), alpha_star=F(1, 2), cap=40), 1),  # mean below eps3
    ]
    for p, top in cases:
        stack = rng.integers(0, top + 1, size=(7, p.sample_size), dtype=np.int64)
        stack[3] = top  # a constant row
        res = certify_sample(stack, p)
        assert res.certified.shape == res.lhs.shape == (7,)
        for i, row in enumerate(stack):
            one = certify_sample(row, p)
            assert isinstance(one.certified, bool) and isinstance(one.lhs, float)
            got = CertificateResult(bool(res.certified[i]), float(res.lhs[i]), res.margins,
                                    float(res.top_mean[i]), float(res.sample_mean[i]))
            assert got == one and got.to_csv() == one.to_csv()
    assert np.isinf(res.lhs).all() and not res.certified.any()


def test_stack_input_validation():
    # a bad value in any row refuses the whole stack, as it would its row
    p = params(k=200, alpha=F(1, 2), cap=3)
    good = np.tile(np.arange(200) % 4, (3, 1))
    assert certify_sample(good, p).certified.shape == (3,)
    for value, error in ((-1, ValueError), (4, ValueExceedsBound)):
        bad = good.copy()
        bad[2, 1] = value
        with pytest.raises(error):
            certify_sample(bad, p)
    with pytest.raises(ValueError, match="exactly 200 values"):
        certify_sample(good[:, :199], p)
    with pytest.raises(ValueError, match="exactly 200 values"):
        certify_sample(good[None], p)


def test_weights_beyond_int64_raise_value_error():
    # a cap above 2^63 is fine while every weight fits in int64
    huge = params(k=400, cap=2**64)
    fits = certify_sample([3] * 399 + [2**63 - 1], huge)
    assert fits.sample_mean == pytest.approx((3 * 399 + 2**63 - 1) / 400)
    for big in (2**63, 2**64):
        with pytest.raises(ValueError, match=r"^weights of 2\^63 or more do not fit in int64"):
            certify_sample([3] * 399 + [big], huge)
        population = WeightVector.from_values([1] * 9 + [big])
        with pytest.raises(ValueError, match=r"^weights of 2\^63 or more do not fit in int64"):
            false_certification_rate(population, params(k=100, cap=2**65), trials=5, seed=0)
    # an array is checked before the cast, which would wrap 2^63 to -2^63 and read 2.5 as 2
    for array in (np.array([1.0] * 399 + [2.0**63]), np.array([1] * 399 + [2**63], dtype=np.uint64)):
        with pytest.raises(ValueError, match=r"^weights of 2\^63 or more do not fit in int64"):
            certify_sample(array, huge)
    with pytest.raises(ValueError, match=r"^weights must be finite whole numbers"):
        certify_sample(np.full(400, 2.5), huge)


def test_certificate_csv_shape():
    p = params(k=300, alpha=F(1, 4), alpha_star=F(1, 2), cap=10)
    text = certify_sample([7] * 300, p).to_csv()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] in {"true", "false"}
    assert len(fields) == 7
    assert text.endswith("\n") and "\r" not in text


def test_false_rate_zero_when_condition_holds():
    population = WeightVector.from_values([2] * 50)
    p = params(k=100, alpha=F(1, 5), alpha_star=F(1, 2), cap=4)
    assert false_certification_rate(population, p, trials=50, seed=1) == 0.0


def test_false_rate_matches_per_trial_streams():
    # batch-seeded trial streams draw what a fresh default_rng((seed, trial))
    # per trial draws; this population is false-certified now and then
    population = WeightVector.from_values([100] * 10 + [5] * 20)
    p = params(k=100, alpha=F(1, 3), alpha_star=F(9, 10), delta=0.99, cap=100)
    rates = []
    for seed in (0, 1, 7, 2**32 + 5, 2**64 + 3):
        rate = false_certification_rate(population, p, trials=2000, seed=seed)
        assert rate == per_trial_false_certification_rate(population, p, 2000, seed)
        rates.append(rate)
    assert 0 < max(rates) < 0.01
    # trial counts around one stack, and samples so large a stack holds one.
    # The top half of (1, 10, 10) is two clients, 20/21 of the weight, but a
    # sample's top-half window sees only the 10s: most trials certify, so a
    # trial lost or counted twice changes the rate
    population = WeightVector.from_values([1, 10, 10])
    p = params(k=100, alpha=F(1, 2), alpha_star=F(9, 10), delta=0.99, cap=10)
    stack = STACK_VALUES // p.sample_size
    for trials in (1, 2, stack - 1, stack, stack + 1):
        rate = false_certification_rate(population, p, trials=trials, seed=7)
        assert rate == per_trial_false_certification_rate(population, p, trials, 7), trials
        assert 0 < rate < 1 or trials < 3
    for k in (STACK_VALUES // 2, STACK_VALUES + 1):
        big = params(k=k, alpha=F(1, 2), alpha_star=F(9, 10), delta=0.99, cap=10)
        rate = false_certification_rate(population, big, trials=3, seed=7)
        assert rate == per_trial_false_certification_rate(population, big, 3, 7) == 1.0


def test_false_rate_checks_each_trial_once_in_order(monkeypatch):
    # the stacks handed to certify_sample hold each trial's own draw exactly
    # once, in trial order, and no more than STACK_VALUES values (or one trial)
    seen = []

    def spy(sample, p):
        seen.append(np.array(sample))
        return certify_sample(sample, p)

    monkeypatch.setattr(certificate, "certify_sample", spy)
    population = WeightVector.from_values([1, 10, 10])
    for k in (100, STACK_VALUES // 2, STACK_VALUES + 1):
        p = params(k=k, alpha=F(1, 2), alpha_star=F(9, 10), delta=0.99, cap=10)
        stack = max(1, STACK_VALUES // k)
        for trials in (1, stack + 1, 2 * stack + 1):
            seen.clear()
            false_certification_rate(population, p, trials=trials, seed=7)
            assert all(s.ndim == 2 and s.size <= max(STACK_VALUES, k) for s in seen)
            want = [np.random.default_rng((7, t)).choice([1, 10, 10], size=k) for t in range(trials)]
            np.testing.assert_array_equal(np.concatenate(seen), want)


def test_false_rate_deterministic_and_bounded():
    # capped population violating the limit: top fifth holds just over half
    values = [100] * 10 + [11] * 40
    population = WeightVector.from_values(values)
    p = params(k=400, alpha=F(1, 5), alpha_star=F(1, 2), delta=0.1, cap=100)
    r1 = false_certification_rate(population, p, trials=300, seed=9)
    r2 = false_certification_rate(population, p, trials=300, seed=9)
    assert r1 == r2
    assert r1 <= 0.1
