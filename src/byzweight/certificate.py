"""Certifying the share condition from a sample of capped weights.

When the full weight population is too large to inspect, draw k weights
i.i.d. (after capping) and test whether the top-``alpha`` share is within
``alpha_star`` for the whole population.  Three Hoeffding margins, each at
confidence delta/3, cover the top-group size, the trimmed top mean, and the
overall mean; a certificate issued despite the condition failing happens
with probability at most delta.  The check is one-sided: refusing to
certify promises nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .engine import streams
from .weights import TruncationQuery, WeightVector, top_share, truncate


class AlphaTooSmall(ValueError):
    """alpha must exceed the top-group margin eps1 for the window to exist."""


class ValueExceedsBound(ValueError):
    """Sampled weights must already be capped."""


@dataclass(frozen=True)
class CertificateParams:
    sample_size: int
    alpha: Fraction
    alpha_star: Fraction
    delta: float
    cap: int

    def __post_init__(self) -> None:
        if self.sample_size < 1:
            raise ValueError("sample_size must be positive")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not math.isfinite(3.0 / self.delta):  # the margins take log(3/delta)
            raise ValueError(f"delta={self.delta} is too small: 3/delta overflows a float")
        if self.cap < 1:
            raise ValueError("cap must be positive")
        query = TruncationQuery(self.alpha, self.alpha_star)
        object.__setattr__(self, "alpha", query.alpha)
        object.__setattr__(self, "alpha_star", query.alpha_star)


@dataclass(frozen=True)
class CertificateMargins:
    eps1: float
    eps2: float
    eps3: float


CSV_HEADER = "certified,lhs,eps1,eps2,eps3,top_mean,sample_mean"


@dataclass(frozen=True)
class CertificateResult:
    certified: bool
    lhs: float
    margins: CertificateMargins
    top_mean: float
    sample_mean: float

    def to_csv(self) -> str:
        m = self.margins
        fields = [str(self.certified).lower()] + [
            f"{x:.10g}" for x in (self.lhs, m.eps1, m.eps2, m.eps3, self.top_mean, self.sample_mean)
        ]
        return CSV_HEADER + "\n" + ",".join(fields) + "\n"


def int64_weights(values) -> np.ndarray:
    """`values` as an int64 array, with no copy when it already is one.

    A weight of 2^63 or more, or a float that is not a finite whole number,
    raises ValueError instead of wrapping or truncating in the cast.
    """
    array = np.asarray(values)
    if array.dtype.kind == "f" and not (np.isfinite(array) & (array == np.trunc(array))).all():
        raise ValueError("weights must be finite whole numbers")
    try:
        if array.dtype.kind in "fu" and (array >= 2**63).any():
            raise OverflowError
        return array.astype(np.int64, copy=False)
    except OverflowError:
        raise ValueError("weights of 2^63 or more do not fit in int64; lower the cap") from None


def margins(params: CertificateParams) -> CertificateMargins:
    """Hoeffding margins for the three estimates behind the certificate.

    eps1 bounds the top-group size estimate, eps2 the trimmed top mean (its
    sample count shrinks to k*(alpha - eps1) + 1), eps3 the overall mean;
    eps2 and eps3 scale with the cap because weights live in [0, cap].
    Raises AlphaTooSmall when alpha <= eps1, i.e. the sample is too small to
    resolve a top group of that fraction.
    """
    k = params.sample_size
    # eps2 and eps3 take the plain log, not the printed inner log: the proof supports it
    base = math.log(3.0 / params.delta)
    eps1 = math.sqrt(base / (2.0 * k))
    alpha = float(params.alpha)
    if alpha <= eps1:
        raise AlphaTooSmall(
            f"alpha={alpha} must exceed eps1={eps1:.6g}; increase the sample size"
        )
    eps2 = params.cap * math.sqrt(base / (2.0 * (k * (alpha - eps1) + 1.0)))
    eps3 = params.cap * math.sqrt(base / (2.0 * k))
    return CertificateMargins(eps1, eps2, eps3)


def trimmed_window_start(params: CertificateParams, eps1: float) -> int:
    """1-based order-statistic index where the certified top window begins.

    The window covers the top alpha - eps1 fraction of the sorted sample;
    the index ceiling is taken exactly (the float eps1 enters as its exact
    binary value), so boundary indices never drift.
    """
    excess = params.alpha - Fraction(eps1)
    return math.ceil((1 - excess) * params.sample_size)


def certify_sample(sample, params: CertificateParams) -> CertificateResult:
    """Decide the share condition from one i.i.d. sample of capped weights.

    Certifies iff alpha * (trimmed top mean + eps2) / (sample mean - eps3)
    is at most alpha_star and the denominator is positive.  An (m, k) stack
    decides m samples at once; its result holds length-m arrays of the
    verdicts, left-hand sides and means, each row equal to its own 1-D call.
    """
    values = int64_weights(sample)
    if values.ndim not in (1, 2) or values.shape[-1] != params.sample_size:
        raise ValueError(
            f"sample must hold exactly {params.sample_size} values, got shape {values.shape}"
        )
    if (values < 0).any():
        raise ValueError("sampled weights must be non-negative")
    if (values > params.cap).any():
        raise ValueExceedsBound(
            f"sample contains a value above the cap {params.cap}; cap the population first"
        )
    m = margins(params)
    start = trimmed_window_start(params, m.eps1)
    ordered = np.sort(values.reshape(-1, params.sample_size), axis=1)
    top_mean = ordered[:, start - 1:].mean(axis=1)
    sample_mean = ordered.mean(axis=1)
    denom = sample_mean - m.eps3
    lhs = np.full_like(denom, math.inf)
    np.divide(float(params.alpha) * (top_mean + m.eps2), denom, out=lhs, where=denom > 0)
    certified = lhs <= float(params.alpha_star)
    if values.ndim == 2:
        return CertificateResult(certified, lhs, m, top_mean, sample_mean)
    return CertificateResult(bool(certified[0]), float(lhs[0]), m, float(top_mean[0]),
                             float(sample_mean[0]))


STACK_VALUES = 2**18  # sampled values per stack of Monte-Carlo trials


def false_certification_rate(
    population: WeightVector, params: CertificateParams, trials: int, seed: int
) -> float:
    """Monte-Carlo estimate of the certificate's unsoundness on a population.

    Caps the population, then repeatedly samples with replacement and counts
    certificates issued while the capped population actually violates the
    share condition.  Returns 0 outright when the condition holds (no
    certificate can then be false).  Each trial draws from its own
    (seed, trial) stream, so the result is reproducible and independent of
    evaluation order; the trials are checked in stacks of about STACK_VALUES
    sampled values (at least one trial), which bounds the memory they take.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    capped = truncate(population, params.cap)
    if top_share(capped, params.alpha) <= params.alpha_star:
        return 0.0
    values = int64_weights(capped.values)
    k = params.sample_size
    block = np.empty((max(1, min(trials, STACK_VALUES // k)), k), dtype=np.int64)
    draws = streams(seed, np.arange(trials))
    hits = 0
    for done in range(0, trials, len(block)):
        stack = block[:trials - done]
        for row, rng in zip(stack, draws):  # zip reads a row first, so no stream is skipped
            row[:] = rng.choice(values, size=k)
        hits += int(certify_sample(stack, params).certified.sum())
    return hits / trials
