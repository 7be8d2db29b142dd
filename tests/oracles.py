"""Independent reference implementations used to check the library.

Everything here recomputes results from definitions: shares by sorting and
summing, caps either by trying every integer (scan_outcome, for small
values) or by bisecting on the integer cap and confirming the boundary
(bisect_outcome, for values up to 10^6), optimality by enumerating the full
candidate box.  Nothing imports the closed-form solver internals; the
earlier per-row interval sweep (_crossing) is kept here as a separate
reference for the crossing kernel that replaced it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np


def top_group_size(k: int, fraction: Fraction) -> int:
    """Members of the top group: 1-based i qualifies iff i > (1 - fraction) * k."""
    return k - math.floor((1 - fraction) * k)


def reference_top_share(values, fraction: Fraction) -> Fraction:
    """Share of the top `fraction` of clients, recomputed from scratch."""
    vs = sorted(values)
    k = len(vs)
    m = top_group_size(k, fraction)
    total = sum(vs)
    top = sum(vs[k - m:]) if m > 0 else 0
    return Fraction(top, total)


def scan_outcome(values, alpha: Fraction, alpha_star: Fraction):
    """Try every cap in [1, max(values)]; return ('no_truncation_needed', None),
    ('infeasible', None) or ('solved', best_cap).

    Pure-python exhaustive scan; use only for small max(values).
    """
    vs = sorted(values)
    best = 0
    for cap in range(1, vs[-1] + 1):
        capped = [min(x, cap) for x in vs]
        if reference_top_share(capped, alpha) <= alpha_star:
            best = cap
    if best == vs[-1]:
        return ("no_truncation_needed", None)
    if best == 0:
        return ("infeasible", None)
    return ("solved", best)


def bisect_outcome(values, alpha: Fraction, alpha_star: Fraction):
    """Same outcome as scan_outcome, found by bisection on the integer cap.

    Every probe recomputes the share of min(values, cap) with
    reference_top_share.  Bisection relies on the capped share being
    non-decreasing in the cap, which is checked on its own elsewhere; the
    answer is then confirmed directly: the raw vector is feasible
    ('no_truncation_needed'), cap 1 is not ('infeasible'), or `cap` is
    feasible and `cap + 1` is not ('solved').
    """
    vs = sorted(values)

    def feasible(cap):
        return reference_top_share([min(x, cap) for x in vs], alpha) <= alpha_star

    if feasible(vs[-1]):
        return ("no_truncation_needed", None)
    if not feasible(1):
        return ("infeasible", None)
    lo, hi = 1, vs[-1]  # feasible(lo) and not feasible(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    assert feasible(lo) and not feasible(lo + 1), (values, alpha, alpha_star, lo)
    return ("solved", lo)


def brute_force_l1_best(values, alpha: Fraction, alpha_star: Fraction) -> int:
    """Smallest L1 distance from `values` to any feasible vector below it.

    Enumerates every integer vector with 0 <= cand_i <= values_i (a
    preprocessing step may shrink a declared weight, never inflate it); a
    candidate is feasible when its sorted top share meets the limit.  Only
    sensible for K <= 5, values <= 12.
    """
    vs = np.asarray(sorted(values), dtype=np.int64)
    k = len(vs)
    m = top_group_size(k, alpha)
    p, q = alpha_star.numerator, alpha_star.denominator
    grids = np.meshgrid(*[np.arange(v + 1, dtype=np.int64) for v in vs], indexing="ij")
    cands = np.stack([g.ravel() for g in grids], axis=1)  # (N, k)
    cands_sorted = np.sort(cands, axis=1)
    totals = cands_sorted.sum(axis=1)
    tops = cands_sorted[:, k - m:].sum(axis=1) if m > 0 else np.zeros_like(totals)
    feasible = (totals > 0) & (tops * q <= p * totals)
    dists = (vs[None, :] - cands).sum(axis=1)  # cand <= vs coordinatewise
    return int(dists[feasible].min())


def curve_by_repeated_solve(values, alpha_star: Fraction, solve, query_cls):
    """Build the trade-off curve by solving each grid alpha independently."""
    from byzweight.weights import WeightVector

    v = WeightVector.from_values(values)
    k = len(v)
    pairs = []
    for j in range(math.floor(alpha_star * k), 0, -1):
        alpha = Fraction(j, k)
        out = solve(v, query_cls(alpha, alpha_star))
        if out.status == "solved":
            pairs.append((alpha, out.cap))
        elif out.status == "no_truncation_needed":
            break
    return tuple(pairs)


# The per-row interval sweep the library ran before its crossing kernel, kept
# verbatim as the reference for that kernel's rows and caps.

def _crossing(
    prefix: list[int], values: Sequence[int], j: int, u: int, p: int, q: int
) -> tuple[int, int | None]:
    """Find where the capped top-j share first exceeds p/q, walking up from u.

    Interval u (1-based) holds the caps between the u-th and (u+1)-th
    smallest weights; there the top-j share of the capped vector is
    (a + b*cap) / (c + d*cap), with a the weight of top-group clients at or
    below u, b the count of top-group clients above u, c the weight at or
    below u and d the count of clients above u.  Returns the first interval
    whose upper end exceeds the limit with the largest integer cap that
    meets it, or None when even the interval's lower end (at least 1)
    exceeds it.  Returns (len(values), None) when the uncapped vector meets
    the limit.  `prefix` holds the running sums of `values`, starting at 0.
    """
    k = len(values)
    lo = k - j  # the top group is the 0-based indices lo..k-1
    while u < k:
        upper = values[u]
        c = prefix[u]
        d = k - u
        if lo < u:
            a, b = c - prefix[lo], d
        else:
            a, b = 0, j
        if upper == 0 or (a + b * upper) * q <= p * (c + d * upper):
            u += 1
            continue
        lower = max(1, values[u - 1])
        if (a + b * lower) * q > p * (c + d * lower):
            return u, None
        # (a + b*cap)*q - p*(c + d*cap) is <= 0 at lower and > 0 at
        # upper > lower, so its slope b*q - d*p is positive and the
        # divisor below is negative, never zero.
        return u, (a * q - c * p) // (d * p - b * q)
    return u, None


def sweep_rows(values, alpha_star: Fraction) -> tuple[tuple[int, int], ...]:
    """tradeoff_curve's (j, cap) rows from one _crossing call per grid point."""
    values = sorted(values)
    k = len(values)
    p, q = alpha_star.numerator, alpha_star.denominator
    prefix = list(itertools.accumulate(values, initial=0))
    rows = []
    u = 1
    for j in range(math.floor(alpha_star * k), 0, -1):
        u, cap = _crossing(prefix, values, j, u, p, q)
        if u == k:
            break
        if cap is not None:
            rows.append((j, cap))
    return tuple(rows)


def sweep_cap(values, j: int, alpha_star: Fraction):
    """The cap solve_truncation reads from a _crossing walk for top-group size j
    (None when no cap of at least 1 meets the limit)."""
    values = sorted(values)
    prefix = list(itertools.accumulate(values, initial=0))
    return _crossing(prefix, values, j, 1, alpha_star.numerator, alpha_star.denominator)[1]


def _update_arrays(updates, weights):
    u = np.asarray(updates, dtype=float)
    wt = np.asarray(weights, dtype=float)
    return u, wt, wt.sum()


def stable_weighted_median(updates, weights) -> np.ndarray:
    """Weighted lower median through a stable argsort down the clients of
    the (K, P) matrix: the byte-level reference for the engine's median."""
    u, wt, total = _update_arrays(updates, weights)
    order = np.argsort(u, axis=0, kind="stable")
    ranked = np.take_along_axis(u, order, axis=0)
    cum = np.cumsum(wt[order], axis=0)
    pick = (cum >= total / 2).argmax(axis=0)
    return np.take_along_axis(ranked, pick[None, :], axis=0)[0]


def stable_trimmed_mean(updates, weights, beta: float) -> np.ndarray:
    """Weighted trimmed mean through a stable argsort down the clients of
    the (K, P) matrix: the byte-level reference for the engine's trimmed mean."""
    u, wt, total = _update_arrays(updates, weights)
    order = np.argsort(u, axis=0, kind="stable")
    ranked = np.take_along_axis(u, order, axis=0)
    lower = wt[order]  # each client's weight, turned in place into where its band starts
    cum = np.cumsum(lower, axis=0)
    lo, hi = beta * total, (1 - beta) * total
    upper = np.minimum(cum, hi)
    np.maximum(np.subtract(cum, lower, out=lower), lo, out=lower)
    surviving = np.clip(upper - lower, 0.0, None)
    return (surviving * ranked).sum(axis=0) / (total - 2 * beta * total)


def per_trial_false_certification_rate(population, params, trials: int, seed: int) -> float:
    """false_certification_rate with a fresh np.random.default_rng((seed,
    trial)) per trial: the reference for the library's batch-seeded streams.
    The population is capped, and its share checked, in Python ints."""
    from byzweight.certificate import certify_sample

    capped = sorted(min(int(x), params.cap) for x in population.values)
    if reference_top_share(capped, params.alpha) <= params.alpha_star:
        return 0.0
    values = np.array(capped, dtype=np.int64)  # a count past int64 raises OverflowError
    hits = 0
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        sample = rng.choice(values, size=params.sample_size, replace=True)
        if certify_sample(sample, params).certified:
            hits += 1
    return hits / trials


def client_by_client_update(model, w, clients, rows, cfg, round_index) -> np.ndarray:
    """The round's updates, each client trained alone one batch at a time
    from np.random.default_rng streams keyed (master_seed, 3, round, id) for
    the shuffle and (master_seed, 4, round, id) for dropout: the reference
    for the engine's lockstep round."""
    from byzweight.engine import Behavior
    from byzweight.tasks import Dataset

    seed, drops = cfg.master_seed, getattr(model, "dropout_rate", 0) > 0
    updates = []
    for client, data in zip(clients, rows):
        if client.behavior is Behavior.MODEL_NEGATION:
            updates.append(-w)
            continue
        n, b = len(data), cfg.batch_size
        if isinstance(b, float):
            b = max(1, math.ceil(b * n))
        shuffle = np.random.default_rng((seed, 3, round_index, client.id)) if n > 1 else None
        dropout = np.random.default_rng((seed, 4, round_index, client.id)) if drops else None
        v = np.array(w, dtype=float)
        for _ in range(cfg.epochs):
            order = shuffle.permutation(n) if shuffle is not None else np.arange(n)
            for start in range(0, n, b):
                batch = order[start : start + b]
                grad = model.gradient(v, Dataset(data.features[batch], data.labels[batch]), dropout)
                v = v - (cfg.eta * (len(batch) / b)) * grad
        updates.append(v)
    return np.array(updates)


def training_rows(model, client, cfg, effective_size):
    """The rows a client trains on in every round, built from its own rows
    alone: none for a model-negation attacker; without honest_use_all_samples
    the sorted first min(effective_size, rows) of a permutation drawn from
    np.random.default_rng((master_seed, 5, id)); labels y become
    (classes-1)-y under label shift.  The reference for the engine's row pool."""
    from byzweight.engine import Behavior
    from byzweight.tasks import Dataset

    data = client.data
    if client.behavior is Behavior.MODEL_NEGATION:
        return Dataset(data.features[:0], data.labels[:0])
    keep = len(data) if cfg.honest_use_all_samples else min(effective_size, len(data))
    if keep < len(data):
        idx = np.sort(np.random.default_rng((cfg.master_seed, 5, client.id)).permutation(len(data))[:keep])
        data = Dataset(data.features[idx], data.labels[idx])
    if client.behavior is Behavior.LABEL_SHIFT:
        data = Dataset(data.features, (model.classes - 1) - data.labels)
    return data


def shards(data, sizes) -> list:
    """Shard i of split_by_sizes' (data, sizes): the next sizes[i] rows."""
    from byzweight.tasks import Dataset

    cuts = np.cumsum(sizes)[:-1]
    return [Dataset(f, y) for f, y in zip(np.split(data.features, cuts), np.split(data.labels, cuts))]
