"""Acceptance checks, one test per shipped claim.

Each test prints a single `criterion NN: PASS/FAIL` line with the measured
quantity so a full run reads as a scorecard.  Solver claims are checked
against the independent oracles in oracles.py; the simulation claims run the
shipped experiment config once (module fixture, parallel workers) and assert
the qualitative attack/defense phenomena at fixed tolerances.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

import numpy as np
import pytest

from byzweight.cli import main
from byzweight.config import parse_config
from byzweight.certificate import CertificateParams, false_certification_rate
from byzweight.engine import Behavior, Clients, aggregate_trimmed_mean, aggregate_weighted_median
from byzweight.experiment import build_clients, build_task, run_cells
from byzweight.tasks import (
    Dataset,
    OneHiddenMLP,
    SoftmaxRegression,
    generate_blobs,
    objective_gap,
    split_by_sizes,
)
from byzweight.weights import (
    TruncationQuery,
    TruncationStatus,
    WeightVector,
    solve_truncation,
    top_share,
    tradeoff_curve,
    truncate,
)
from oracles import bisect_outcome, brute_force_l1_best, reference_top_share


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def random_weights(rng, k_max=50, value_exp=6):
    k = int(rng.integers(2, k_max + 1))
    vals = np.power(10.0, rng.uniform(0, value_exp, size=k))
    return [int(v) + 1 for v in vals]


# ---------------------------------------------- 1: solver vs bisection oracle


def test_criterion_01_solver_matches_exhaustive_scan():
    rng = np.random.default_rng(101)
    t0 = time.time()
    checked = 0
    for _ in range(1000):
        values = random_weights(rng)
        k = len(values)
        alpha = Fraction(int(rng.integers(1, k + 1)), k)
        alpha_star = Fraction(3, 10) if rng.integers(2) else Fraction(1, 2)
        out = solve_truncation(WeightVector.from_values(values), TruncationQuery(alpha, alpha_star))
        want = bisect_outcome(values, alpha, alpha_star)
        assert (out.status, out.cap) == want, (values, alpha, alpha_star, out, want)
        checked += 1
    dt = time.time() - t0
    report(1, checked == 1000 and dt < 10.0, f"{checked}/1000 exact matches in {dt:.1f}s")


# ------------------------------------------------------------- 2: monotonicity


def test_criterion_02_share_and_curve_monotone():
    rng = np.random.default_rng(102)
    violations = 0
    for _ in range(200):
        values = random_weights(rng, k_max=40)
        v = WeightVector.from_values(values)
        k = len(v)
        alpha = Fraction(int(rng.integers(1, k + 1)), k)
        caps = sorted(int(c) + 1 for c in rng.integers(0, max(values), size=12))
        shares = [top_share(truncate(v, c), alpha) for c in caps]
        if any(a > b for a, b in zip(shares, shares[1:])):
            violations += 1
        curve = tradeoff_curve(v, Fraction(1, 2))
        alphas = [Fraction(j, curve.k) for j, _ in curve.rows]
        ustars = [u for _, u in curve.rows]
        if any(a >= b for a, b in zip(alphas[1:], alphas)):  # must strictly drop
            violations += 1
        if any(a > b for a, b in zip(ustars, ustars[1:])):  # caps must not drop
            violations += 1
    report(2, violations == 0, f"{violations} monotonicity violations on 200 vectors")


# ------------------------------------------------------------ 3: L1 optimality


def test_criterion_03_truncation_l1_optimal():
    # claim under test: the real-valued maximal cap U* is never beaten, in L1
    # distance from the declared vector, by ANY feasible shrunken integer
    # vector, and the solver's integer cap c = floor(U*) loses only rounding:
    # fewer than n units, n being the clients declared above c.  The integer
    # cap itself is not L1-optimal among integer vectors: when U* is
    # fractional a two-level cap (some big clients at c, others at c+1) can
    # save a unit.  How often that happens is reported, not gated.
    rng = np.random.default_rng(103)
    compared = 0
    violations = 0
    beaten = 0
    worst = 0
    for _ in range(150):
        k = int(rng.integers(2, 6))
        values = [int(x) for x in rng.integers(1, 13, size=k)]
        alpha_star = Fraction(3, 10) if k >= 4 and rng.integers(2) else Fraction(1, 2)
        m = int(rng.integers(1, int(alpha_star * k) + 1))  # keep cap-1 feasible
        alpha = Fraction(m, k)
        out = solve_truncation(WeightVector.from_values(values), TruncationQuery(alpha, alpha_star))
        assert out.status != TruncationStatus.INFEASIBLE, (values, alpha, alpha_star)
        best = brute_force_l1_best(values, alpha, alpha_star)
        compared += 1
        if out.status == TruncationStatus.NO_TRUNCATION_NEEDED:
            continue  # distance 0 cannot be beaten
        c = out.cap
        capped = [min(x, c) for x in values]
        assert reference_top_share(capped, alpha) <= alpha_star, (values, alpha, c)
        assert reference_top_share([min(x, c + 1) for x in values], alpha) > alpha_star
        # on caps in [c, c+1] the n clients above c sit at the cap and are the
        # heaviest, so the total grows by n and the top-m sum by min(m, n)
        n = sum(x > c for x in values)
        total_c = sum(capped)
        top_c = sum(sorted(capped)[k - m:])
        t = (alpha_star * total_c - top_c) / (min(m, n) - alpha_star * n)
        assert 0 <= t < 1, (values, alpha, c, t)
        u_star = c + t
        assert reference_top_share([min(x, u_star) for x in values], alpha) == alpha_star
        dist = sum(x - min(x, c) for x in values)
        dist_real = sum(x - min(x, u_star) for x in values)
        if dist_real > best or dist - best >= n:
            violations += 1
        if best < dist:
            beaten += 1
            worst = max(worst, dist - best)
    report(
        3,
        compared >= 100 and violations == 0,
        f"{violations}/{compared} instances break real-valued optimality or the rounding "
        f"bound; integer cap beaten by a two-level vector on {beaten}/{compared} "
        f"(worst margin {worst} weight unit)",
    )


# ------------------------------------------------------- 4: certificate soundness


def test_criterion_04_false_certification_rate():
    # violated population: capped top-0.2 share 1090/1810, above 1/2
    # alpha = 1/5 keeps alpha > eps1 even at the smallest sample (k=200, delta=0.05)
    population = WeightVector.from_values([9] * 90 + [100] * 10)
    cap = 100
    assert top_share(truncate(population, cap), Fraction(1, 5)) > Fraction(1, 2)
    t0 = time.time()
    worst = 0.0
    for delta in (0.05, 0.1):
        for k in (200, 1000):
            params = CertificateParams(
                sample_size=k,
                alpha=Fraction(1, 5),
                alpha_star=Fraction(1, 2),
                delta=delta,
                cap=cap,
            )
            rate = false_certification_rate(population, params, trials=2000, seed=104)
            assert rate <= delta, (delta, k, rate)
            worst = max(worst, rate)
    dt = time.time() - t0
    report(4, dt < 60.0, f"max false-cert rate {worst:.4f} over 4 settings x 2000 trials, {dt:.1f}s")


# ------------------------------------------------------------ 5: objective gap


def _gap_instance(rng, k):
    # adversarial regime of the bound: attackers inflate their declared count
    # far over any swept cap AND hold corrupted (label-flipped) data, while w
    # sits near the clean optimum so their shard objective is genuinely high
    sizes = [int(x) for x in rng.integers(20, 100, size=k)]
    ds = generate_blobs(sum(sizes), dim=5, classes=3, seed=int(rng.integers(1e9)))
    data, sizes = split_by_sizes(ds, sizes, seed=int(rng.integers(1e9)))
    declared, behavior = sizes.tolist(), [Behavior.HONEST] * k
    liars = int(rng.integers(0, max(2, k // 3)))
    for i in rng.choice(k, size=liars, replace=False):
        declared[i] = 10**6 + int(rng.integers(0, 1000))
        behavior[i] = Behavior.LABEL_SHIFT
    clients = Clients(data, sizes, declared, behavior)
    shards = [c.data if c.behavior is Behavior.HONEST else Dataset(c.data.features, 2 - c.data.labels)
              for c in clients]
    model = SoftmaxRegression(dim=5, classes=3)
    w = np.zeros(model.param_count)
    for _ in range(40):
        w -= 0.5 * model.gradient(w, ds)
    return model, w, shards, declared


def test_criterion_05_gap_bound_and_exact_zero():
    rng = np.random.default_rng(105)
    checked = 0
    for _ in range(100):
        k = int(rng.choice([3, 5, 10]))
        model, w, shards, declared = _gap_instance(rng, k)
        honest_max = max(len(s) for s in shards)
        # caps between the honest maximum and the inflated declarations, so
        # exactly the liars land above every swept cap
        for cap in (2 * honest_max, 4 * honest_max, 8 * honest_max):
            lhs, rhs = objective_gap(model, w, shards, declared, cap=cap)
            assert lhs <= rhs + 1e-9, (k, cap, lhs, rhs)
        checked += 1
    # with the cap above every declared size both sides vanish identically
    model, w, shards, declared = _gap_instance(rng, 5)
    truthful = [len(s) for s in shards]
    lhs, rhs = objective_gap(model, w, shards, truthful, cap=max(truthful))
    assert lhs == 0.0 and rhs == 0.0
    report(5, checked == 100, f"{checked}/100 instances within 1e-9, exact zero at full cap")


# ------------------------------------------------------- 6: gradient correctness


def _finite_difference(loss_fn, w, h=1e-6):
    grad = np.zeros_like(w)
    for i in range(len(w)):
        up, down = w.copy(), w.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2 * h)
    return grad


def _rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12)


def test_criterion_06_gradients_match_finite_differences():
    rng = np.random.default_rng(106)
    worst = 0.0
    softmax = SoftmaxRegression(dim=5, classes=3)
    for _ in range(50):
        batch = generate_blobs(11, dim=5, classes=3, seed=int(rng.integers(1e9)))
        w = rng.standard_normal(softmax.param_count)
        fd = _finite_difference(lambda v: softmax.loss(v, batch), w)
        worst = max(worst, _rel_err(softmax.gradient(w, batch), fd))
    mlp = OneHiddenMLP(dim=4, hidden=6, classes=3, dropout_rate=0.2)
    for trial in range(50):
        batch = generate_blobs(9, dim=4, classes=3, seed=int(rng.integers(1e9)))
        w = rng.standard_normal(mlp.param_count)
        if trial % 2:
            # train mode: replay the identical dropout mask at every probe
            seed = 10_000 + trial
            fd = _finite_difference(lambda v: mlp.loss(v, batch, np.random.default_rng(seed)), w)
            got = mlp.gradient(w, batch, np.random.default_rng(seed))
        else:
            fd = _finite_difference(lambda v: mlp.loss(v, batch), w)
            got = mlp.gradient(w, batch)
        worst = max(worst, _rel_err(got, fd))
    report(6, worst <= 1e-5, f"worst relative error {worst:.2e} over 50 instances per model")


# ------------------------------------------------------ 7: aggregator reductions


def test_criterion_07_uniform_weight_reductions():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(3, 41))
        d = int(rng.integers(1, 7))
        vals = rng.standard_normal((n, d)) * 10
        ones = np.ones(n)
        got = aggregate_weighted_median(vals, ones)
        classic = np.sort(vals, axis=0)[(n - 1) // 2]
        worst = max(worst, float(np.abs(got - classic).max()))
        k = int(rng.integers(1, max(2, (n - 1) // 2 + 1)))
        got = aggregate_trimmed_mean(vals, ones, beta=k / n)
        classic = np.sort(vals, axis=0)[k : n - k].mean(axis=0)
        worst = max(worst, float(np.abs(got - classic).max()))
    report(7, worst <= 1e-12, f"max deviation from classics {worst:.2e} on 500 instances")


# ------------------------------------------- 8-10: simulated attack experiments

ACCEPT_CONFIG = """\
[task]
dim = 20
classes = 10
train_samples = 20000
test_samples = 2000
clients = 100
separation = 6.0

[model]
kind = mlp
hidden = 64
dropout = 0.0

[training]
rounds = 100
eta = 0.3
epochs = 1
batch_size = 100

[aggregator]
beta = 0.1

[seeds]
master = 0
"""

GRID = [
    (p, a, "none") for p in ("passthrough", "truncate") for a in ("mean", "median", "trimmed")
] + [
    ("ignore", "median", "none"),  # the other ignore cells are read by no criterion
    ("passthrough", "mean", "negation_single"),
    ("passthrough", "median", "negation_single"),
    ("passthrough", "trimmed", "negation_single"),
    ("truncate", "median", "negation_single"),
    ("truncate", "trimmed", "negation_single"),
    ("passthrough", "mean", "negation_fraction"),
    ("truncate", "median", "negation_fraction"),
    ("truncate", "trimmed", "negation_fraction"),
    ("passthrough", "mean", "label_shift_fraction"),
    ("truncate", "median", "label_shift_fraction"),
    ("truncate", "trimmed", "label_shift_fraction"),
]

COLLAPSE = 1 / 10 + 0.05  # chance level for 10 classes plus slack


@pytest.fixture(scope="module")
def sim():
    t0 = time.time()
    # trained by the same call as `simulate --jobs N`
    cfg = parse_config(ACCEPT_CONFIG)
    shards, test = build_task(cfg)
    clients = {s: build_clients(cfg, s, shards) for s in {cell[2] for cell in GRID}}
    results = run_cells(cfg, clients, test, GRID, jobs=min(10, os.cpu_count() or 1))
    acc = {(r.preprocess, r.aggregator, r.attack): r.final_accuracy for r in results}
    return acc, time.time() - t0


def test_criterion_08_no_attack_baselines(sim):
    acc, elapsed = sim
    gaps = {
        agg: abs(acc[("truncate", agg, "none")] - acc[("passthrough", agg, "none")])
        for agg in ("mean", "median", "trimmed")
    }
    handicap = acc[("passthrough", "median", "none")] - acc[("ignore", "median", "none")]
    ok = max(gaps.values()) <= 0.02 and handicap >= 0.03 and elapsed < 300.0
    report(
        8,
        ok,
        f"truncate-vs-passthrough gaps {max(gaps.values()):.4f} (<=0.02), "
        f"unweighted-median handicap {handicap:.4f} (>=0.03), grid {elapsed:.0f}s",
    )


def test_criterion_09_single_attacker(sim):
    acc, _ = sim
    collapse = max(acc[("passthrough", agg, "negation_single")] for agg in ("mean", "median", "trimmed"))
    defended = max(
        abs(acc[("truncate", agg, "negation_single")] - acc[("truncate", agg, "none")])
        for agg in ("median", "trimmed")
    )
    ok = collapse <= COLLAPSE and defended <= 0.05
    report(
        9,
        ok,
        f"passthrough collapse max {collapse:.4f} (<= {COLLAPSE:.2f}), "
        f"truncate robust gap max {defended:.4f} (<=0.05)",
    )


def test_criterion_10_fraction_attackers(sim):
    acc, _ = sim
    defended = max(
        abs(acc[("truncate", agg, scen)] - acc[("truncate", agg, "none")])
        for agg in ("median", "trimmed")
        for scen in ("negation_fraction", "label_shift_fraction")
    )
    collapse = max(
        acc[("passthrough", "mean", scen)] for scen in ("negation_fraction", "label_shift_fraction")
    )
    ok = defended <= 0.05 and collapse <= COLLAPSE
    report(
        10,
        ok,
        f"truncate robust gap max {defended:.4f} (<=0.05), "
        f"passthrough mean collapse max {collapse:.4f} (<= {COLLAPSE:.2f})",
    )


# -------------------------------------------------------------- 11: determinism

SMALL_SIM = """\
[task]
dim = 5
classes = 3
train_samples = 300
test_samples = 90
clients = 8
separation = 3.0

[training]
rounds = 3
batch_size = 16

[attack]
scenarios = none, negation_single

[seeds]
master = 11
"""


def test_criterion_11_simulate_byte_identical(tmp_path):
    config = tmp_path / "config.ini"
    config.write_text(SMALL_SIM)
    outs = []
    for name, jobs in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / name
        assert main(["simulate", "--config", str(config), "--out-dir", str(out), "--jobs", str(jobs)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert "summary.csv" in names and len(names) == 19
    identical = True
    for other in outs[1:]:
        assert sorted(p.name for p in other.iterdir()) == names
        for name in names:
            if (outs[0] / name).read_bytes() != (other / name).read_bytes():
                identical = False
    report(11, identical, f"{len(names)} files byte-identical across reruns and jobs=2")
