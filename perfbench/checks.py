"""Output checks that recompute each answer without the library's code.

Every check raises CheckFailed with a reason.  None of them calls into
byzweight: shares are summed with Python ints over the capped vector, the
certificate margins and its left-hand side are recomputed from the Hoeffding
formulas, and the simulator's CSVs are parsed as text.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def top_count(k: int, alpha: Fraction) -> int:
    """Clients in the heaviest alpha fraction of k: ceil(alpha * k)."""
    return -((-alpha.numerator * k) // alpha.denominator)


def capped_share_ok(sorted_values, alpha: Fraction, alpha_star: Fraction, cap: int) -> bool:
    """Exact test that capping at `cap` leaves the top group within alpha*."""
    capped = [x if x < cap else cap for x in sorted_values]
    total = sum(capped)
    top = sum(capped[len(capped) - top_count(len(capped), alpha):])
    return top * alpha_star.denominator <= alpha_star.numerator * total


def check_cap(sorted_values, alpha: Fraction, alpha_star: Fraction, cap) -> None:
    """`cap` is the largest integer cap meeting alpha*: c passes, c+1 fails."""
    require(isinstance(cap, int) and cap >= 1, f"cap {cap!r} is not a positive integer")
    require(
        capped_share_ok(sorted_values, alpha, alpha_star, cap),
        f"cap {cap} leaves the top {alpha} above {alpha_star}",
    )
    require(
        not capped_share_ok(sorted_values, alpha, alpha_star, cap + 1),
        f"cap {cap} is not maximal: {cap + 1} also meets {alpha_star} at {alpha}",
    )


def check_solve(sorted_values, alpha: Fraction, alpha_star: Fraction, outcome) -> None:
    """A solve on planted liars must truncate, at the exact maximal cap."""
    require(outcome.status == "solved", f"status {outcome.status!r}, expected 'solved'")
    check_cap(sorted_values, alpha, alpha_star, outcome.cap)
    capped = [min(x, outcome.cap) for x in sorted_values]
    top = sum(capped[len(capped) - top_count(len(capped), alpha):])
    require(
        outcome.achieved_share == Fraction(top, sum(capped)),
        f"reported share {outcome.achieved_share} differs from the capped share",
    )


def check_tradeoff(text: str, sorted_values, alpha_star: Fraction, sample_rows) -> dict:
    """Parse the curve, test its order, and test sampled rows exactly.

    Returns {j: cap} for every row, where alpha = j / K.  `sample_rows`
    picks the rows to test exactly from the row count.
    """
    lines = text.splitlines()
    require(len(lines) >= 2 and lines[0] == "alpha,u_star", "tradeoff CSV has no header or rows")
    k = len(sorted_values)
    rows = []
    for line in lines[1:]:
        a_text, cap_text = line.split(",")
        alpha = float(a_text)
        j = round(alpha * k)
        require(abs(j / k - alpha) <= 5e-7, f"alpha {a_text} is not on the 1/{k} grid")
        rows.append((j, int(cap_text)))
    for (j0, c0), (j1, c1) in zip(rows, rows[1:]):
        require(j1 < j0, f"alpha not strictly decreasing at {j0}/{k} -> {j1}/{k}")
        require(c1 >= c0, f"u_star decreases at alpha {j1}/{k}: {c0} -> {c1}")
    for i in sample_rows(len(rows)):
        check_cap(sorted_values, Fraction(rows[i][0], k), alpha_star, rows[i][1])
    return dict(rows)


def hoeffding_margins(k: int, alpha: float, delta: float, cap: int):
    eps1 = math.sqrt(math.log(3 / delta) / (2 * k))
    eps2 = cap * math.sqrt(math.log(3 / delta) / (2 * (k * (alpha - eps1) + 1)))
    eps3 = cap * math.sqrt(math.log(3 / delta) / (2 * k))
    return eps1, eps2, eps3


def close(a: float, b: float, rel: float = 1e-8) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def check_certify(
    rc: int, text: str, sorted_values, k: int, alpha: Fraction, alpha_star: Fraction,
    delta: float, cap: int, seed: int,
) -> None:
    """Recompute margins and lhs from a sample drawn here, then the verdict.

    The sample is redrawn the way `byzweight certify` documents it: k draws
    with replacement from the capped, sorted weights, from a generator
    seeded with --seed.
    """
    lines = text.splitlines()
    require(len(lines) == 2 and lines[0].startswith("certified,lhs,"), "certificate CSV malformed")
    fields = lines[1].split(",")
    certified = {"true": True, "false": False}[fields[0]]
    lhs, eps1, eps2, eps3, top_mean, sample_mean = map(float, fields[1:])
    want = hoeffding_margins(k, float(alpha), delta, cap)
    for name, got, exp in zip(("eps1", "eps2", "eps3"), (eps1, eps2, eps3), want):
        require(close(got, exp), f"{name} {got} differs from the Hoeffding value {exp}")
    population = np.minimum(np.asarray(sorted_values, dtype=np.int64), cap)
    sample = np.sort(np.random.default_rng(seed).choice(population, size=k, replace=True))
    start = math.ceil((1 - (alpha - Fraction(want[0]))) * k)
    my_top = sum(int(x) for x in sample[start - 1:]) / (k - start + 1)
    my_mean = sum(int(x) for x in sample) / k
    require(close(top_mean, my_top) and close(sample_mean, my_mean), "sample means differ")
    denom = my_mean - want[2]
    my_lhs = float(alpha) * (my_top + want[1]) / denom if denom > 0 else math.inf
    require(close(lhs, my_lhs), f"lhs {lhs} differs from the recomputed {my_lhs}")
    require(certified == (my_lhs <= float(alpha_star)), f"certified={certified} but lhs={my_lhs}")
    require(rc == (0 if certified else 4), f"exit code {rc} with certified={certified}")


def check_false_rates(violating_rate: float, meeting_rate: float, delta: float) -> None:
    require(0 <= violating_rate <= delta, f"false-certification rate {violating_rate} above {delta}")
    require(meeting_rate == 0.0, f"rate {meeting_rate} on a population that meets the limit")


def read_metrics_csv(text: str, rounds: int) -> list[float]:
    """Test accuracies of a cell that must hold exactly one row per round."""
    lines = text.splitlines()
    require(lines[:1] == ["round,test_accuracy,test_loss,aggregate_norm"], "metrics header")
    require(len(lines) == rounds + 1, f"{len(lines) - 1} metric rows, expected {rounds}")
    accs = []
    for t, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        require(int(fields[0]) == t, f"row {t} numbered {fields[0]}")
        values = [float(x) for x in fields[1:]]
        require(all(math.isfinite(x) for x in values), f"non-finite metric in round {t}")
        require(0.0 <= values[0] <= 1.0, f"accuracy {values[0]} outside [0, 1]")
        accs.append(values[0])
    return accs


def check_grid(files: dict, cells, rounds: int, floor_cells, floor: float, robust_pairs, gap: float) -> None:
    """One row per round per cell, the summary, and the accuracy properties.

    `files` maps file names to their text.  Cells in `floor_cells` must reach
    `floor`; each (attacked, clean) pair in `robust_pairs` must end within
    `gap` of each other.
    """
    final = {}
    for cell in cells:
        name = "metrics_{}_{}_{}.csv".format(*cell)
        require(name in files, f"missing {name}")
        final[cell] = read_metrics_csv(files[name], rounds)[-1]
    summary = files.get("summary.csv", "").splitlines()
    require(summary[:1] == ["preprocess,aggregator,attack,final_accuracy"], "summary header")
    require(len(summary) == len(cells) + 1, "summary has the wrong number of rows")
    for cell, line in zip(cells, summary[1:]):
        p, a, s, acc = line.split(",")
        require((p, a, s) == tuple(cell), f"summary row {line!r} out of grid order")
        require(float(acc) == final[cell], f"summary accuracy of {cell} differs from its CSV")
    for cell in floor_cells:
        require(final[cell] >= floor, f"{cell} reached {final[cell]}, below {floor}")
    for attacked, clean in robust_pairs:
        require(
            abs(final[attacked] - final[clean]) <= gap,
            f"{attacked} ended at {final[attacked]}, {clean} at {final[clean]}",
        )
