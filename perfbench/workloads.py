"""The three workloads: inputs made from the seed, one cycle of operations
each, the checks on every output, and the per-layer figures of a traced run.

Each operation calls byzweight in this process through its public modules,
looked up at call time so that a traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import checks

ALPHA = Fraction(1, 10)
ALPHA_STAR = Fraction(1, 2)
LIAR_COUNT = 10**7
SAMPLED_ROWS = 3  # curve rows per cycle that get the exact cap test


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def run_cli(bz, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = bz["cli"].main(argv)
    return rc, out.getvalue()


def declared_counts(rng, k: int) -> list[int]:
    """Lognormal(1.5, 3.45) counts, at least 1, with 1 % liars declaring 10^7."""
    values = np.maximum(1, np.rint(rng.lognormal(1.5, 3.45, k))).astype(np.int64)
    values[rng.choice(k, size=max(1, k // 100), replace=False)] = LIAR_COUNT
    return [int(x) for x in values]


class Preprocess:
    """Server-side handling of declared weights; no training."""

    name = "preprocess"
    walks_lists = True  # the reference mix walks a long int list, as solve and parse do

    def __init__(self, bz, seed, workdir, clients=4000, pool=2, file_lines=200_000,
                 trials=2000, certify_k=2000):
        self.bz, self.seed, self.workdir = bz, seed, workdir
        self.clients, self.pool_size, self.file_lines = clients, pool, file_lines
        self.trials, self.certify_k = trials, certify_k
        self.delta = 0.05
        self.cap = None

    def setup(self) -> None:
        w, c = self.bz["weights"], self.bz["certificate"]
        rng = np.random.default_rng((self.seed, 1))
        self.pool = []
        for _ in range(self.pool_size):
            values = declared_counts(rng, self.clients)
            self.pool.append((w.WeightVector.from_values(values), sorted(values)))
        values = declared_counts(rng, self.file_lines)
        self.file_sorted = sorted(values)
        self.path = os.path.join(self.workdir, "weights.txt")
        with open(self.path, "w") as fh:
            fh.write("\n".join(map(str, values)) + "\n")
        # Monte-Carlo populations: ninety light clients and ten at the cap
        # violate alpha* = 1/2 at alpha = 1/5; uniform 5..10 capped at 10 meets it
        mc_rng = np.random.default_rng((self.seed, 2))
        violating = [int(x) for x in mc_rng.integers(8, 11, 90)] + [100] * 10
        meeting = [int(x) for x in mc_rng.integers(5, 11, 100)]
        self.mc = [
            (violating, w.WeightVector.from_values(violating),
             c.CertificateParams(1000, Fraction(1, 5), ALPHA_STAR, self.delta, 100)),
            (meeting, w.WeightVector.from_values(meeting),
             c.CertificateParams(1000, Fraction(1, 5), ALPHA_STAR, self.delta, 10)),
        ]
        self.query = w.TruncationQuery(ALPHA, ALPHA_STAR)
        self.row_rng = np.random.default_rng((self.seed, 3))
        # warm-up: every operation once on a small input
        small = os.path.join(self.workdir, "warm.txt")
        with open(small, "w") as fh:
            fh.write("\n".join(map(str, values[:200])) + "\n")
        w.solve_truncation(w.WeightVector.from_values(values[:200]), self.query)
        run_cli(self.bz, ["tradeoff", "--weights", small, "--alpha-star", "1/2"])
        c.false_certification_rate(self.mc[0][1], self.mc[0][2], 10, self.seed)

    def verify(self) -> None:
        (violating, _, pv), (meeting, _, pm) = self.mc
        checks.require(
            not checks.capped_share_ok(sorted(violating), pv.alpha, pv.alpha_star, pv.cap),
            "the Monte-Carlo population meant to violate the limit meets it",
        )
        checks.require(
            checks.capped_share_ok(sorted(meeting), pm.alpha, pm.alpha_star, pm.cap),
            "the Monte-Carlo population meant to meet the limit violates it",
        )

    def cycle(self) -> list[Op]:
        w, c = self.bz["weights"], self.bz["certificate"]
        self.cap = None
        ops = [
            Op("solve",
               lambda v=v: w.solve_truncation(v, self.query),
               lambda out, s=s: checks.check_solve(s, ALPHA, ALPHA_STAR, out))
            for v, s in self.pool
        ]
        ops.append(Op(
            "tradeoff",
            lambda: run_cli(self.bz, ["tradeoff", "--weights", self.path, "--alpha-star", "1/2"]),
            self.check_tradeoff,
        ))
        ops.append(Op("certify", self.certify, self.check_certify))
        ops.append(Op(
            "mc",
            lambda: [c.false_certification_rate(v, p, self.trials, self.seed) for _, v, p in self.mc],
            lambda rates: checks.check_false_rates(*rates, self.delta),
        ))
        return ops

    def check_tradeoff(self, out) -> None:
        rc, text = out
        checks.require(rc == 0, f"tradeoff exit code {rc}")

        def sample(n):
            return self.row_rng.choice(n, size=min(SAMPLED_ROWS, n), replace=False)

        rows = checks.check_tradeoff(text, self.file_sorted, ALPHA_STAR, sample)
        j = self.file_lines * ALPHA.numerator // ALPHA.denominator
        checks.require(j in rows, "the curve has no row for alpha = 1/10")
        checks.check_cap(self.file_sorted, ALPHA, ALPHA_STAR, rows[j])
        self.cap = rows[j]

    def certify_argv(self) -> list[str]:
        return ["certify", "--weights", self.path, "--k", str(self.certify_k), "--alpha", "1/10",
                "--alpha-star", "1/2", "--delta", str(self.delta), "--u", str(self.cap),
                "--seed", str(self.seed)]

    def certify(self):
        checks.require(self.cap is not None, "no cap from this cycle's curve to certify")
        return run_cli(self.bz, self.certify_argv())

    def check_certify(self, out) -> None:
        rc, text = out
        checks.check_certify(rc, text, self.file_sorted, self.certify_k, ALPHA, ALPHA_STAR,
                             self.delta, self.cap, self.seed)

    def layer_metrics(self, st, cycles: int) -> dict:
        solves = st.count("weights.solve_truncation")
        return {
            "weights.solve_truncation.ms": (1e3 * st.mean("weights.solve_truncation"), "ms"),
            "weights.solve_truncation.truncate_calls":
                (st.count("weights.truncate", anchor="weights.solve_truncation") / solves, "count"),
            "weights.solve_truncation.top_share_calls":
                (st.count("weights.top_share", anchor="weights.solve_truncation") / solves, "count"),
            "weights.read_weights_file.ms": (1e3 * st.mean("weights.read_weights_file"), "ms"),
            "weights.tradeoff_curve.ms": (1e3 * st.mean("weights.tradeoff_curve"), "ms"),
            "weights.truncate.ms": (1e3 * st.mean("weights.truncate", anchor="op.certify"), "ms"),
            "certificate.certify_sample.us": (1e6 * st.mean("certificate.certify_sample"), "us"),
            "certificate.false_certification_rate.self_ms":
                (1e3 * st.self_total("certificate.false_certification_rate") / cycles, "ms"),
            "cli.main.self_ms": (1e3 * st.self_total("cli.main") / st.count("cli.main"), "ms"),
        }


MLP_TASK = """\
separation = 6.0
[model]
kind = mlp
hidden = 64
dropout = 0.0
[training]
batch_size = 100
"""

CROWD_TASK = """\
[model]
kind = softmax
[training]
batch_size = 1.0
"""


def grid_config(task: str, *, rounds, modes, kinds, scenarios, seed, clients, train_samples,
                test_samples) -> str:
    return (
        f"[task]\nclients = {clients}\ntrain_samples = {train_samples}\n"
        f"test_samples = {test_samples}\n{task}"
        f"rounds = {rounds}\neta = 0.3\nepochs = 1\n"
        f"[preprocess]\nmodes = {', '.join(modes)}\nalpha = 1/10\nalpha_star = 1/2\n"
        f"[aggregator]\nkinds = {', '.join(kinds)}\nbeta = 0.1\n"
        f"[attack]\nscenarios = {', '.join(scenarios)}\n"
        f"[seeds]\nmaster = {seed}\n"
    )


class Train:
    """`byzweight simulate` over a preprocess x aggregator x attack grid."""

    walks_lists = False  # small arrays and per-client overhead, no long lists

    def __init__(self, bz, seed, workdir, name, task, *, rounds, modes, floor_cells,
                 robust_pairs, clients, train_samples=20000, test_samples=2000):
        self.bz, self.seed, self.workdir, self.name = bz, seed, workdir, name
        self.rounds = rounds
        self.kinds = ("mean", "median", "trimmed")
        self.scenarios = ("none", "negation_fraction")
        self.cells = [(p, a, s) for p in modes for a in self.kinds for s in self.scenarios]
        self.floor_cells, self.robust_pairs = floor_cells, robust_pairs
        sizes = dict(seed=seed, clients=clients, train_samples=train_samples,
                     test_samples=test_samples)
        self.text = grid_config(task, rounds=rounds, modes=modes, kinds=self.kinds,
                                scenarios=self.scenarios, **sizes)
        self.warm_text = grid_config(task, rounds=1, modes=("passthrough",), kinds=("mean",),
                                     scenarios=("none",), **sizes)
        self.first_output = None

    def setup(self) -> None:
        self.path = os.path.join(self.workdir, "grid.ini")
        self.out = os.path.join(self.workdir, "grid")
        warm = os.path.join(self.workdir, "warm.ini")
        for path, text in ((self.path, self.text), (warm, self.warm_text)):
            with open(path, "w") as fh:
                fh.write(text)
        rc, _ = run_cli(self.bz, ["simulate", "--config", warm, "--out-dir",
                                  os.path.join(self.workdir, "warm"), "--jobs", "1"])
        checks.require(rc == 0, f"warm-up simulate exit code {rc}")

    def verify(self) -> None:
        """The truncated declared vector of the attacked cells meets alpha*."""
        w, x = self.bz["weights"], self.bz["experiment"]
        cfg = self.bz["config"].parse_config(self.text)
        shards, _ = x.build_task(cfg)
        declared = [cl.declared_size for cl in x.build_clients(cfg, "negation_fraction", shards)]
        outcome = w.solve_truncation(w.WeightVector.from_values(declared),
                                     w.TruncationQuery(cfg.alpha, cfg.alpha_star))
        checks.check_solve(sorted(declared), cfg.alpha, cfg.alpha_star, outcome)

    def cycle(self) -> list[Op]:
        argv = ["simulate", "--config", self.path, "--out-dir", self.out, "--jobs", "1"]
        return [Op("simulate", lambda: run_cli(self.bz, argv), self.check)]

    def check(self, out) -> None:
        rc, _ = out
        checks.require(rc == 0, f"simulate exit code {rc}")
        files = {}
        for name in sorted(os.listdir(self.out)):
            with open(os.path.join(self.out, name), "rb") as fh:
                files[name] = fh.read()
        shutil.rmtree(self.out)
        checks.require(len(files) == len(self.cells) + 1, f"{len(files)} files written")
        if self.first_output is None:
            text = {k: v.decode() for k, v in files.items()}
            checks.check_grid(text, self.cells, self.rounds, self.floor_cells, 0.9,
                              self.robust_pairs, 0.05)
            self.first_output = files
        else:
            changed = [k for k in files if files[k] != self.first_output.get(k)]
            checks.require(not changed, f"output differs from the first invocation: {changed}")

    def layer_metrics(self, st, cycles: int) -> dict:
        rounds = cycles * len(self.cells) * self.rounds
        cells = cycles * len(self.cells)

        def per_round(name, **where):
            return st.count(name, **where) / rounds

        eval_s = sum(st.total(n, parent="engine.run_training") for n in ("tasks.accuracy", "tasks.loss"))
        return {
            "weights.preprocess.ms_per_cell": (1e3 * st.total("weights.preprocess") / cells, "ms"),
            "weights.solve_truncation.ms": (1e3 * st.mean("weights.solve_truncation"), "ms"),
            "tasks.gradient.us": (1e6 * st.mean("tasks.gradient"), "us"),
            "tasks.gradient.calls_per_round": (per_round("tasks.gradient"), "count"),
            "tasks.Dataset.subset.calls_per_round":
                (per_round("tasks.Dataset.subset", anchor="engine.run_training"), "count"),
            "tasks.eval.ms_per_round": (1e3 * eval_s / rounds, "ms"),
            "engine.client_update.self_ms_per_round":
                (1e3 * st.self_total("engine.client_update") / rounds, "ms"),
            "engine.client_update.calls_per_round": (per_round("engine.client_update"), "count"),
            "engine.aggregate.mean.ms": (1e3 * st.mean("engine.aggregate.mean"), "ms"),
            "engine.aggregate.median.ms": (1e3 * st.mean("engine.aggregate.median"), "ms"),
            "engine.aggregate.trimmed.ms": (1e3 * st.mean("engine.aggregate.trimmed"), "ms"),
            "engine.run_training.self_ms_per_round":
                (1e3 * st.self_total("engine.run_training") / rounds, "ms"),
            "experiment.build_task.calls": (st.count("experiment.build_task") / cycles, "count"),
            "experiment.build_task.ms": (1e3 * st.mean("experiment.build_task"), "ms"),
            "experiment.run_grid.self_ms": (1e3 * st.self_total("experiment.run_grid") / cycles, "ms"),
            "config.parse_config.ms": (1e3 * st.mean("config.parse_config"), "ms"),
            "cli.main.self_ms": (1e3 * st.self_total("cli.main") / cycles, "ms"),
        }


def train_mlp(bz, seed, workdir, rounds=3, clients=100, **sizes):
    """The acceptance task: MLP 20-64-10, 100 clients, batch 100, dropout 0.

    Only the passthrough cells must learn without an attack: truncation at
    alpha* = 1/2 reshapes this partition's weights enough that a few rounds
    of the truncated or unweighted cells need not reach the floor.
    """
    none = [("passthrough", a, "none") for a in ("mean", "median", "trimmed")]
    return Train(bz, seed, workdir, "train-mlp", MLP_TASK, rounds=rounds, clients=clients,
                 modes=("passthrough", "truncate", "ignore"), floor_cells=none,
                 robust_pairs=[], **sizes)


def train_crowd(bz, seed, workdir, rounds=2, clients=2000, **sizes):
    """2 000 softmax clients on the same samples, whole shard per batch."""
    modes = ("passthrough", "truncate")
    none = [(p, a, "none") for p in modes for a in ("mean", "median", "trimmed")]
    pairs = [(("truncate", "trimmed", "negation_fraction"), ("truncate", "trimmed", "none"))]
    return Train(bz, seed, workdir, "train-crowd", CROWD_TASK, rounds=rounds, clients=clients,
                 modes=modes, floor_cells=none, robust_pairs=pairs, **sizes)


WORKLOADS = {
    "preprocess": Preprocess,
    "train-mlp": train_mlp,
    "train-crowd": train_crowd,
}
