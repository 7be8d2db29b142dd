"""Config parsing, grid plumbing, and CLI contract tests."""

from __future__ import annotations

import configparser
import ctypes
import glob
import hashlib
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction as F

import numpy as np
import pytest

from byzweight.certificate import CertificateParams
from byzweight.cli import main
from byzweight import config
from byzweight.config import SCENARIOS, ConfigError, ExperimentConfig, parse_config
from byzweight import engine
from byzweight.engine import (
    Behavior,
    TrainConfig,
    TrimmedMean,
    WeightedMean,
    WeightedMedian,
    metrics_to_csv,
    select_clients,
)
from byzweight import experiment
from byzweight.experiment import (
    attacker_ids,
    build_clients,
    build_task,
    grid_cells,
    metrics_filename,
    run_grid,
)
from byzweight.tasks import (OneHiddenMLP, PartitionSpec, SoftmaxRegression, generate_blobs,
                             generate_partition)
from byzweight.weights import (
    Ignore,
    Passthrough,
    Truncate,
    TruncationQuery,
    WeightVector,
    tradeoff_curve,
)

SMALL = """
[task]
dim = 6
classes = 3
train_samples = 400
test_samples = 150
clients = 8

[training]
rounds = 4
eta = 0.3
batch_size = 16

[attack]
scenarios = none,negation_single

[seeds]
master = 3
"""


# -------------------------------------------------------------------- config


def readme_config_block() -> str:
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read().split("## Config format", 1)[1]
    return text.split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_config_block_is_the_defaults():
    assert parse_config(readme_config_block()) == ExperimentConfig()


def test_readme_config_block_lists_every_key():
    # the defaults test alone still passes with a key left out of the block
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(readme_config_block())
    listed = [(section, key) for section in parser.sections() for key in parser[section]]
    assert listed == list(config._SCHEMA)
    assert len(listed) == len(vars(ExperimentConfig()))  # no two fields share a key


def test_readme_library_block_prints_what_it_says():
    # each "# ..." line is the repr of the expression on the line above it
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read().split("## Library use", 1)[1]
    lines = text.split("```python\n", 1)[1].split("```", 1)[0].splitlines()
    namespace, checked = {}, 0
    for line, after in zip(lines, lines[1:] + [""]):
        if line.startswith("# "):
            continue
        if after.startswith("# "):
            assert repr(eval(line, namespace)) == after[2:], line
            checked += 1
        else:
            exec(line, namespace)
    assert checked == 3


def test_partial_file_fills_defaults():
    cfg = parse_config(SMALL)
    assert cfg.dim == 6 and cfg.clients == 8
    assert cfg.partition_sigma == 3.45
    # the default token order is the row order of summary.csv
    assert cfg.preprocess_modes == ("passthrough", "truncate", "ignore")
    assert cfg.aggregator_kinds == ("mean", "median", "trimmed")
    assert cfg.scenarios == ("none", "negation_single")


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[task]\ndimension = 5\n")
    with pytest.raises(ConfigError):
        parse_config("[task]\ndim = five\n")
    with pytest.raises(ConfigError, match="^config syntax: File contains no section headers"):
        parse_config("dim = 4\n")


NAN = float("nan")
INF = float("inf")

# (section, key, config text, the same value in Python, True if accepted, else
# False or the refusal's message): values just inside and just outside every
# bound, plus NaN and infinities for the floats.  The config defaults hold 100
# clients.
BOUNDARY_CASES = [
    ("preprocess", "alpha", "1/1000000", F(1, 1000000), True),
    ("preprocess", "alpha", "1", F(1), True),
    ("preprocess", "alpha", "0", F(0), False),
    ("preprocess", "alpha", "-1/10", F(-1, 10), False),
    ("preprocess", "alpha", "1000001/1000000", F(1000001, 1000000), False),
    ("preprocess", "alpha", "nan", NAN, False),
    ("preprocess", "alpha_star", "1/1000000", F(1, 1000000), True),
    ("preprocess", "alpha_star", "999999/1000000", F(999999, 1000000), True),
    ("preprocess", "alpha_star", "0", F(0), False),
    ("preprocess", "alpha_star", "1", F(1), False),
    ("preprocess", "alpha_star", "-1/2", F(-1, 2), False),
    ("preprocess", "alpha_star", "nan", NAN, False),
    ("training", "rounds", "0", 0, True),
    ("training", "rounds", "-1", -1, False),
    ("training", "epochs", "1", 1, True),
    ("training", "epochs", "0", 0, False),
    ("training", "eta", "1e-300", 1e-300, True),
    ("training", "eta", "inf", INF, True),
    ("training", "eta", "0", 0.0, False),
    ("training", "eta", "-0.1", -0.1, False),
    ("training", "eta", "-inf", -INF, False),
    ("training", "eta", "nan", NAN, False),
    ("training", "batch_size", "1", 1, True),
    ("training", "batch_size", "0", 0, False),
    ("training", "batch_size", "0.000001", 0.000001, True),
    ("training", "batch_size", "1.0", 1.0, True),
    ("training", "batch_size", "0.0", 0.0, False),
    ("training", "batch_size", "1.0000001", 1.0000001, False),
    ("training", "batch_size", "-0.5", -0.5, False),
    ("training", "batch_size", "1.e400", INF, False),
    ("training", "batch_size", "nan", NAN, False),
    ("training", "clients_per_round", "", None, True),
    ("training", "clients_per_round", "1", 1, True),
    ("training", "clients_per_round", "100", 100, True),
    ("training", "clients_per_round", "0", 0, False),
    ("training", "clients_per_round", "101", 101, False),
    ("training", "clients_per_round", "0.000001", 0.000001, True),
    ("training", "clients_per_round", "1.0", 1.0, True),
    ("training", "clients_per_round", "0.0", 0.0, False),
    ("training", "clients_per_round", "1.0000001", 1.0000001, False),
    ("training", "clients_per_round", "-0.5", -0.5, False),
    ("training", "clients_per_round", "1.e400", INF, False),
    ("training", "clients_per_round", "nan", NAN, False),
    ("aggregator", "beta", "0", 0.0, True),
    ("aggregator", "beta", "0.4999999", 0.4999999, True),
    ("aggregator", "beta", "0.5", 0.5, False),
    ("aggregator", "beta", "-0.0001", -0.0001, False),
    ("aggregator", "beta", "nan", NAN, False),
    ("model", "dropout", "0", 0.0, True),
    ("model", "dropout", "0.999", 0.999, True),
    ("model", "dropout", "1", 1.0, False),
    ("model", "dropout", "-0.001", -0.001, False),
    ("model", "dropout", "nan", NAN, False),
    ("model", "hidden", "1", 1, True),
    ("model", "hidden", "0", 0, False),
    ("model", "hidden", "-1", -1, False),
    ("seeds", "master", "0", 0, True),
    ("seeds", "master", "4294967296", 2**32, True),
    ("seeds", "master", "-3", -3, False),
    ("task", "partition_mu", "0", 0.0, True),
    ("task", "partition_mu", "nan", NAN, False),
    ("task", "partition_mu", "inf", INF, False),
    ("task", "partition_mu", "-inf", -INF, False),
    ("task", "partition_sigma", "0", 0.0, True),
    ("task", "partition_sigma", "-0.001", -0.001, False),
    ("task", "partition_sigma", "nan", NAN, False),
    ("task", "partition_sigma", "inf", INF, False),
    ("task", "partition_sigma", "-inf", -INF, False),
    ("task", "separation", "0", 0.0, True),
    ("task", "separation", "nan", NAN, False),
    ("task", "separation", "inf", INF, False),
    ("task", "separation", "-inf", -INF, False),
    ("task", "test_samples", "1", 1, True),
    ("task", "test_samples", "0", 0, "test_samples must be positive"),
    ("task", "clients", "1", 1, True),
    ("task", "clients", "0", 0, "need at least one client"),
    ("model", "kind", "cnn", "cnn", "model kind must be one of ('softmax', 'mlp')"),
    ("attack", "fraction", "0.000001", 0.000001, True),
    ("attack", "fraction", "0.999999", 0.999999, True),
    ("attack", "fraction", "0", 0.0, "attacker fraction must lie in (0, 1)"),
    ("attack", "fraction", "1", 1.0, "attacker fraction must lie in (0, 1)"),
    ("attack", "declared_single", "1", 1, True),
    ("attack", "declared_single", "0", 0, "declared sizes must be positive"),
    ("preprocess", "modes", "", (), "at least one preprocess mode required"),
    ("aggregator", "kinds", "mean, mean", ("mean", "mean"), "duplicate aggregator kind"),
    ("training", "honest_use_all_samples", "maybe", "maybe",
     "bad value for [training] honest_use_all_samples: not a boolean: 'maybe'"),
]


def _train_config(**kw):
    return TrainConfig(**{**dict(rounds=1, eta=0.1, epochs=1, batch_size=1), **kw})


# the library calls that take each value besides the config, all raising ValueError
OWNER_ROUTES = {
    "alpha": [
        lambda v: TruncationQuery(v, F(1, 2)),
        lambda v: CertificateParams(100, v, F(1, 2), 0.05, 10),
    ],
    "alpha_star": [
        lambda v: TruncationQuery(F(1, 10), v),
        lambda v: CertificateParams(100, F(1, 10), v, 0.05, 10),
        lambda v: tradeoff_curve(WeightVector.from_values([1, 2, 3]), v),
    ],
    "rounds": [lambda v: _train_config(rounds=v)],
    "epochs": [lambda v: _train_config(epochs=v)],
    "eta": [lambda v: _train_config(eta=v)],
    "batch_size": [lambda v: _train_config(batch_size=v)],
    "clients_per_round": [lambda v: select_clients(1, 100, v, 0)],
    "beta": [lambda v: TrimmedMean(v)],
    "dropout": [lambda v: OneHiddenMLP(20, 32, 10, v)],
    "hidden": [lambda v: OneHiddenMLP(20, v, 10, 0.2)],
    "master": [lambda v: _train_config(master_seed=v)],
    "partition_mu": [lambda v: generate_partition(PartitionSpec(200, 10, mu=v))],
    "partition_sigma": [lambda v: generate_partition(PartitionSpec(200, 10, sigma=v))],
    "separation": [lambda v: generate_blobs(50, 4, 2, 0, separation=v)],
    "test_samples": [lambda v: generate_blobs(v, 4, 2, 0)],
    "clients": [lambda v: PartitionSpec(200, v)],
}


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        parse_config("[task]\ndim = 3\nclasses = 5\n")
    with pytest.raises(ConfigError):
        parse_config("[preprocess]\nmodes = passthrough,squash\n")
    with pytest.raises(ConfigError):
        parse_config("[attack]\nscenarios = all\n")
    with pytest.raises(ConfigError):
        parse_config("[preprocess]\nalpha = 0\n")
    with pytest.raises(ConfigError):
        parse_config("[aggregator]\nbeta = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config("[training]\neta = 0\n")
    for section, key, text, value, accepted in BOUNDARY_CASES:
        config = f"[{section}]\n{key} = {text}\n"
        routes = OWNER_ROUTES.get(key, [])
        if accepted is True:
            parse_config(config)
            for build in routes:
                build(value)
            continue
        message = None if accepted is False else f"^{re.escape(accepted)}$"
        with pytest.raises(ConfigError, match=message):
            parse_config(config)
        for build in routes:
            with pytest.raises(ValueError):
                build(value)


def test_declared_total_beyond_float_range_is_a_config_error(tmp_path, capsys):
    # declared_single = 10**330 crashed simulate with OverflowError; 10**308 for
    # two attackers overflowed the total weight to inf, and simulate wrote NaN rows
    def attack(lines):
        return parse_config(SMALL.replace("[attack]\n", "[attack]\nfraction = 0.25\n" + lines))

    most = int(sys.float_info.max) - 400  # the 400 honest samples declare themselves
    assert attack(f"declared_single = {most}\n").declared_single == most
    assert attack(f"declared_fraction = {most // 2}\n").declared_fraction == most // 2
    message = "declared sizes must keep the declared total within float range"
    for lines in (f"declared_single = {most + 1}\n", f"declared_single = {10**330}\n",
                  f"declared_fraction = {most // 2 + 1}\n", f"declared_fraction = {10**308}\n"):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            attack(lines)
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(SMALL.replace("[attack]\n", f"[attack]\ndeclared_single = {10**330}\n"))
    assert main(["simulate", "--config", str(cfgfile), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_clients_per_round_forms():
    assert parse_config("[training]\nclients_per_round =\n").clients_per_round is None
    assert parse_config("[training]\nclients_per_round = 7\n").clients_per_round == 7
    frac = parse_config("[training]\nclients_per_round = 0.5\n").clients_per_round
    assert frac == 0.5 and isinstance(frac, float)


def test_batch_size_forms():
    assert parse_config("[training]\nbatch_size = 32\n").batch_size == 32
    frac = parse_config("[training]\nbatch_size = 0.1\n").batch_size
    assert frac == 0.1 and isinstance(frac, float)
    with pytest.raises(ConfigError):
        parse_config("[training]\nbatch_size = 1.5\n")


def test_every_token_builds_its_object():
    cfg = parse_config("[preprocess]\nalpha = 0.2\nalpha_star = 3/4\n[aggregator]\nbeta = 0.25\n")
    preprocess = {"passthrough": Passthrough(), "ignore": Ignore(),
                  "truncate": Truncate(TruncationQuery(F(1, 5), F(3, 4)))}
    aggregators = {"mean": WeightedMean(), "median": WeightedMedian(), "trimmed": TrimmedMean(0.25)}
    assert set(preprocess) == set(cfg.preprocess_modes)
    assert set(aggregators) == set(cfg.aggregator_kinds)
    built = cfg.train_config()
    assert (built.rounds, built.eta, built.epochs, built.batch_size) == (100, 0.3, 1, 50)
    assert (built.clients_per_round, built.honest_use_all_samples, built.master_seed) == (
        None, True, 0)
    for p, mode in preprocess.items():
        for a, aggregator in aggregators.items():
            built_mode, built_aggregator = cfg.cell(p, a)
            assert type(built_mode) is type(mode) and built_mode == mode
            assert type(built_aggregator) is type(aggregator) and built_aggregator == aggregator
    assert cfg.model() == SoftmaxRegression(20, 10)
    mlp = parse_config("[model]\nkind = mlp\nhidden = 7\ndropout = 0.5\n").model()
    assert type(mlp) is OneHiddenMLP and mlp == OneHiddenMLP(20, 7, 10, 0.5)


def test_unknown_token_raises_instead_of_a_default():
    cfg = ExperimentConfig()
    with pytest.raises(KeyError):
        cfg.cell("squash", "mean")
    with pytest.raises(KeyError):
        cfg.cell("truncate", "krum")
    cfg.model_kind = "cnn"
    with pytest.raises(KeyError):
        cfg.model()


# ---------------------------------------------------------------- experiment


def test_attacker_sets_deterministic_and_sized():
    cfg = parse_config(SMALL)
    single = attacker_ids(cfg, "negation_single")
    assert len(single) == 1
    assert single == attacker_ids(cfg, "label_shift_single")
    group = attacker_ids(cfg, "negation_fraction")
    assert len(group) == max(1, round(0.1 * 8))
    assert attacker_ids(cfg, "none") == frozenset()


def test_build_clients_marks_attackers():
    # a quarter of 8 clients is 2 attackers under *_fraction, against 1 under *_single
    cfg = parse_config(SMALL.replace("[attack]\n", "[attack]\nfraction = 0.25\n"))
    (data, sizes), test = build_task(cfg)
    assert len(data) == sizes.sum() == 400 and len(sizes) == 8
    assert len(test) == 150
    want = {  # scenario: (attackers' behavior, how many, the size each declares)
        "none": (None, 0, None),
        "negation_single": (Behavior.MODEL_NEGATION, 1, 10_000_000),
        "negation_fraction": (Behavior.MODEL_NEGATION, 2, 1_000_000),
        "label_shift_single": (Behavior.LABEL_SHIFT, 1, 10_000_000),
        "label_shift_fraction": (Behavior.LABEL_SHIFT, 2, 1_000_000),
    }
    assert list(want) == list(SCENARIOS)
    for scenario, (behavior, count, lie) in want.items():
        clients = build_clients(cfg, scenario, (data, sizes))
        assert [c.id for c in clients] == list(range(8))
        liars = [c for c in clients if c.behavior is not Behavior.HONEST]
        assert [c.behavior for c in liars] == [behavior] * count, scenario
        assert [c.declared_size for c in liars] == [lie] * count, scenario
        assert {c.id for c in liars} == attacker_ids(cfg, scenario)
        honest = [c for c in clients if c.behavior is Behavior.HONEST]
        assert all(c.declared_size == len(c.data) for c in honest)


def test_grid_layout_and_filenames():
    cfg = parse_config(SMALL)
    cells = grid_cells(cfg)
    assert len(cells) == 3 * 3 * 2
    assert cells[0] == ("passthrough", "mean", "none")
    assert metrics_filename(*cells[0]) == "metrics_passthrough_mean_none.csv"


def test_a_cell_trains_what_the_config_builds(monkeypatch):
    # one cell, as a pool worker runs it: a lockstep run of one
    cfg = parse_config(SMALL + "[model]\nkind = mlp\nhidden = 5\n")
    shards, test = build_task(cfg)
    seen = []

    def spy(model, clients, test_set, train_cfg, cells):
        seen.append((model, clients, test_set, train_cfg, cells))
        return [(None, [])]

    monkeypatch.setattr(experiment, "run_training", spy)
    for p, a, s in grid_cells(cfg):
        clients = build_clients(cfg, s, shards)
        got = experiment._run_scenario(cfg, clients, test, [(p, a, s)])
        assert got == [experiment.CellResult(p, a, s, ())]
        model, got_clients, got_test, train_cfg, cells = seen.pop()
        assert (model, train_cfg, cells) == (cfg.model(), cfg.train_config(), [cfg.cell(p, a)])
        assert got_clients is clients and got_test is test


def test_run_grid_writes_every_cell(tmp_path):
    cfg = parse_config(SMALL)
    results = run_grid(cfg, out_dir=str(tmp_path), jobs=1)
    assert len(results) == 18
    for r in results:
        path = tmp_path / metrics_filename(r.preprocess, r.aggregator, r.attack)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,test_accuracy,test_loss,aggregate_norm"
        assert len(lines) == 1 + cfg.rounds
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "preprocess,aggregator,attack,final_accuracy"
    assert len(summary) == 19


CROWD = """
[task]
dim = 5
classes = 3
train_samples = 200000
clients = 100000

[training]
rounds = 3
batch_size = 1.0
clients_per_round = 200

[preprocess]
modes = passthrough,truncate

[aggregator]
kinds = median

[attack]
scenarios = none,negation_fraction
"""


CROWD_DIGESTS = {  # sha256 over each written file's name and bytes, in name order
    True: "bfaa7f5b9d10befe8cfdf438c397f242942d5ef96a69bbfa26eba649aa05b2e6",
    False: "84e417e6bf4ffc2b35637455118ba2e5b58ecf1a9c83ad056d7a1d5f0f815df2",
}


def test_run_grid_at_a_hundred_thousand_clients(tmp_path, monkeypatch):
    # two samples a client on average, most clients holding one row; without
    # honest_use_all_samples the truncate cap cuts clients to a subset of rows
    counts, row_pool = [], engine._row_pool

    def pool_spy(clients, n, seed):
        counts.append(((0 < n) & (n < clients.size)).sum())
        return row_pool(clients, n, seed)

    monkeypatch.setattr(engine, "_row_pool", pool_spy)
    for use_all, digest in CROWD_DIGESTS.items():
        flag, out = f"honest_use_all_samples = {str(use_all).lower()}\n[preprocess]", tmp_path / str(use_all)
        counts.clear()
        results = run_grid(parse_config(CROWD.replace("[preprocess]", flag)), out_dir=str(out), jobs=1)
        assert len(results) == 4 and len(list(out.iterdir())) == 5
        assert (max(counts) > 0) == (not use_all)  # cut clients, so a subset index at scale
        h = hashlib.sha256()
        for path in sorted(out.iterdir()):
            h.update(path.name.encode() + path.read_bytes())
        assert h.hexdigest() == digest
        for r in results:
            path = out / metrics_filename(r.preprocess, r.aggregator, r.attack)
            rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
            assert len(rows) == 3
            assert all(np.isfinite(float(x)) for row in rows for x in row)


def test_in_process_cells_of_a_scenario_share_round_one(tmp_path, monkeypatch):
    # at --jobs 1 a scenario's cells train as one lockstep group: they start
    # from one row pool and one model, so round 1's local training runs once
    # a scenario, and a later round's once for each distinct model: each
    # (model, client) lane trains once, whichever client_update call holds it
    cfg = parse_config(SMALL)
    lanes, groups, update, train = [], [], engine.client_update, experiment.run_training

    def train_spy(model, clients, test, train_cfg, train_cells):
        groups.append(len(train_cells))
        return train(model, clients, test, train_cfg, train_cells)

    def update_spy(model, w, plan, *rest):
        models = np.atleast_2d(w)  # lane i starts from model i % len(models)
        lanes.extend((cfg.scenarios[len(groups) - 1], plan.round, models[i % len(models)].tobytes(), c)
                     for i, (c, n) in enumerate(zip(plan.ids.tolist(), plan.n.tolist())) if n)
        return update(model, w, plan, *rest)

    monkeypatch.setattr(experiment, "run_training", train_spy)
    monkeypatch.setattr(engine, "client_update", update_spy)
    run_grid(cfg, out_dir=str(tmp_path), jobs=1)
    cells = len(cfg.preprocess_modes) * len(cfg.aggregator_kinds)
    assert groups == [cells] * len(cfg.scenarios)  # one group a scenario, scenarios in order
    assert len(set(lanes)) == len(lanes)  # no (model, client) lane trains twice in a round
    starts = sorted({(s, t, w) for s, t, w, _ in lanes})
    rounds = [[t for s, t, _ in starts if s == scenario] for scenario in cfg.scenarios]
    assert [r.count(1) for r in rounds] == [1] * len(cfg.scenarios)
    assert all(0 < r.count(t) <= cells for r in rounds for t in range(2, cfg.rounds + 1))
    # two cells that reach one model share its later rounds too: fewer calls than cells
    assert sum(map(len, rounds)) < len(cfg.scenarios) * (cfg.rounds * cells - (cells - 1))


@pytest.mark.parametrize("jobs", [1, 3])
def test_in_process_cells_equal_cells_run_alone(jobs):
    # without honest_use_all_samples a cell's rows depend on its weights, so
    # only cells with equal weights may share them; sampled rounds and
    # label-shifted rows must come out as in a cell run on its own.  At jobs 3
    # each 9-cell scenario splits into pool tasks of 6 and 3 cells.
    cfg = parse_config(SMALL.replace("batch_size = 16\n", "batch_size = 16\n"
                                     "clients_per_round = 0.6\nhonest_use_all_samples = false\n")
                       .replace("negation_single", "label_shift_fraction"))
    shards, test = build_task(cfg)
    clients = {s: build_clients(cfg, s, shards) for s in cfg.scenarios}
    cells = grid_cells(cfg)
    results = experiment.run_cells(cfg, clients, test, cells, jobs=jobs)
    assert [(r.preprocess, r.aggregator, r.attack) for r in results] == cells
    for r, (p, a, s) in zip(results, cells):
        [alone] = experiment._run_scenario(cfg, clients[s], test, [(p, a, s)])
        assert len(r.metrics) == cfg.rounds
        assert metrics_to_csv(r.metrics) == metrics_to_csv(alone.metrics)


LOCKSTEP = """
[task]
dim = 6
classes = 3
train_samples = 400
test_samples = 150
clients = 8

[model]
kind = mlp
hidden = 5
dropout = 0.2

[training]
rounds = 8
eta = 1.0
batch_size = 16
clients_per_round = 0.75

[preprocess]
alpha = 1/2
alpha_star = 1/4

[attack]
scenarios = none,negation_fraction
declared_fraction = {lie}

[seeds]
master = 3
"""


@pytest.mark.filterwarnings("ignore:overflow")
def test_lockstep_cells_equal_cells_run_alone(monkeypatch):
    # an MLP that drops units; truncate at alpha* < alpha is infeasible; the one
    # attacker declares about 1.7e308, so passthrough x mean overflows to inf in
    # round 1 and passthrough x trimmed in round 6 of 8.  Each round trains once
    # per distinct model and ranks once per distinct (matrix, robust kind).
    cfg = parse_config(LOCKSTEP.format(lie=17 * 10**307))
    shards, test = build_task(cfg)
    clients = {s: build_clients(cfg, s, shards) for s in cfg.scenarios}
    cells = grid_cells(cfg)
    update, train = engine.client_update, experiment.run_training
    # where: (cell or scenario, the last one-model call's start); lanes: (where, round, model, client)
    where, lanes, ranked = [None, None], [], []

    def update_spy(model, w, plan, *rest):
        models = np.atleast_2d(w)  # lane i starts from model i % len(models)
        if len(models) == 1:
            where[1] = plan.round, models[0].tobytes()
        lanes.extend((where[0], plan.round, models[i % len(models)].tobytes(), c)
                     for i, (c, n) in enumerate(zip(plan.ids.tolist(), plan.n.tolist())) if n)
        return update(model, w, plan, *rest)

    def rank_spy(kind, fn):
        return lambda *args: ranked.append((where[0], *where[1], kind)) or fn(*args)

    monkeypatch.setattr(engine, "client_update", update_spy)
    for kind in ("aggregate_weighted_median", "aggregate_trimmed_mean"):
        monkeypatch.setattr(engine, kind, rank_spy(kind, getattr(engine, kind)))
    alone = {}
    for p, a, s in cells:
        where[0] = (p, a, s)
        [alone[p, a, s]] = experiment._run_scenario(cfg, clients[s], test, [(p, a, s)])
    alone_lanes, alone_ranked = lanes[:], ranked[:]
    lanes.clear(), ranked.clear()

    def train_spy(model, scenario_clients, test_set, train_cfg, train_cells):
        where[0] = next(s for s in cfg.scenarios if clients[s] is scenario_clients)
        return train(model, scenario_clients, test_set, train_cfg, train_cells)

    monkeypatch.setattr(experiment, "run_training", train_spy)
    results = experiment.run_cells(cfg, clients, test, cells, jobs=1)
    assert [(r.preprocess, r.aggregator, r.attack) for r in results] == cells
    for r in results:
        assert metrics_to_csv(r.metrics) == metrics_to_csv(alone[r.preprocess, r.aggregator, r.attack].metrics)
    lengths = {(r.preprocess, r.aggregator, r.attack): len(r.metrics) for r in results}
    assert {n for (p, _, _), n in lengths.items() if p == "truncate"} == {0}  # infeasible
    assert lengths["passthrough", "mean", "negation_fraction"] == 1
    assert lengths["passthrough", "trimmed", "negation_fraction"] == 6
    assert sum(n == cfg.rounds for n in lengths.values()) == 10
    # each (model, client) lane trains once per distinct start; one ranking per distinct (matrix, kind)
    want = sorted({(cell[2], *rest) for cell, *rest in alone_lanes})
    assert sorted(lanes) == want and len(want) < len(alone_lanes)
    want = sorted({(cell[2], *rest) for cell, *rest in alone_ranked})
    assert sorted(ranked) == want and len(want) < len(alone_ranked)


def _openblas():
    # numpy's bundled OpenBLAS, found independently of experiment._init_worker
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    found = glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so"))
    return ctypes.CDLL(found[0]) if found else None


def _blas_threads():
    return _openblas().scipy_openblas_get_num_threads64_()


def test_pool_workers_run_one_blas_thread(tmp_path):
    lib = _openblas()
    if lib is None:
        pytest.skip("numpy has no bundled scipy-openblas library here")
    before = lib.scipy_openblas_get_num_threads64_()
    try:
        # a worker forked from a two-thread parent drops to one
        lib.scipy_openblas_set_num_threads64_(2)
        with ProcessPoolExecutor(1, initializer=experiment._init_worker, initargs=(None, None)) as pool:
            assert pool.submit(_blas_threads).result() == 1
        run_grid(parse_config(SMALL), out_dir=str(tmp_path), jobs=2)
        assert _blas_threads() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def test_run_grid_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    # a forked pool starts every worker it is given at once; its tasks are
    # each up to ceil(cells / jobs) cells of one scenario
    requested, mapped = [], []

    class Spy(experiment.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            requested.append(max_workers)
            super().__init__(min(max_workers, 2), **kwargs)  # never a large pool here

        def map(self, fn, *iterables, **kwargs):
            mapped.append(iterables[-1])  # the task lists, after repeat(cfg)
            return super().map(fn, *iterables, **kwargs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", Spy)
    cfg = parse_config(SMALL + "[preprocess]\nmodes = passthrough\n[aggregator]\nkinds = mean, median\n")
    cells = grid_cells(cfg)
    for jobs in (64, 3):
        results = run_grid(cfg, out_dir=str(tmp_path / str(jobs)), jobs=jobs)
        assert len(results) == 4
        tasks = mapped.pop()
        assert all(len({s for _, _, s in task}) == 1 for task in tasks)
        assert max(map(len, tasks)) <= -(-len(cells) // jobs)
        assert sorted(cell for task in tasks for cell in task) == sorted(cells)
    assert requested == [4, 2]


# ----------------------------------------------------------------------- cli


def write_weights(path, values):
    path.write_text("".join(f"{v}\n" for v in values))


def test_tradeoff_command_golden(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    write_weights(wfile, [1, 1, 1, 1, 100])
    code = main(["tradeoff", "--weights", str(wfile), "--alpha-star", "0.5"])
    assert code == 0
    assert capsys.readouterr().out == "alpha,u_star\n0.400000,2\n0.200000,4\n"


def test_tradeoff_command_to_directory(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    write_weights(wfile, [1, 1, 1, 1, 100])
    out = tmp_path / "results"
    code = main(
        ["tradeoff", "--weights", str(wfile), "--alpha-star", "1/2", "--out-dir", str(out)]
    )
    assert code == 0
    assert (out / "tradeoff.csv").read_bytes() == b"alpha,u_star\n0.400000,2\n0.200000,4\n"


def test_tradeoff_uniform_weights_exit_3(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    write_weights(wfile, [5, 5, 5, 5])
    code = main(["tradeoff", "--weights", str(wfile), "--alpha-star", "0.5"])
    assert code == 3
    assert "no feasible pairs" in capsys.readouterr().err


def test_tradeoff_bad_weights_exit_2(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    wfile.write_text("3\n-1\n")
    code = main(["tradeoff", "--weights", str(wfile), "--alpha-star", "0.5"])
    assert code == 2
    assert main(["tradeoff", "--weights", str(tmp_path / "absent"), "--alpha-star", "0.5"]) == 2
    write_weights(wfile, [1, 1, 1, 1, 100])
    for alpha_star in ("1", "0"):
        assert main(["tradeoff", "--weights", str(wfile), "--alpha-star", alpha_star]) == 2
    capsys.readouterr()


def test_certify_command_accept_and_refuse(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    write_weights(wfile, [1] * 50)
    code = main(
        [
            "certify",
            "--weights", str(wfile),
            "--k", "400",
            "--alpha", "1/5",
            "--alpha-star", "0.4",
            "--delta", "0.05",
            "--u", "2",
            "--seed", "1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    header, row = out.splitlines()
    assert header == "certified,lhs,eps1,eps2,eps3,top_mean,sample_mean"
    assert row.startswith("true,")
    # tiny sample cannot certify anything
    wfile2 = tmp_path / "w2.txt"
    write_weights(wfile2, [100] * 10 + [1] * 40)
    code = main(
        [
            "certify",
            "--weights", str(wfile2),
            "--k", "60",
            "--alpha", "1/5",
            "--alpha-star", "0.4",
            "--delta", "0.05",
            "--u", "100",
        ]
    )
    assert code == 4
    assert capsys.readouterr().out.splitlines()[1].startswith("false,")


def test_certify_alpha_too_small_exit_2(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    write_weights(wfile, [1] * 50)
    code = main(
        [
            "certify",
            "--weights", str(wfile),
            "--k", "10",
            "--alpha", "0.1",
            "--alpha-star", "0.4",
            "--delta", "0.05",
            "--u", "100",
        ]
    )
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_certify_delta_too_small_for_its_log_exit_2(tmp_path, capsys):
    # 3/delta overflowed to inf, and the error blamed the sample size
    wfile = tmp_path / "w.txt"
    write_weights(wfile, [1] * 50)
    code = main(["certify", "--weights", str(wfile), "--k", "10000", "--alpha", "1/5",
                 "--alpha-star", "1/2", "--delta", "1e-320", "--u", "100"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: delta=1e-320 is too small: 3/delta overflows a float\n"


def test_certify_weights_beyond_int64_exit_2(tmp_path, capsys):
    # a capped count of 2^63 or more is a bad input (exit 2), not a crash
    # (exit 1 is the bound command's violation code)
    argv = ["certify", "--k", "400", "--alpha", "1/5", "--alpha-star", "0.4",
            "--delta", "0.05", "--u", str(2**64)]
    wfile = tmp_path / "w.txt"
    for big in (2**63, 2**64):
        write_weights(wfile, [1, 2, big])
        assert main(argv + ["--weights", str(wfile)]) == 2
        assert capsys.readouterr().err.startswith("error: weights of 2^63 or more")
    write_weights(wfile, [1, 2, 3])
    assert main(argv + ["--weights", str(wfile)]) == 4
    assert capsys.readouterr().out.splitlines()[1].startswith("false,")
    # so is a cap up to the float range; 2^1024 - 2^970 is refused (see below)
    argv[-1] = str(2**1024 - 2**970 - 1)
    assert main(argv + ["--weights", str(wfile)]) == 4
    assert capsys.readouterr().out.splitlines()[1].startswith("false,inf,")


def test_bound_command(tmp_path, capsys):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(
        "[task]\ndim = 6\nclasses = 3\ntrain_samples = 300\ntest_samples = 60\n"
        "clients = 6\n\n[attack]\nscenarios = negation_single\n"
    )
    code = main(["bound", "--config", str(cfgfile), "--u", "1000", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    header, row = out.splitlines()
    assert header == "lhs,rhs"
    lhs, rhs = map(float, row.split(","))
    assert lhs <= rhs + 1e-9
    assert main(["bound", "--config", str(tmp_path / "nope.ini"), "--u", "5"]) == 2
    capsys.readouterr()


def test_bound_cap_below_one_is_a_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(SMALL)
    assert main(["bound", "--config", str(cfgfile), "--u", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cap" in captured.err


def test_certify_cap_below_one_is_a_usage_error(tmp_path, capsys):
    # a zero cap printed false,inf,... and exited 4 (not certified)
    wfile = tmp_path / "w.txt"
    write_weights(wfile, [1, 1, 1, 1, 100])
    for cap in ("0", "-3"):
        code = main(["certify", "--weights", str(wfile), "--k", "50", "--alpha", "1/2",
                     "--alpha-star", "9/10", "--delta", "0.05", "--u", cap])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: cap (--u) must be positive, got {cap}\n"


def test_out_dir_that_is_a_file_is_a_usage_error(tmp_path, capsys):
    # exit 1 is the bound command's violation code, so no traceback exit
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    wfile = tmp_path / "w.txt"
    write_weights(wfile, [1, 1, 1, 1, 100])
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(SMALL)
    for argv in (
        ["tradeoff", "--weights", str(wfile), "--alpha-star", "1/2"],
        ["certify", "--weights", str(wfile), "--k", "400", "--alpha", "1/5",
         "--alpha-star", "0.4", "--delta", "0.05", "--u", "2"],
        ["simulate", "--config", str(cfgfile)],
    ):
        assert main(argv + ["--out-dir", str(blocker)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
    assert blocker.read_text() == ""


def test_negative_seeds_are_usage_errors(tmp_path, capsys):
    # numpy refuses a negative seed with a ValueError; the commands report
    # it as a usage error (exit 2) before anything runs, not as a traceback
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(SMALL.replace("master = 3", "master = -3"))
    assert main(["simulate", "--config", str(cfgfile), "--out-dir", str(tmp_path / "res")]) == 2
    assert "master_seed" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()
    cfgfile.write_text(SMALL)
    wfile = tmp_path / "w.txt"
    write_weights(wfile, [1] * 50)
    for argv in (
        ["bound", "--config", str(cfgfile), "--u", "3"],
        ["certify", "--weights", str(wfile), "--k", "400", "--alpha", "1/5",
         "--alpha-star", "0.4", "--delta", "0.05", "--u", "2", "--out-dir", str(tmp_path / "res")],
    ):
        assert main(argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a non-negative integer\n" and captured.out == ""
    assert not (tmp_path / "res").exists()


def test_certify_sample_too_large_for_memory_is_a_usage_error(tmp_path, capsys):
    # 10^13 int64 draws (72.8 TiB) are refused by the allocator at once;
    # that is a usage error (exit 2) naming the size, not a traceback
    wfile = tmp_path / "w.txt"
    write_weights(wfile, [1, 2, 3, 100])
    argv = ["certify", "--weights", str(wfile), "--k", str(10**13), "--alpha", "1/2",
            "--alpha-star", "1/2", "--delta", "0.05", "--u", "50"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: a sample of {10**13} weights does not fit in memory")


def certify_argv(alpha="1/2", alpha_star="9/10", u="5", k="2000", delta="0.1"):
    return ["certify", "--weights", "{w}", "--k", k, "--alpha", alpha,
            "--alpha-star", alpha_star, "--delta", delta, "--u", u]


FRACTION_1_0 = "invalid as_fraction value: '1/0'"
CAP_RANGE = "cap (--u) must lie in float range (below 2^1024 - 2^970)"
TOO_LARGE = "Unable to allocate 711. PiB"


@pytest.mark.parametrize(
    "argv, by_argparse, message",
    [
        # Fraction("1/0") raised ZeroDivisionError, which argparse lets through
        (["tradeoff", "--weights", "{w}", "--alpha-star", "1/0"], True, FRACTION_1_0),
        (certify_argv(alpha="1/0"), True, FRACTION_1_0),
        (certify_argv(alpha_star="1/0"), True, FRACTION_1_0),
        # a cap beyond float range raised OverflowError in the margins
        (certify_argv(u=str(2**1024 - 2**970)), False, CAP_RANGE),
        (certify_argv(u="1" + "0" * 320), False, CAP_RANGE),
        # the first array, _class_means' 10 x 10^16 float64 (711 PiB), is larger
        # than any 64-bit CPU's virtual address space (at most 2^57 bytes), so
        # it is refused at once; a numpy MemoryError traceback exited 1
        (["simulate", "--config", "{huge}", "--out-dir", "{out}"], False, TOO_LARGE),
        (["bound", "--config", "{huge}", "--u", "5"], False, TOO_LARGE),
        (["tradeoff", "--weights", "{absent}", "--alpha-star", "1/2"], False,
         "[Errno 2] No such file or directory: "),
        (["bound", "--config", "{bad}", "--u", "5"], False,
         "bad value for [task] dim: invalid literal for int() with base 10: 'x'"),
        (["simulate", "--config", "{small}", "--out-dir", "{out}", "--jobs", "0"], False,
         "jobs must be >= 1"),
        # the refusals of --k and --u name the flag, not only the library's parameter
        (certify_argv(k="0"), False, "sample_size (--k) must be positive, got 0\n"),
        (certify_argv(k="-3"), False, "sample_size (--k) must be positive, got -3\n"),
        (certify_argv(u="0"), False, "cap (--u) must be positive, got 0\n"),
        (["bound", "--config", "{small}", "--u", "0"], False, "cap (--u) must be positive, got 0\n"),
        (certify_argv(delta="0"), False, "delta must lie in (0, 1), got 0.0"),
        (certify_argv(delta="1"), False, "delta must lie in (0, 1), got 1.0"),
        (certify_argv(delta="nan"), False, "delta must lie in (0, 1), got nan"),
    ],
    ids=["tradeoff-alpha-star-1/0", "certify-alpha-1/0", "certify-alpha-star-1/0",
         "certify-u-2^1024-2^970", "certify-u-10^320", "simulate-dim-10^16",
         "bound-dim-10^16", "unreadable-weights", "malformed-config", "simulate-jobs-0",
         "certify-k-0", "certify-k--3", "certify-u-0", "bound-u-0", "certify-delta-0", "certify-delta-1", "certify-delta-nan"],
)
def test_no_refused_input_escapes_main(tmp_path, capsys, argv, by_argparse, message):
    # a refused input exits 2 with one named error, never with a traceback
    paths = {name: tmp_path / name for name in ("w", "huge", "bad", "small", "absent", "out")}
    write_weights(paths["w"], [1, 2, 3, 4, 100])
    paths["huge"].write_text("[task]\ndim = 10000000000000000\n")
    paths["bad"].write_text("[task]\ndim = x\n")
    paths["small"].write_text(SMALL)
    argv = [arg.format(**paths) for arg in argv]
    if by_argparse:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert message in capsys.readouterr().err
        return
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert not paths["out"].exists()


def test_certify_alpha_too_small_names_the_sample_size(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    write_weights(wfile, [5])
    code = main(["certify", "--weights", str(wfile), "--k", "200", "--alpha", "1/20",
                 "--alpha-star", "1/2", "--delta", "0.1", "--u", "5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: sample size too small for this alpha: alpha=0.05 must "
                            "exceed eps1=0.0922117; increase the sample size\n")


def probe_config(**overrides) -> str:
    # 10 clients, 200 training and 50 test samples, dim 4, 2 classes, one cell
    task = {"dim": 4, "classes": 2, "train_samples": 200, "test_samples": 50, "clients": 10}
    lines = "".join(f"{k} = {v}\n" for k, v in {**task, **overrides}.items())
    return f"[task]\n{lines}[preprocess]\nmodes = passthrough\n[aggregator]\nkinds = mean\n"


@pytest.mark.parametrize(
    "key, value",
    [
        ("partition_sigma", 1000),  # every draw overflows: the sizes summed to inf
        ("partition_mu", -1000),  # every draw underflows to 0
        ("dim", 10**16),  # the class means do not fit in memory
    ],
)
def test_simulate_refused_task_exits_2_and_leaves_no_out_dir(tmp_path, capsys, key, value):
    # the partitions printed numpy RuntimeWarnings, then a negative size sum,
    # and every refused task left an empty --out-dir behind
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(probe_config(**{key: value}))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--config", str(cfgfile), "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert caught == []
    assert not out.exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_infeasible_and_zero_round_cells_write_header_only_files(tmp_path, capsys, jobs):
    # no cap brings the top half's share to 1/10, so the truncate cell is
    # infeasible; it, like a cell with no rounds, records no rows and a NaN
    # accuracy, in this process and in a pool worker alike
    def simulate(name, modes, rounds):
        cfgfile = tmp_path / f"{name}.ini"
        cfgfile.write_text(probe_config().replace(
            "[preprocess]\nmodes = passthrough\n",
            f"[preprocess]\nmodes = {modes}\nalpha = 1/2\nalpha_star = 1/10\n",
        ) + f"[training]\nrounds = {rounds}\n")
        out = tmp_path / name
        argv = ["simulate", "--config", str(cfgfile), "--out-dir", str(out), "--jobs", str(jobs)]
        assert main(argv) == 0
        cells = len(modes.split(","))
        assert capsys.readouterr().out == f"{cells} cells -> {out / 'summary.csv'}\n"
        return {path.name: path.read_text() for path in out.iterdir()}

    header = "round,test_accuracy,test_loss,aggregate_norm\n"
    summary = "preprocess,aggregator,attack,final_accuracy\n"
    both = simulate("both", "passthrough, truncate", 2)
    alone = simulate("alone", "passthrough", 2)
    assert both == {**alone, "metrics_truncate_mean_none.csv": header,
                    "summary.csv": alone["summary.csv"] + "truncate,mean,none,nan\n"}
    assert len(alone["metrics_passthrough_mean_none.csv"].splitlines()) == 3
    assert simulate("zero", "passthrough", 0) == {
        "metrics_passthrough_mean_none.csv": header,
        "summary.csv": summary + "passthrough,mean,none,nan\n",
    }


def test_simulate_command_and_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(SMALL)
    out = tmp_path / "res"
    code = main(["simulate", "--config", str(cfgfile), "--out-dir", str(out)])
    assert code == 0
    assert (out / "summary.csv").exists()
    assert len(list(out.glob("metrics_*.csv"))) == 18
    bad = tmp_path / "bad.ini"
    bad.write_text("[task]\nwidth = 5\n")
    assert main(["simulate", "--config", str(bad), "--out-dir", str(out)]) == 2
    capsys.readouterr()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "byzweight.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "tradeoff" in proc.stdout and "simulate" in proc.stdout
