"""Experiment grid: build the task once, run every cell, emit CSVs.

A cell is one (preprocess mode, aggregator, attack scenario) combination.
Cells share the same data, partition, and master seed, so any difference
between their metric files comes from the cell axes alone.  The task, and
each scenario's clients, are built once per grid and handed to every cell;
a cell draws only from its own seeded streams, which keeps parallel runs
byte-identical to sequential ones.  Cells of one scenario train as one
lockstep run (run_training), which shares what they compute alike and
changes no byte of any cell.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .config import ExperimentConfig
from .engine import Behavior, Clients, RoundMetrics, metrics_to_csv, run_training, stream
from .tasks import generate_blobs, generate_partition, split_by_sizes

# seed tags for task construction; the engine owns tags 1..5
_TAG_TRAIN_DATA = 101
_TAG_TEST_DATA = 102
_TAG_PARTITION = 103
_TAG_SPLIT = 104
_TAG_ATTACK = 105

SUMMARY_HEADER = "preprocess,aggregator,attack,final_accuracy"


def build_task(cfg: ExperimentConfig):
    """The shuffled training rows and each shard's size, and the held-out test set."""
    train, test = (generate_blobs(n, cfg.dim, cfg.classes, seed=(cfg.master_seed, tag),
                                  separation=cfg.separation)
                   for n, tag in [(cfg.train_samples, _TAG_TRAIN_DATA),
                                  (cfg.test_samples, _TAG_TEST_DATA)])
    sizes = generate_partition(cfg.partition(seed=(cfg.master_seed, _TAG_PARTITION)))
    return split_by_sizes(train, sizes, seed=(cfg.master_seed, _TAG_SPLIT)), test


def attacker_ids(cfg: ExperimentConfig, scenario: str) -> frozenset[int]:
    _, count, _ = cfg.attack(scenario)  # none under "none"
    rng = stream(cfg.master_seed, _TAG_ATTACK, count)
    return frozenset(rng.choice(cfg.clients, size=count, replace=False).tolist())


def build_clients(cfg: ExperimentConfig, scenario: str, shards) -> Clients:
    """A scenario's clients on build_task's shards; its attackers act and lie as it says."""
    (data, size), (behavior, _, declared_lie) = shards, cfg.attack(scenario)
    declared, behaviors = size.tolist(), [Behavior.HONEST] * len(size)
    for i in attacker_ids(cfg, scenario):
        declared[i], behaviors[i] = declared_lie, behavior
    return Clients(data, size, declared, behaviors)


def metrics_filename(preprocess: str, aggregator: str, attack: str) -> str:
    return f"metrics_{preprocess}_{aggregator}_{attack}.csv"


@dataclass(frozen=True)
class CellResult:
    preprocess: str
    aggregator: str
    attack: str
    metrics: tuple[RoundMetrics, ...]  # empty when the cell is infeasible or has no rounds

    @property
    def final_accuracy(self) -> float:
        return self.metrics[-1].test_accuracy if self.metrics else math.nan


def _run_scenario(cfg: ExperimentConfig, clients, test, cells) -> list[CellResult]:
    """Train cells of one attack scenario in lockstep on its clients and the test set."""
    runs = run_training(cfg.model(), clients, test, cfg.train_config(),
                        [cfg.cell(p, a) for p, a, _ in cells])
    return [CellResult(p, a, s, tuple(metrics)) for (p, a, s), (_, metrics) in zip(cells, runs)]


def grid_cells(cfg: ExperimentConfig) -> list[tuple[str, str, str]]:
    return [
        (p, a, s)
        for p in cfg.preprocess_modes
        for a in cfg.aggregator_kinds
        for s in cfg.scenarios
    ]


def summary_csv(results: list[CellResult]) -> str:
    lines = [SUMMARY_HEADER]
    for r in results:
        lines.append(f"{r.preprocess},{r.aggregator},{r.attack},{r.final_accuracy!r}")
    return "\n".join(lines) + "\n"


# a pool worker's (clients by scenario, test), handed over once by _init_worker
_worker_task = None


def _init_worker(clients, test) -> None:
    global _worker_task
    _worker_task = (clients, test)
    # a cell's matrices are small: more BLAS threads per worker only contend.
    # Without numpy's bundled OpenBLAS and its setter, threads stay as they are.
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so")):
        setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def _run_in_worker(cfg: ExperimentConfig, cells):
    clients, test = _worker_task
    return _run_scenario(cfg, clients[cells[0][2]], test, cells)


def run_cells(cfg: ExperimentConfig, clients, test, cells, jobs: int = 1) -> list[CellResult]:
    """Each (preprocess, aggregator, attack) cell's result on clients[attack] and test,
    in the order of cells.  A task is up to ceil(cells / jobs) cells of one scenario,
    which _run_scenario trains as one lockstep run.  jobs = 1 runs the tasks here with
    this process's BLAS setting, each scenario one task; jobs > 1 forks min(jobs, tasks)
    pool workers, which get clients and test once and run one BLAS thread.
    """
    size = -(-len(cells) // jobs)
    groups = [[c for c in cells if c[2] == s] for s in dict.fromkeys(s for _, _, s in cells)]
    tasks = [group[i:i + size] for group in groups for i in range(0, len(group), size)]
    if jobs > 1:  # a forked pool starts all its workers at once
        with ProcessPoolExecutor(min(jobs, len(tasks)), initializer=_init_worker,
                                 initargs=(clients, test)) as ex:
            done = list(ex.map(_run_in_worker, repeat(cfg), tasks))
    else:
        done = [_run_scenario(cfg, clients[task[0][2]], test, task) for task in tasks]
    results = {(r.preprocess, r.aggregator, r.attack): r for task in done for r in task}
    return [results[cell] for cell in cells]


def run_grid(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> list[CellResult]:
    """Run every cell through run_cells; write one metrics CSV each plus summary.csv."""
    shards, test = build_task(cfg)
    clients = {s: build_clients(cfg, s, shards) for s in cfg.scenarios}
    os.makedirs(out_dir, exist_ok=True)  # after the builds, so a refused task leaves no directory
    results = run_cells(cfg, clients, test, grid_cells(cfg), jobs)
    for r in results:
        name = metrics_filename(r.preprocess, r.aggregator, r.attack)
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            fh.write(metrics_to_csv(r.metrics))
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        fh.write(summary_csv(results))
    return results
