"""Experiment grid: build the task once, run every cell, emit CSVs.

A cell is one (preprocess mode, aggregator, attack scenario) combination.
Cells share the same data, partition, and master seed, so any difference
between their metric files comes from the cell axes alone.  The task, and
each scenario's clients, are built once per grid and handed to every cell;
a cell draws only from its own seeded streams, which keeps parallel runs
byte-identical to sequential ones.  In this process, the cells of a
scenario train as one lockstep group (run_training), which shares what
they compute alike and changes no byte of any cell.
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
from .engine import ClientSpec, RoundMetrics, metrics_to_csv, run_training, stream
from .tasks import generate_blobs, generate_partition, split_by_sizes

# seed tags for task construction; the engine owns tags 1..5
_TAG_TRAIN_DATA = 101
_TAG_TEST_DATA = 102
_TAG_PARTITION = 103
_TAG_SPLIT = 104
_TAG_ATTACK = 105

SUMMARY_HEADER = "preprocess,aggregator,attack,final_accuracy"


def build_task(cfg: ExperimentConfig):
    """Training shards, their true sizes, and the held-out test set."""
    train = generate_blobs(
        cfg.train_samples,
        cfg.dim,
        cfg.classes,
        seed=(cfg.master_seed, _TAG_TRAIN_DATA),
        separation=cfg.separation,
    )
    test = generate_blobs(
        cfg.test_samples,
        cfg.dim,
        cfg.classes,
        seed=(cfg.master_seed, _TAG_TEST_DATA),
        separation=cfg.separation,
    )
    sizes = generate_partition(cfg.partition(seed=(cfg.master_seed, _TAG_PARTITION)))
    shards = split_by_sizes(train, sizes, seed=(cfg.master_seed, _TAG_SPLIT))
    return shards, test


def attacker_ids(cfg: ExperimentConfig, scenario: str) -> frozenset[int]:
    _, count, _ = cfg.attack(scenario)  # none under "none"
    rng = stream(cfg.master_seed, _TAG_ATTACK, count)
    return frozenset(rng.choice(cfg.clients, size=count, replace=False).tolist())


def build_clients(cfg: ExperimentConfig, scenario: str, shards) -> list[ClientSpec]:
    behavior, _, declared_lie = cfg.attack(scenario)
    attackers = attacker_ids(cfg, scenario)
    return [ClientSpec(cid, shard, declared_lie, behavior) if cid in attackers
            else ClientSpec(cid, shard, len(shard)) for cid, shard in enumerate(shards)]


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


def run_cell(cfg: ExperimentConfig, clients, test, preprocess: str, aggregator: str,
             attack: str) -> CellResult:
    """Train one cell on build_clients(cfg, attack, shards) and the test set
    of the task that build_task(cfg) returned: a lockstep group of one."""
    return _run_scenario(cfg, clients, test, [(preprocess, aggregator, attack)])[0]


def _run_scenario(cfg: ExperimentConfig, clients, test, cells) -> list[CellResult]:
    runs = run_training(cfg.model(), clients, test, [cfg.train_config(p, a) for p, a, _ in cells])
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


def _run_cell_in_worker(cfg: ExperimentConfig, preprocess: str, aggregator: str, attack: str):
    clients, test = _worker_task
    return run_cell(cfg, clients[attack], test, preprocess, aggregator, attack)


def run_cells(cfg: ExperimentConfig, clients, test, cells, jobs: int = 1) -> list[CellResult]:
    """Each (preprocess, aggregator, attack) cell's result on clients[attack] and test,
    in the order of cells.

    jobs > 1 forks min(jobs, cells) pool workers, which get clients and test
    once, run one BLAS thread and one cell a task, a lockstep group of one.
    jobs = 1 keeps this process's BLAS setting and trains each scenario's
    cells as one lockstep group, in one run_training call.
    """
    if jobs > 1:  # a forked pool starts all its workers at once
        workers = min(jobs, len(cells))
        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(clients, test)) as ex:
            return list(ex.map(_run_cell_in_worker, repeat(cfg), *zip(*cells)))
    results = {}
    for scenario in dict.fromkeys(s for _, _, s in cells):
        at = [i for i, cell in enumerate(cells) if cell[2] == scenario]
        results.update(zip(at, _run_scenario(cfg, clients[scenario], test, [cells[i] for i in at])))
    return [results[i] for i in range(len(cells))]


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
