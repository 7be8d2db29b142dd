"""Smoke test of the benchmark itself: every workload at a tiny size, the
traced run's metric names against BENCHMARK.json, and each checker shown
rejecting a wrong answer.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from fractions import Fraction

import pytest

import checks
import run
import workloads

BZ = run.load_library()

TINY = {
    "preprocess": dict(clients=400, pool=1, file_lines=2000, trials=50, certify_k=400),
    "train-mlp": dict(rounds=2, clients=20, train_samples=2000, test_samples=200),
    "train-crowd": dict(rounds=3, clients=200, train_samples=4000, test_samples=400),
}


def tiny(name, tmp_path, seed=3):
    workload = run.make(BZ, name, seed, tmp_path / name, TINY)
    workload.setup()
    workload.verify()
    return workload


def run_ops(workload):
    """Run one cycle by hand, returning each op's output after its check."""
    outputs = {}
    for op in workload.cycle():
        outputs[op.kind] = op.run()
        op.check(outputs[op.kind])
    return outputs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_clean(name, tmp_path):
    workload = tiny(name, tmp_path)
    loop = run.run_cycles(workload, 0)
    assert loop.failed == 0 and loop.attempted == len(loop.cycles) * len(workload.cycle())


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    attempted, failed, metrics, traces = run.traced(BZ, 3, 0, tmp_path, TINY)
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert failed == 0 and attempted > 0
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in metrics.items()}
    assert all(v > 0 for v, _ in metrics.values())
    # counts repeat exactly on a second traced run of the same seed
    again = run.traced(BZ, 3, 0, tmp_path / "again", TINY)[2]
    for key, (value, unit) in metrics.items():
        if unit == "count":
            assert again[key][0] == value, key


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    attempted, failed, metrics, _ = run.untraced(BZ, "train-mlp", 3, 0, tmp_path, TINY)
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert failed == 0 and attempted == 1
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in metrics.items()}
    assert all(v > 0 for v, _ in metrics.values())


def test_cap_checker_rejects_off_by_one(tmp_path):
    workload = tiny("preprocess", tmp_path)
    v, values = workload.pool[0]
    outcome = BZ["weights"].solve_truncation(v, workload.query)
    checks.check_solve(values, workloads.ALPHA, workloads.ALPHA_STAR, outcome)
    for wrong in (outcome.cap + 1, outcome.cap - 1):
        with pytest.raises(checks.CheckFailed):
            checks.check_solve(values, workloads.ALPHA, workloads.ALPHA_STAR,
                               replace(outcome, cap=wrong))
    with pytest.raises(checks.CheckFailed):
        checks.check_solve(values, workloads.ALPHA, workloads.ALPHA_STAR,
                           replace(outcome, achieved_share=outcome.achieved_share - Fraction(1, 10**9)))


def test_tradeoff_checker_rejects_reordered_or_shifted_rows(tmp_path):
    workload = tiny("preprocess", tmp_path)
    outputs = run_ops(workload)
    rc, text = outputs["tradeoff"]
    lines = text.splitlines()
    every = lambda n: range(n)  # noqa: E731
    checks.check_tradeoff(text, workload.file_sorted, workloads.ALPHA_STAR, every)
    swapped = "\n".join([lines[0], lines[2], lines[1]] + lines[3:]) + "\n"
    with pytest.raises(checks.CheckFailed):
        checks.check_tradeoff(swapped, workload.file_sorted, workloads.ALPHA_STAR, every)
    alpha, cap = lines[-1].split(",")
    shifted = "\n".join(lines[:-1] + [f"{alpha},{int(cap) + 1}"]) + "\n"
    with pytest.raises(checks.CheckFailed):
        checks.check_tradeoff(shifted, workload.file_sorted, workloads.ALPHA_STAR, every)


def test_certify_checker_rejects_flipped_verdict_and_exit_code(tmp_path):
    workload = tiny("preprocess", tmp_path)
    outputs = run_ops(workload)
    rc, text = outputs["certify"]
    header, row = text.splitlines()
    verdict, rest = row.split(",", 1)
    flipped = {"true": "false", "false": "true"}[verdict]
    with pytest.raises(checks.CheckFailed):
        workload.check_certify((rc, f"{header}\n{flipped},{rest}\n"))
    with pytest.raises(checks.CheckFailed):
        workload.check_certify((4 - rc, text))
    fields = row.split(",")
    fields[1] = repr(float(fields[1]) * 1.01)
    with pytest.raises(checks.CheckFailed):
        workload.check_certify((rc, f"{header}\n{','.join(fields)}\n"))


def test_false_rate_checker_rejects_rates():
    checks.check_false_rates(0.0, 0.0, 0.05)
    with pytest.raises(checks.CheckFailed):
        checks.check_false_rates(0.06, 0.0, 0.05)
    with pytest.raises(checks.CheckFailed):
        checks.check_false_rates(0.0, 0.01, 0.05)


def test_grid_checker_rejects_truncated_csv_and_changed_bytes(tmp_path):
    workload = tiny("train-crowd", tmp_path)
    op = workload.cycle()[0]
    path = os.path.join(workload.out, "metrics_truncate_trimmed_none.csv")

    def run_and_drop_last_row():
        out = op.run()
        with open(path) as fh:
            lines = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")
        return out

    op.check(op.run())  # the first invocation becomes the reference
    with pytest.raises(checks.CheckFailed, match="differs from the first"):
        workload.check(run_and_drop_last_row())
    workload.first_output = None  # a first invocation is parsed row by row
    with pytest.raises(checks.CheckFailed, match="metric rows"):
        workload.check(run_and_drop_last_row())


def test_grid_checker_rejects_accuracy_below_floor(tmp_path):
    workload = tiny("train-crowd", tmp_path)
    op = workload.cycle()[0]
    op.run()
    files = {}
    for name in os.listdir(workload.out):
        with open(os.path.join(workload.out, name)) as fh:
            files[name] = fh.read()
    checks.check_grid(files, workload.cells, workload.rounds, workload.floor_cells, 0.9,
                      workload.robust_pairs, 0.05)
    with pytest.raises(checks.CheckFailed):
        checks.check_grid(files, workload.cells, workload.rounds, workload.floor_cells, 1.01,
                          workload.robust_pairs, 0.05)
    with pytest.raises(checks.CheckFailed):
        checks.check_grid(files, workload.cells, workload.rounds, workload.floor_cells, 0.9,
                          workload.robust_pairs, -1.0)
