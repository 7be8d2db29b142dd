"""Benchmark of byzweight: one workload per process, closed loop, in-process.

    python3 perfbench/run.py --workload preprocess --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports byzweight from its
`src/`.  The untraced run (--trace 0) times whole cycles of the workload's
operations and prints the end-to-end metrics; the traced run (--trace 1)
walks every workload with spans around the library's public calls and
prints the per-layer metrics.  `--workload all` runs the three workloads,
each in its own process.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
MODULES = ("weights", "certificate", "tasks", "engine", "experiment", "config", "cli")


def load_library() -> dict:
    """Import byzweight from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "byzweight" / "__init__.py").is_file():
        raise SystemExit(f"error: no byzweight sources under {src}")
    sys.path.insert(0, str(src))
    bz = {name: importlib.import_module(f"byzweight.{name}") for name in MODULES}
    if Path(bz["cli"].__file__).resolve().parent != src / "byzweight":
        raise SystemExit(f"error: byzweight imported from {bz['cli'].__file__}, not {src}")
    return bz


class Reference:
    """A fixed mix of interpreter, big-integer and small-array work.

    On a shared host the machine's speed can drift by a quarter or more over
    minutes.  Timed between operations, this mix slows down with the
    workload, so a cycle's time divided by the mix's time varies far less
    from run to run than either does alone.  With `walk_lists` the mix also
    walks a 200 000-int list, as the solver and the weight-file parser do;
    without it the mix slowed down less than those did.
    """

    def __init__(self, walk_lists: bool):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((100, 64))
        self.b = rng.standard_normal((64, 64))
        self.stack = rng.standard_normal((500, 210))
        self.big = [int(x) for x in rng.integers(1, 1000, 200_000)] if walk_lists else []

    def __call__(self) -> float:
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(20000):
            total += i * i
            table[i & 255] = total
        exact = Fraction(0)
        for i in range(1, 800):
            exact += Fraction(i, i % 89 + 1)
        for x in self.big:
            total += x if x < 500 else 500
        tuple(min(x, 300) for x in self.big[:50000])
        for _ in range(150):
            (self.a @ self.b).sum()
        for _ in range(4):
            np.argsort(self.stack, axis=0, kind="stable")
        return time.perf_counter() - start


class Loop:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.cycles: list[float] = []  # seconds of operations per cycle
        self.reference: list[float] = []
        self.latency = defaultdict(list)


def run_cycles(workload, seconds: float, tracer=None) -> Loop:
    """Whole cycles until `seconds` have passed; each op starts when the last ends.

    After each operation the reference mix runs once, plus once per second
    the operation and its check took; neither counts in the cycle's time.
    """
    loop = Loop()
    reference = Reference(workload.walks_lists)
    deadline = time.perf_counter() + seconds
    while True:
        busy = 0.0
        for op in workload.cycle():
            loop.attempted += 1
            start = time.perf_counter()
            try:
                out = op.run() if tracer is None else tracer.span("op." + op.kind, op.run)
                elapsed = time.perf_counter() - start
                op.check(out)
            except Exception:  # a failed operation is counted, and the loop goes on
                loop.failed += 1
                print(f"{workload.name}: {op.kind} failed", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            else:
                loop.latency[op.kind].append(elapsed)
                busy += elapsed
            loop.reference += [reference() for _ in range(1 + int(time.perf_counter() - start))]
        loop.cycles.append(busy)
        if time.perf_counter() >= deadline:
            return loop


def make(bz, name, seed, workdir, sizes=None):
    os.makedirs(workdir)
    return workloads.WORKLOADS[name](bz, seed, str(workdir), **(sizes or {}).get(name, {}))


def untraced(bz, name, seed, seconds, scratch, sizes=None):
    setups = []
    for i in range(SETUP_REPEATS):
        if i:
            shutil.rmtree(scratch / f"setup{i - 1}")
        workload = make(bz, name, seed, scratch / f"setup{i}", sizes)
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    workload.verify()
    loop = run_cycles(workload, seconds)
    cycle, reference = statistics.median(loop.cycles), statistics.median(loop.reference)
    print(f"{name}: cycle p50 {1e3 * cycle:.1f} ms over {len(loop.cycles)}, "
          f"reference p50 {1e3 * reference:.3f} ms over {len(loop.reference)}")
    for kind, values in loop.latency.items():
        print(f"{name}: {kind} p50 {1e3 * statistics.median(values):.1f} ms over {len(values)}")
    metrics = {
        "cycle_ref": (cycle / reference, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return loop.attempted, loop.failed, metrics, None


def traced(bz, seed, seconds, scratch, sizes=None):
    """Every workload in turn, seconds/3 each (at least one cycle), traced.

    `sizes` maps a workload name to keyword arguments that shrink it.
    """
    attempted = failed = 0
    metrics, traces = {}, {}
    for name in workloads.WORKLOADS:
        workload = make(bz, name, seed, scratch / name, sizes)
        workload.setup()
        workload.verify()
        tracer = spans.Tracer()
        spans.install(tracer, bz)
        try:
            loop = run_cycles(workload, seconds / len(workloads.WORKLOADS), tracer)
        finally:
            tracer.restore()
        attempted += loop.attempted
        failed += loop.failed
        stats = spans.SpanStats(tracer.spans)
        layer = workload.layer_metrics(stats, len(loop.cycles))
        layer["traced_cycle_ref"] = (
            statistics.median(loop.cycles) / statistics.median(loop.reference), "ref")
        metrics.update({f"{name}.{key}": value for key, value in layer.items()})
        traces[name] = tracer.spans
    return attempted, failed, metrics, traces


def run_one(args) -> int:
    bz = load_library()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            attempted, failed, metrics, traces = traced(bz, args.seed, args.seconds, scratch)
        else:
            attempted, failed, metrics, traces = untraced(
                bz, args.workload, args.seed, args.seconds, scratch)
    except checks.CheckFailed:
        traceback.print_exc(file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traces is not None:
        spans.write_spans(OUT / f"spans-{tag}.jsonl.gz", traces)
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{tag}.json").write_text(line + "\n")
    print(line)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; the last line sums their results."""
    # one traced run already walks every workload
    names = ["preprocess"] if args.trace else ["preprocess", "train-mlp", "train-crowd"]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if result is None:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print(f"{name}: attempted {result['attempted']} failed {result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"{name}: {key} = {metric['value']} {metric['unit']}")
            combined["metrics"][key if args.trace else f"{name}.{key}"] = metric
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["preprocess", "train-mlp", "train-crowd", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
