"""Span recording around byzweight's public calls, from outside the package.

A Tracer replaces each traced function with a wrapper wherever the library
looks the name up: the defining module, every `from .x import y` binding in
the other modules, and the class for methods.  Spans (name, start, end,
parent) stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import json
import time


class Tracer:
    def __init__(self):
        # one column per field, so that recording a span allocates no object
        # the cyclic garbage collector would have to scan
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # index of the enclosing span, or -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @property
    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def wrap(self, name: str, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of its own (the benchmark's operations)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def patch_function(self, modules, owner, attr: str, name: str) -> None:
        """Trace owner.attr under `name` in every module that binds it."""
        original = getattr(owner, attr)
        traced = self.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, key, value))
                    setattr(module, key, traced)

    def patch_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original))

    def restore(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()


def install(tracer: Tracer, bz) -> None:
    """Wrap the public calls the per-layer metrics are built from.

    `bz` maps module names (weights, certificate, tasks, engine, experiment,
    config, cli) to the imported modules.
    """
    modules = list(bz.values())
    w, c, t, e, x, g = (bz[n] for n in ("weights", "certificate", "tasks", "engine", "experiment", "config"))
    for owner, attr in [
        (w, "solve_truncation"), (w, "top_share"), (w, "truncate"), (w, "tradeoff_curve"),
        (w, "read_weights_file"), (w, "preprocess"),
        (c, "certify_sample"), (c, "false_certification_rate"),
        (e, "client_update"), (e, "run_training"),
        (x, "build_task"), (x, "run_grid"), (g, "parse_config"), (bz["cli"], "main"),
        (t, "accuracy"),
    ]:
        module = owner.__name__.rsplit(".", 1)[1]
        tracer.patch_function(modules, owner, attr, f"{module}.{attr}")
    for attr, kind in [
        ("aggregate_weighted_mean", "mean"),
        ("aggregate_weighted_median", "median"),
        ("aggregate_trimmed_mean", "trimmed"),
    ]:
        tracer.patch_function(modules, e, attr, f"engine.aggregate.{kind}")
    for cls in (t.SoftmaxRegression, t.OneHiddenMLP):
        tracer.patch_method(cls, "gradient", "tasks.gradient")
        tracer.patch_method(cls, "loss", "tasks.loss")
    tracer.patch_method(t.Dataset, "subset", "tasks.Dataset.subset")


class SpanStats:
    """Counts, total and self seconds per span name, with filters by ancestry."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name: dict[str, list[int]] = {}
        child = [0.0] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            self.by_name.setdefault(name, []).append(i)
            if parent >= 0:
                child[parent] += end - start
        self.self_time = [s[2] - s[1] - child[i] for i, s in enumerate(spans)]
        # nearest enclosing benchmark operation, training run or solve
        self.anchor = []
        for name, _, _, parent in spans:
            if name.startswith("op.") or name in ("engine.run_training", "weights.solve_truncation"):
                self.anchor.append(name)
            else:
                self.anchor.append(self.anchor[parent] if parent >= 0 else "")

    def select(self, name, anchor=None, parent=None):
        for i in self.by_name.get(name, ()):
            s = self.spans[i]
            if anchor is not None and (s[3] < 0 or self.anchor[s[3]] != anchor):
                continue
            if parent is not None and (s[3] < 0 or self.spans[s[3]][0] != parent):
                continue
            yield i

    def count(self, name, **where) -> int:
        return sum(1 for _ in self.select(name, **where))

    def total(self, name, **where) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.select(name, **where))

    def self_total(self, name, **where) -> float:
        return sum(self.self_time[i] for i in self.select(name, **where))

    def mean(self, name, **where) -> float:
        n = self.count(name, **where)
        return self.total(name, **where) / n if n else 0.0


def write_spans(path, traces: dict) -> None:
    """One JSON line per span: workload, name, start, end, parent index."""
    with gzip.open(path, "wt") as fh:
        for workload, spans in traces.items():
            for name, start, end, parent in spans:
                fh.write(json.dumps([workload, name, start, end, parent]) + "\n")
