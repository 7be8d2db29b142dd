"""The benchmark's tracer still finds every library name it wraps.

`perfbench/spans.py` patches byzweight functions by name from outside the
package.  Installing and restoring it here fails as soon as one of those
names is renamed or deleted, without running the benchmark itself.
"""

from __future__ import annotations

import importlib
import importlib.util
import os

import numpy as np

from byzweight.engine import WeightedMedian

MODULES = ("weights", "certificate", "tasks", "engine", "experiment", "config", "cli")
SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_library_and_restores_it():
    spans = load_spans()
    bz = {name: importlib.import_module(f"byzweight.{name}") for name in MODULES}
    t = bz["tasks"]
    owners = list(bz.values()) + [t.SoftmaxRegression, t.OneHiddenMLP, t.Dataset]
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    spans.install(tracer, bz)
    try:
        patched = {(id(owner), key) for owner, key, _ in tracer._patched}
        for name in ("aggregate_weighted_mean", "aggregate_weighted_median", "aggregate_trimmed_mean"):
            assert (id(bz["engine"]), name) in patched
        bz["engine"].aggregate(WeightedMedian(), [np.array([1.0]), np.array([3.0])], [1, 1])
        assert tracer.names == ["engine.aggregate.median"]
        # the models' shared loss and gradient still pass through each class's
        # traced method, which tasks.gradient.us and tasks.eval.ms_per_round read
        batch = t.Dataset(np.ones((3, 4)), np.array([0, 1, 0]))
        for model in (t.SoftmaxRegression(4, 2), t.OneHiddenMLP(4, 3, 2, 0.0)):
            w = np.zeros(model.param_count)
            model.gradient(w, batch)
            model.loss(w, batch)
        t.accuracy(model, w, batch)
        assert tracer.names[1:] == ["tasks.gradient", "tasks.loss"] * 2 + ["tasks.accuracy"]
    finally:
        tracer.restore()
    for owner, names in zip(owners, before):
        assert vars(owner).keys() == names.keys()
        assert all(vars(owner)[key] is value for key, value in names.items())
