"""Checks on the repository itself: the test session's settings and dead code in `src/`."""

from __future__ import annotations

import ast
import collections
import os
import subprocess
import sys

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(REPO, "src", "byzweight")

# names with no reader in src/; each stays for the readers named
UNREFERENCED = {
    "WeightVector.from_values",  # perfbench and the tests; ROADMAP item 8 may delete it
    "certificate.false_certification_rate",  # perfbench's false-rate op and the tests
}


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # hypothesis's failure report raises a DeprecationWarning inside a pytest
    # hook; under filterwarnings = error alone that ends the session with an
    # INTERNALERROR, and no later test runs
    (tmp_path / "test_inner.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n@given(st.integers())\ndef test_fails(x):\n    assert x < 0\n\n\n"
        "def test_passes():\n    pass\n")
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", os.path.join(REPO, "pyproject.toml"),
                           "-p", "no:cacheprovider", "-q", "test_inner.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert "1 failed, 1 passed" in out and "INTERNALERROR" not in out, out


def test_every_function_class_and_method_in_src_has_a_reader():
    # a reference is a name or attribute read anywhere in src/ outside the
    # definition itself; dunder methods are called by Python
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read())

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    everywhere = collections.Counter(n for tree in trees.values() for n in names(tree))
    definitions = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    unread = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, definitions):
                continue
            found = [(f"{module}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, definitions[:2])
                          and not (m.name.startswith("__") and m.name.endswith("__"))]
            for label, d in found:
                if everywhere[d.name] == collections.Counter(names(d))[d.name]:
                    unread.add(label)
    assert unread == UNREFERENCED
