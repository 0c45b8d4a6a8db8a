"""The benchmark's per-layer tracer must find every hook it patches.

``perfbench/layers.py`` replaces functions at the module attributes through
which hcbloch looks them up.  A renamed or deleted attribute would make
``--trace 1`` fail only when the benchmark runs, so the lookups are checked
here against the current package.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402


def _lookups():
    return [(module, attr) for hooks in layers.SPANS.values() for module, attr in hooks]


def test_every_span_hook_resolves():
    for module, attr in _lookups():
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_tracer_install_restore_leaves_attributes_identical():
    owners = [(importlib.import_module(m), attr) for m, attr in _lookups()]
    beta_matrix = importlib.import_module("hcbloch.beta").BetaMatrix
    owners.append((beta_matrix, "__call__"))
    before = [getattr(owner, attr) for owner, attr in owners]
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(owners, before))
    finally:
        tracer.restore()
    after = [getattr(owner, attr) for owner, attr in owners]
    assert all(a is b for a, b in zip(after, before))


def test_report_calls_each_hook(single_fiber):
    """A report classifies its cell grid once, pairs each case once per eps,
    and solves one eps-problem per eps and one homogenized problem."""
    validation = importlib.import_module("hcbloch.validation")
    tracer = layers.Tracer()
    tracer.install()
    try:
        report = validation.convergence_report(single_fiber, 8, [4, 8])
    finally:
        tracer.restore()
    assert tracer.calls["classify"] == 1
    assert tracer.calls["pairing"] == 2 * len(report.cases)
    assert tracer.calls["eps_solve"] == 2
    assert tracer.calls["homogenized"] == 1
