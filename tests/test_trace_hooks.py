"""The benchmark's per-layer tracer must find every hook it patches.

``perfbench/layers.py`` replaces functions at the module attributes through
which hcbloch looks them up.  A renamed or deleted attribute would make
``--trace 1`` fail only when the benchmark runs, so the lookups are checked
here against the current package, as are the config fields that
``perfbench/make_reference.py`` reads.
"""

import ast
import importlib
import sys
from dataclasses import fields
from pathlib import Path

import yaml

import hcbloch.cli
from hcbloch.config import RunConfig

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import layers  # noqa: E402


def _lookups():
    return [(module, attr) for hooks in layers.SPANS.values() for module, attr in hooks]


def test_every_span_hook_resolves():
    for module, attr in _lookups():
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_reference_config_reads_resolve():
    """``perfbench/make_reference.py`` reads these ``cfg.<name>`` fields of the
    parsed config; removing one would break only the next reference run."""
    tree = ast.parse((ROOT / "perfbench" / "make_reference.py").read_text())
    reads = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "cfg"}
    assert {"tol_eigen", "tol_linear", "pole_guard"} <= reads
    assert reads <= {f.name for f in fields(RunConfig)}


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


def _cli_config(tmp_path, shipped, **sections):
    cfg = yaml.safe_load((ROOT / "configs" / shipped).read_text())
    for section, values in sections.items():
        cfg.setdefault(section, {}).update(values)
    cfg["output"] = {"dir": str(tmp_path / "out")}
    path = tmp_path / shipped
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def _traced_main(argv):
    tracer = layers.Tracer()
    tracer.install()
    try:
        code = hcbloch.cli.main(argv)
    finally:
        tracer.restore()
    return code, tracer.calls


def test_cli_spans_fire(tmp_path):
    """The CLI's calls go through the module attributes the tracer patches: one
    sweep, one cell problem per fiber and one spatial_points call per theta; a
    sweep of one theta for `bloch --theta`; and one report and one cell problem
    for validate."""
    config = _cli_config(tmp_path, "two_fibers.yml", grid={"n": 8}, theta_grid={"g": 2})
    code, calls = _traced_main(["spectrum", "--config", config, "--threads", "1"])
    assert code == 0
    assert calls["sweep"] == 1
    assert calls["cell"] == 2
    assert calls["spatial_points"] == 8

    code, calls = _traced_main(["bloch", "--config", config, "--theta", "0,3.141592653589793,0",
                                "--threads", "1"])
    assert code == 0
    assert calls["sweep"] == 1
    assert calls["bloch_eigs"] == 1

    config = _cli_config(tmp_path, "single_fiber.yml")
    code, calls = _traced_main(["validate", "--config", config, "--eps", "4"])
    assert code == 0
    assert calls["report"] == 1
    assert calls["cell"] == 1
