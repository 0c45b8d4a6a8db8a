"""Tests of the benchmark itself, on smoke configs (n=8, g=2).

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` so that the repository's own test run
does not collect it.
"""

import importlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layers  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402

SMOKE = {"grid": {"n": 8}, "theta_grid": {"g": 2}}
SMOKE_WORKLOADS = {
    "bloch": replace(run.WORKLOADS["sweep-n20"], overrides=SMOKE),
    "spectrum": replace(run.WORKLOADS["spectrum-two-fibers"], overrides=SMOKE),
    # fine grids 16^3 (direct solve) and 32^3 (Jacobi-CG)
    "validate": replace(run.WORKLOADS["validate-eps16"], extra_args=("--eps", "2,4")),
}
# A layer metric each smoke workload must exercise.
EXERCISED = {
    "bloch": {"bloch.theta_points": 8},
    "spectrum": {"bloch.theta_points": 8, "beta.lift_calls": 6},
    "validate": {"validation.eps_unknowns": 16**3 + 32**3},
}


def spec_units(key):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def lookups():
    found = {(module, attr): getattr(importlib.import_module(module), attr)
             for spans in layers.SPANS.values() for module, attr in spans}
    found[("BetaMatrix", "__call__")] = importlib.import_module("hcbloch.beta").BetaMatrix.__call__
    return found


def test_tracer_restores_originals():
    before = lookups()
    tracer = layers.Tracer()
    tracer.install()
    try:
        during = lookups()
        assert all(during[key] is not fn for key, fn in before.items())
    finally:
        tracer.restore()
    after = lookups()
    assert all(after[key] is fn for key, fn in before.items())


@pytest.mark.parametrize("command", sorted(SMOKE_WORKLOADS))
def test_smoke_workload_reports_every_metric(command, tmp_path):
    workload = SMOKE_WORKLOADS[command]
    reference = make_reference.make_reference(workload, tmp_path / "reference")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure(workload, reference, seed=1, seconds=1, trace=trace,
                             work=tmp_path / "run", deadline=time.perf_counter() + 170)
        assert result["correct"], result["notes"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        metrics = result["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == spec_units(key)
    for name, value in EXERCISED[command].items():
        assert metrics[name]["value"] == value, name

    # The check must notice a wrong number.
    wrong = json.loads(json.dumps(reference))
    content = wrong["content"]
    if command == "bloch":
        content["bands"][3][4] *= 1.001
    elif command == "spectrum":
        content["gaps"][0][1] *= 1.001
    else:
        content["cases"][0]["pairings"][0][0] += 1e-3
    problems, _ = run.check_outputs(workload, tmp_path / "run" / "out", wrong)
    assert problems


def test_peak_rss_is_per_child(tmp_path):
    deadline = time.perf_counter() + 60
    big = run.run_child([sys.executable, "-c", "b = b'x' * (200 << 20)"], deadline,
                        tmp_path / "big.log")
    small = run.run_child([sys.executable, "-c", "pass"], deadline, tmp_path / "small.log")
    assert big.exit_code == small.exit_code == 0
    assert big.peak_rss_mb > 200
    assert small.peak_rss_mb < 100
