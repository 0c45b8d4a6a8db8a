"""The package and the CLI import the scipy-backed modules only where they run.

``import hcbloch`` binds its exported names on first use, and ``hcbloch.cli``
defers every numerical name until a subcommand other than ``geom-check``
runs, so ``geom-check`` and config errors start in about half the time.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hcbloch

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "two_fibers.yml"

# every name `from hcbloch import X` resolved to before the exports became lazy
EXPORTED = {
    "BandStructure", "BetaMatrix", "SpatialRoot", "pure_bloch_bands", "solve_lifts",
    "spatial_points", "spatial_spectrum", "BlochDecomposition", "ThetaGrid", "assemble_bloch",
    "bloch_eigs", "theta_sweep", "CellSolution", "effective_tensor", "solve_cell_problem",
    "RunConfig", "parse_config", "CoefficientError", "ContainmentError", "ConvergenceError",
    "EmptyActiveSetError", "EmptyDomainError", "HcBlochError", "OverlapError", "ParseError",
    "PoleProximityError", "ResolutionError", "SingularSystemError", "ValidationError",
    "CellGeometry", "FiberSpec", "Grid", "build_geometry", "classify_nodes", "QuasiMomentum",
    "eigensolve", "linear_solve", "EpsProblem", "TwoScaleReport", "convergence_report",
    "solve_eps", "solve_homogenized", "two_scale_pairing",
}


def _scipy_loaded_after(code: str) -> bool:
    probe = code + "\nimport sys\nprint('scipy' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1] == "True"


@pytest.mark.parametrize(
    "code",
    [
        "import hcbloch",
        "import hcbloch.cli",
        "import hcbloch.cli\nassert hcbloch.cli.main(['geom-check', '--config', {config!r}]) == 0",
        "import hcbloch.cli\nassert hcbloch.cli.main(['spectrum', '--config', {invalid!r}]) == 2",
    ],
    ids=["import_package", "import_cli", "geom_check", "invalid_config"],
)
def test_no_scipy_where_none_is_needed(tmp_path, code):
    invalid = tmp_path / "invalid.yml"
    invalid.write_text(CONFIG.read_text().replace("n: 16", "n: 2"))
    assert not _scipy_loaded_after(code.format(config=str(CONFIG), invalid=str(invalid)))


def test_cli_deferred_names_resolve():
    """Binding the deferred names loads scipy, so the probe above can see it."""
    assert _scipy_loaded_after("import hcbloch.cli\nhcbloch.cli._import_numerics()")
    cli = importlib.import_module("hcbloch.cli")
    for name, module in cli._DEFERRED.items():
        assert getattr(cli, name) is getattr(importlib.import_module(f"hcbloch.{module}"), name)
    assert not hasattr(cli, "no_such_name")


def test_lazy_package_api():
    assert set(hcbloch.__all__) == EXPORTED
    for name in hcbloch.__all__:
        obj = getattr(hcbloch, name)
        assert obj.__module__.startswith("hcbloch.")
        assert obj is getattr(importlib.import_module(obj.__module__), name), name
    assert EXPORTED <= set(dir(hcbloch))
    namespace: dict = {}
    exec("from hcbloch import *", namespace)
    assert all(namespace[name] is getattr(hcbloch, name) for name in EXPORTED)
    assert not hasattr(hcbloch, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        hcbloch.no_such_name  # noqa: B018
