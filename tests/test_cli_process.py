"""The CLI as a process: ``python -m hcbloch.cli`` and the ``hcbloch`` script enter
through ``cli.run``, which freezes the GC once ``main`` returns, so the
interpreter's exit does not collect the import graph object by object.

The freeze must change nothing a caller sees: stdout, stderr, exit codes and
output files are those of an in-process ``main``, and ``main`` itself never
freezes (the test process and library callers keep their collector).  The
same holds for ``run``'s deferral of ``numpy.f2py`` and ``numpy.testing``:
each still works on first use, and one already imported is left as it is.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hcbloch import cli

ROOT = Path(__file__).resolve().parents[1]
SINGLE_FIBER = ROOT / "configs" / "single_fiber.yml"
TWO_FIBERS = ROOT / "configs" / "two_fibers.yml"


def _python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, capture_output=True,
                          text=True)


def _cli(*args: str) -> subprocess.CompletedProcess:
    return _python("-m", "hcbloch.cli", *args)


def test_console_script_enters_through_run():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"]["hcbloch"] == "hcbloch.cli:run"


def test_main_in_process_does_not_freeze(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["geom-check", "--config", str(TWO_FIBERS)]) == 0
    assert gc.get_freeze_count() == before
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


def test_module_entry_exits_with_main_code_then_frozen():
    """Runs the module as ``-m`` does and reads the exit code and the freeze count."""
    code = ("import gc, runpy\ntry:\n"
            "    runpy.run_module('hcbloch.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n    print(exc.code, gc.get_freeze_count() > 0)\n")
    proc = _python("-c", code, "geom-check", "--config", str(TWO_FIBERS))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 True"


def test_geom_check_process_prints_its_line(capsys):
    proc = _cli("geom-check", "--config", str(TWO_FIBERS))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert cli.main(["geom-check", "--config", str(TWO_FIBERS)]) == 0
    assert proc.stdout == capsys.readouterr().out
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout)["status"] == "ok"


def test_invalid_config_process_exits_2(tmp_path, capsys):
    invalid = tmp_path / "invalid.yml"
    invalid.write_text(TWO_FIBERS.read_text().replace("n: 16", "n: 2"))
    proc = _cli("spectrum", "--config", str(invalid))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert cli.main(["spectrum", "--config", str(invalid)]) == 2
    assert proc.stderr == capsys.readouterr().err
    assert json.loads(proc.stderr)["error"] == "ValidationError"


def test_cell_process_writes_the_in_process_file(tmp_path):
    out = tmp_path / "out"
    proc = _cli("cell", "--config", str(SINGLE_FIBER), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"written": str(out / "cell.json")}
    from_process = (out / "cell.json").read_bytes()
    (out / "cell.json").unlink()
    assert cli.main(["cell", "--config", str(SINGLE_FIBER), "--out", str(out)]) == 0
    assert (out / "cell.json").read_bytes() == from_process


def test_spectrum_process_writes_the_in_process_file(tmp_path, capsys):
    config = tmp_path / "small.yml"
    config.write_text(TWO_FIBERS.read_text().replace("n: 16", "n: 8").replace("g: 4", "g: 2"))
    argv = ["spectrum", "--config", str(config), "--out", str(tmp_path / "out")]
    proc = _cli(*argv)
    assert proc.returncode == 0, proc.stderr
    from_process = (tmp_path / "out" / "spectrum.json").read_bytes()
    (tmp_path / "out" / "spectrum.json").unlink()
    assert cli.main(argv) == 0
    assert (tmp_path / "out" / "spectrum.json").read_bytes() == from_process
    assert capsys.readouterr().out == proc.stdout


def test_deferred_numpy_modules_work_on_first_use(tmp_path):
    """After a command, both modules are still unexecuted; then each loads on use."""
    code = (f"import sys\nimport numpy as np\nfrom hcbloch import cli\n"
            f"assert cli.run(['cell', '--config', {str(SINGLE_FIBER)!r}, '--out', "
            f"{str(tmp_path)!r}]) == 0\n"
            "print([type(sys.modules[m]).__name__ for m in ('numpy.f2py', 'numpy.testing')])\n"
            "np.testing.assert_allclose(1.0, 1.0)\n"
            "from numpy.testing import assert_array_equal\n"
            "assert_array_equal([1, 2], [1, 2])\n"
            "print(np.f2py.__name__, type(np.testing).__name__, type(np.f2py).__name__)\n")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["['_LazyModule', '_LazyModule']",
                                             "numpy.f2py module module"]


def test_run_leaves_imported_numpy_modules_alone():
    import numpy.f2py
    import numpy.testing

    before = {name: sys.modules[name] for name in ("numpy.f2py", "numpy.testing")}
    try:
        assert cli.run(["geom-check", "--config", str(TWO_FIBERS)]) == 0
    finally:
        gc.unfreeze()  # run freezes the collector of the process it runs in
    assert all(sys.modules[name] is module for name, module in before.items())
    assert numpy.testing is before["numpy.testing"] and numpy.f2py is before["numpy.f2py"]
