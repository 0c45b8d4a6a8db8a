"""The golden outputs: every subcommand on every shipped config, at a small size.

Each case runs one subcommand in-process through ``hcbloch.cli.main`` on
one config of ``configs/``, with the grid cut to n=8 and the theta grid to
g=2, and ``--threads 1``; ``validate`` takes ``--eps 4,8`` and ``beta``
``--theta 0,pi,0``.  Its exit code, stdout, stderr and artefacts go to
``tests/golden/<config>/<command>.json``, and ``tests/test_golden.py``
compares a fresh run of every case with its file.

Rewrite every file, after a change that moves the outputs on purpose::

    python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as in the tests
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import yaml  # noqa: E402

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]
CONFIGS = ("single_fiber", "two_fibers", "double_porosity")
COMMANDS = {
    "geom-check": (),
    "cell": (),
    "bloch": (),
    "beta": ("--theta", "0,3.141592653589793,0"),
    "spectrum": (),
    "validate": ("--eps", "4,8"),
}
SIZE = {"grid": {"n": 8}, "theta_grid": {"g": 2}}
CASES = [(config, command) for config in CONFIGS for command in COMMANDS]


def golden_path(config: str, command: str) -> Path:
    return GOLDEN / config / f"{command}.json"


def _lines(text: str) -> list:
    """Each line of a stream, parsed as JSON where it is JSON."""
    out = []
    for line in text.splitlines():
        try:
            out.append(json.loads(line))
        except ValueError:
            out.append(line)
    return out


def _artefact(path: Path):
    """A JSON artefact parsed, with the echoed output directory left out; a CSV as its lines."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".json":
        return text.splitlines()
    payload = json.loads(text)
    payload["config"]["output"].pop("dir")
    return payload


def run_case(config: str, command: str) -> dict:
    """Run one case and return its record: argv (past --config, --out and --threads),
    exit code, stdout and stderr lines, and artefacts by file name."""
    from hcbloch.cli import main

    raw = yaml.safe_load((ROOT / "configs" / f"{config}.yml").read_text(encoding="utf-8"))
    for section, values in SIZE.items():
        raw.setdefault(section, {}).update(values)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / f"{config}.yml", Path(tmp) / "out"
        cfg_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(cfg_path), "--out", str(out), "--threads", "1",
                         *COMMANDS[command]])
        files = {p.name: _artefact(p) for p in sorted(out.glob("*"))}
    lines = _lines(stdout.getvalue())
    for line in lines:  # the path written is the file name, already a key of files
        if isinstance(line, dict) and "written" in line:
            line["written"] = Path(line["written"]).name
    return {"argv": [command, *COMMANDS[command]], "exit_code": code, "stdout": lines,
            "stderr": _lines(stderr.getvalue()), "files": files}


def main() -> None:
    for config, command in CASES:
        path = golden_path(config, command)
        path.parent.mkdir(exist_ok=True)
        record = run_case(config, command)
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"{path.relative_to(ROOT)}: exit {record['exit_code']}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
