"""Write the reference outputs that ``run.py`` checks every run against.

Usage (from the repository root):

    python3 perfbench/make_reference.py [WORKLOAD ...]

For each workload (default: all), runs the CLI once with seed 0 and stores
the numerical content of its outputs with the config's tolerances in
``perfbench/reference/<workload>.json``.  A ``spectrum`` reference also
stores the Bloch eigenvalues of a ``bloch`` run on the same config, which
the pole-guard check of the spatial roots needs.  Regenerate only when a
change is meant to alter the numbers, and say why.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))
from hcbloch.config import parse_config  # noqa: E402

SEED = 0
TIMEOUT_S = 1800.0


def cli_output(workload: run.Workload, config: Path, out: Path, log: Path) -> Path:
    argv = [sys.executable, "-m", "hcbloch.cli", *run.cli_args(workload, config, out, SEED)]
    child = run.run_child(argv, time.perf_counter() + TIMEOUT_S, log)
    if child.exit_code != 0:
        raise RuntimeError(f"{workload.name}: exit code {child.exit_code}\n{child.log_tail()}")
    return out


def make_reference(workload: run.Workload, work: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    config = run.write_config(workload, work)
    cfg = parse_config(str(config))
    out = cli_output(workload, config, work / "out", work / "reference.log")
    reference = {
        "workload": workload.name,
        "seed": SEED,
        "tolerances": {"eigen": cfg.tol_eigen, "linear": cfg.tol_linear,
                       "pole_guard": cfg.pole_guard},
        "content": run.extract(workload, out),
    }
    if workload.command == "spectrum":
        bloch = replace(workload, command="bloch", extra_args=())
        bands = run.read_bands(cli_output(bloch, config, work / "poles", work / "poles.log")
                               / "bands.csv")
        poles: dict[tuple, list[float]] = {}
        for t1, t2, t3, _, mu in bands:
            poles.setdefault((t1, t2, t3), []).append(mu)
        reference["poles"] = [{"theta": list(t), "mu": mu} for t, mu in poles.items()]
    return reference


def main(names: list[str]) -> int:
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(run.WORKLOADS):
        reference = make_reference(run.WORKLOADS[name], run.WORK_DIR / "reference" / name)
        path = run.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(reference, indent=1) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
