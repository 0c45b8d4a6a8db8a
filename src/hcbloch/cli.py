"""Command-line interface: geom-check | cell | bloch | beta | spectrum | validate.

Every subcommand reads one YAML config (plus a few flag overrides),
writes machine-readable artifacts into the output directory, and exits
0 on success, 1 on a failed validation verdict, 2 on errors (with a
JSON error payload on stderr).

The scipy-backed names the commands call (``_DEFERRED``) are imported on
first access, and every subcommand but ``geom-check`` binds them all before
it runs, so ``geom-check``, ``--help`` and config errors load no scipy.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

import numpy as np

from . import _lazy
from .config import SCHEMA_VERSION, RunConfig, parse_config, with_overrides
from .errors import EmptyActiveSetError, HcBlochError, ValidationError
from .geometry import build_geometry, classify_nodes

__all__ = ["main", "run", "run_subcommand"]

# bloch_eigs is bound here only for perfbench/layers.py, which hooks hcbloch.cli.bloch_eigs
_DEFERRED = {
    "theta_grid": "bloch", "bloch_eigs": "bloch", "theta_sweep": "bloch", "axial_flux": "cell",
    "solve_cell_problem": "cell", "effective_tensor": "cell", "pure_bloch_bands": "beta",
    "spatial_points": "beta", "convergence_report": "validation", "QuasiMomentum": "operators",
    "as_quasi_momentum": "operators",
}
__getattr__ = _lazy(globals(), _DEFERRED)


def _import_numerics() -> None:
    """Bind each deferred name not bound yet (a tracer's wrapper stays), before any sweep forks."""
    for name in _DEFERRED:
        if name not in globals():
            __getattr__(name)


def _write(cfg: RunConfig, name: str, text: str, **summary) -> None:
    """Write text to the file ``name`` of ``cfg.out_dir``, then print one JSON line: the
    path and the summary."""
    path = Path(cfg.out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(json.dumps({"written": str(path), **summary}))


def _write_json(cfg: RunConfig, geom, name: str, payload: dict, **summary) -> None:
    meta = {"schema_version": SCHEMA_VERSION, "geometry_hash": geom.content_hash(),
            "seed": cfg.seed, "config": cfg.to_dict()}
    _write(cfg, name, json.dumps({**meta, **payload}, sort_keys=True, indent=1) + "\n", **summary)


def _write_csv(cfg: RunConfig, geom, name: str, header, rows, theta=None, **summary) -> None:
    at = "" if theta is None else f"theta={','.join(map(repr, theta))} "
    lines = [f"# hcbloch {Path(name).stem} schema={SCHEMA_VERSION} "
             f"geometry={geom.content_hash()} {at}seed={cfg.seed}", ",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    _write(cfg, name, "\n".join(lines) + "\n", **summary)


def _lambda_max(cfg: RunConfig, sweep) -> float:
    # above the highest computed eigenvalue, uncomputed branches may fill a "gap"
    top = float(max(record.eigenvalues[-1] for record in sweep.values()))
    if cfg.lambda_max is None:
        return float(0.999 * top)
    if cfg.lambda_max > top:
        raise ValidationError(
            f"spectrum.lambda_max={cfg.lambda_max} exceeds the highest computed Bloch "
            f"eigenvalue {top}; raise spectrum.m_max or lower lambda_max"
        )
    return float(cfg.lambda_max)


def cmd_geom_check(cfg: RunConfig, geom, grid, theta) -> int:
    payload = {
        "status": "ok", "geometry_hash": geom.content_hash(), "variant": geom.variant,
        "fiber_axes": list(geom.active_axes), "n": grid.n,
        "matrix_fraction": float(np.count_nonzero(grid.matrix_mask)) / grid.n**3,
        "fiber_measures": {str(a): grid.fiber_measure(a) for a in geom.active_axes},
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_cell(cfg: RunConfig, geom, grid, theta) -> int:
    solutions = [solve_cell_problem(grid, axis, tol=cfg.tol_linear) for axis in geom.active_axes]
    rows = [{"fiber": sol.axis, "a_hom": sol.a_hom, "discrete_measure": sol.discrete_measure,
             "residual": sol.residual, "off_axis_flux": {
                 str(j): axial_flux(grid, sol, j) for j in (1, 2, 3) if j != sol.axis}}
            for sol in solutions]
    _write_json(cfg, geom, "cell.json",
                {"solutions": rows, "effective_tensor": effective_tensor(solutions).tolist()})
    return 0


def _sweep(cfg: RunConfig, grid, theta=None, lift_tol=None):
    dim = int(np.count_nonzero(grid.matrix_mask))
    if cfg.m_max > dim:
        raise ValidationError(
            f"spectrum.m_max={cfg.m_max} exceeds the Bloch operator dimension {dim}"
        )
    # one theta is solved where the grid run solves it, so its numbers are the grid run's
    keep = None if theta is None else [as_quasi_momentum(theta)]
    sweep = theta_sweep(grid, theta_grid(cfg.theta_g) + (keep or []), m_max=cfg.m_max,
                        tol=cfg.tol_eigen, seed=cfg.seed, threads=cfg.threads,
                        lift_tol=lift_tol, keep=keep)
    # the summary's thetas: all of the sweep, and those solved (one per symmetry orbit)
    counts = {"points": len(sweep), "solved": sum(r.solved_at == t for t, r in sweep.items())}
    return sweep, counts


def cmd_bloch(cfg: RunConfig, geom, grid, theta) -> int:
    sweep, counts = _sweep(cfg, grid, theta)
    rows = [(*t, m, float(mu)) for t, record in sweep.items()
            for m, mu in enumerate(record.eigenvalues, start=1)]
    _write_csv(cfg, geom, "bands.csv", ["theta1", "theta2", "theta3", "m", "mu"], rows, **counts)
    return 0


def cmd_beta(cfg: RunConfig, geom, grid, theta) -> int:
    if theta is None:
        raise ValidationError("beta needs --theta t1,t2,t3: the quasi-momentum of its matrix")
    qm = as_quasi_momentum(theta)
    sweep, _ = _sweep(cfg, grid, qm, lift_tol=cfg.tol_linear)
    beta = sweep[qm.theta].beta
    if beta is None:
        raise EmptyActiveSetError(
            f"no active fiber axis at theta={qm.theta}; spatial operator is the zero map"
        )
    samples = np.linspace(0.0, _lambda_max(cfg, sweep), 400)
    samples = samples[beta.off_poles(samples, cfg.pole_guard)]
    header = ["lambda", *(f"{part}_beta_{i}{j}" for i in beta.active for j in beta.active
                          for part in ("re", "im"))]
    rows = [(float(lam), *(float(v) for z in mat.ravel() for v in (z.real, z.imag)))
            for lam, mat in zip(samples, beta(samples, pole_guard=cfg.pole_guard))]
    _write_csv(cfg, geom, "beta.csv", header, rows, qm.theta, active_axes=list(beta.active))
    return 0


def cmd_spectrum(cfg: RunConfig, geom, grid, theta) -> int:
    sweep, counts = _sweep(cfg, grid, lift_tol=cfg.tol_linear)
    lambda_max = _lambda_max(cfg, sweep)
    structure = pure_bloch_bands(sweep, lambda_max)
    a_hom = effective_tensor(
        [solve_cell_problem(grid, axis, tol=cfg.tol_linear) for axis in geom.active_axes]
    )
    spatial = [root for record in sweep.values() for root in spatial_points(
        record, a_hom, cfg.k_modes, lambda_max, L=cfg.torus_period, pole_guard=cfg.pole_guard)]
    payload = {
        "window": [0.0, lambda_max],
        "branch_intervals": [{"m": b.branches[0] + 1, "lo": b.lo, "hi": b.hi,
                              "theta_at_lo": list(b.theta_at_lo),
                              "theta_at_hi": list(b.theta_at_hi)}
                             for b in structure.branch_intervals],
        "bands": [{"lo": b.lo, "hi": b.hi, "branches": [m + 1 for m in b.branches]}
                  for b in structure.bands],
        "gaps": [list(g) for g in structure.gaps],
        "spatial": [{"theta": list(r.theta), "k": list(r.k_index), "lambda": r.lam,
                     "residual": r.residual, "bracket": list(r.bracket)} for r in spatial],
    }
    _write_json(cfg, geom, "spectrum.json", payload, **counts, bands=len(structure.bands),
                gaps=len(structure.gaps), spatial_points=len(spatial))
    return 0


def cmd_validate(cfg: RunConfig, geom, grid, theta) -> int:
    probe_theta = (0.0, 0.0, 0.0) if cfg.contrast == "double_porosity" else (np.pi, np.pi, np.pi)
    report = convergence_report(geom, cfg.p_cell, cfg.eps_K, theta=probe_theta,
                                k_index=cfg.validate_k_index, contrast=cfg.contrast,
                                tol=cfg.tol_linear, eigen_tol=cfg.tol_eigen, seed=cfg.seed)
    _write_json(cfg, geom, "validate.json", {"report": report.to_dict()}, passed=report.passed)
    return 0 if report.passed else 1


def _parse_theta(text: str | None):
    if text is None:
        return None
    _import_numerics()  # QuasiMomentum checks the range
    try:
        parts = tuple(float(v) for v in text.split(","))
        if len(parts) != 3:
            raise ValueError("needs three comma-separated values")
        return QuasiMomentum(parts)
    except ValueError as exc:
        raise ValidationError(f"--theta {text!r}: {exc}") from None


def _parse_eps(text: str | None):
    if text is None:
        return None
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"--eps {text!r}: {exc}") from None


# name -> (command, its flags beyond --config, --out, --threads and --seed)
_COMMANDS = {
    "geom-check": (cmd_geom_check, ()),
    "cell": (cmd_cell, ()),
    "bloch": (cmd_bloch, ("--theta",)),
    "beta": (cmd_beta, ("--theta", "--lambda-max")),
    "spectrum": (cmd_spectrum, ("--lambda-max",)),
    "validate": (cmd_validate, ("--eps",)),
}
_FLAGS = {
    "--theta": {"default": None, "help": "single quasi-momentum 't1,t2,t3'"},
    "--lambda-max": {"dest": "lambda_max", "type": float, "default": None},
    "--eps": {"default": None, "help": "comma-separated K list, e.g. 4,8"},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hcbloch",
        description="Band structure of high-contrast fibered composites and "
        "two-scale validation of the homogenized limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes of the theta sweep (overrides run.threads)")
        p.add_argument("--seed", type=int, default=None)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        cfg = with_overrides(
            cfg,
            threads=args.threads,
            seed=args.seed,
            lambda_max=getattr(args, "lambda_max", None),
            eps_K=_parse_eps(getattr(args, "eps", None)),
            out_dir=args.out,
        )
        return run_subcommand(args.command, cfg, theta=_parse_theta(getattr(args, "theta", None)))
    except HcBlochError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "violations"):
            payload["violations"] = exc.violations
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 2


def run_subcommand(command: str, cfg: RunConfig, theta=None) -> int:
    if command not in _COMMANDS:
        raise HcBlochError(f"unknown subcommand {command!r}")
    geom = build_geometry(cfg.geometry)
    # validate classifies only its own cell grid, at validate.p
    grid = None if command == "validate" else classify_nodes(geom, cfg.n)
    if command != "geom-check":
        _import_numerics()
    return _COMMANDS[command][0](cfg, geom, grid, theta)


def run(argv=None) -> int:
    """Process entry of ``python -m hcbloch.cli`` and the ``hcbloch`` script.

    Runs ``main``, then moves every tracked object into the GC's permanent
    generation, so the interpreter's exit leaves the import graph to the OS
    instead of collecting it object by object. Atexit handlers and stream
    flushes still run, and ``main`` closes every file it writes. In-process
    callers call ``main``, which does not freeze.
    """
    rc = main(argv)
    gc.freeze()
    return rc


if __name__ == "__main__":
    sys.exit(run())
