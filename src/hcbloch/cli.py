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


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows, meta: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {meta}", ",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _meta(cfg: RunConfig, geom) -> dict:
    return {"schema_version": SCHEMA_VERSION, "geometry_hash": geom.content_hash(),
            "seed": cfg.seed, "config": cfg.to_dict()}


def _lambda_max(cfg: RunConfig, sweep) -> float:
    # above the highest computed eigenvalue, uncomputed branches may fill a "gap"
    top = float(max(dec.eigenvalues[-1] for dec in sweep.values()))
    if cfg.lambda_max is None:
        return float(0.999 * top)
    if cfg.lambda_max > top:
        raise ValidationError(
            f"spectrum.lambda_max={cfg.lambda_max} exceeds the highest computed Bloch "
            f"eigenvalue {top}; raise spectrum.m_max or lower lambda_max"
        )
    return float(cfg.lambda_max)


def cmd_geom_check(cfg: RunConfig, out_dir: Path) -> int:
    geom = build_geometry(cfg.geometry)
    grid = classify_nodes(geom, cfg.n)
    payload = {
        "status": "ok",
        "geometry_hash": geom.content_hash(),
        "variant": geom.variant,
        "fiber_axes": list(geom.active_axes),
        "n": grid.n,
        "matrix_fraction": float(np.count_nonzero(grid.matrix_mask)) / grid.n**3,
        "fiber_measures": {str(a): grid.fiber_measure(a) for a in geom.active_axes},
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_cell(cfg: RunConfig, out_dir: Path) -> int:
    geom = build_geometry(cfg.geometry)
    grid = classify_nodes(geom, cfg.n)
    solutions = [solve_cell_problem(grid, axis, tol=cfg.tol_linear) for axis in geom.active_axes]
    tensor = effective_tensor(solutions)
    payload = _meta(cfg, geom)
    payload["solutions"] = [
        {
            "fiber": sol.axis,
            "a_hom": sol.a_hom,
            "discrete_measure": sol.discrete_measure,
            "residual": sol.residual,
            "off_axis_flux": {str(j): axial_flux(grid, sol, j) for j in (1, 2, 3) if j != sol.axis},
        }
        for sol in solutions
    ]
    payload["effective_tensor"] = tensor.tolist()
    _write_json(out_dir / "cell.json", payload)
    print(json.dumps({"written": str(out_dir / "cell.json")}))
    return 0


def _sweep(cfg: RunConfig, grid, theta_override=None, lift_tol=None):
    dim = int(np.count_nonzero(grid.matrix_mask))
    if cfg.m_max > dim:
        raise ValidationError(
            f"spectrum.m_max={cfg.m_max} exceeds the Bloch operator dimension {dim}"
        )
    thetas = (theta_grid(cfg.theta_g) if theta_override is None
              else [as_quasi_momentum(theta_override)])
    return theta_sweep(
        grid,
        thetas,
        m_max=cfg.m_max,
        tol=cfg.tol_eigen,
        seed=cfg.seed,
        threads=cfg.threads,
        lift_tol=lift_tol,
    )


def cmd_bloch(cfg: RunConfig, out_dir: Path, theta_override=None) -> int:
    geom = build_geometry(cfg.geometry)
    grid = classify_nodes(geom, cfg.n)
    sweep = _sweep(cfg, grid, theta_override)
    rows = []
    for theta, dec in sweep.items():
        for m, mu in enumerate(dec.eigenvalues, start=1):
            rows.append((theta[0], theta[1], theta[2], m, float(mu)))
    meta = f"hcbloch bands schema={SCHEMA_VERSION} geometry={geom.content_hash()} seed={cfg.seed}"
    _write_csv(out_dir / "bands.csv", ["theta1", "theta2", "theta3", "m", "mu"], rows, meta)
    print(json.dumps({"written": str(out_dir / "bands.csv"), "points": len(sweep)}))
    return 0


def cmd_beta(cfg: RunConfig, out_dir: Path, theta_override=None) -> int:
    geom = build_geometry(cfg.geometry)
    grid = classify_nodes(geom, cfg.n)
    qm = as_quasi_momentum(theta_override)
    sweep = _sweep(cfg, grid, qm, lift_tol=cfg.tol_linear)
    beta = sweep[qm.theta].beta
    if beta is None:
        raise EmptyActiveSetError(
            f"no active fiber axis at theta={qm.theta}; spatial operator is the zero map"
        )
    samples = np.linspace(0.0, _lambda_max(cfg, sweep), 400)
    samples = samples[beta.off_poles(samples, cfg.pole_guard)]
    header = ["lambda"]
    for i in beta.active:
        for j in beta.active:
            header += [f"re_beta_{i}{j}", f"im_beta_{i}{j}"]
    rows = []
    for lam, mat in zip(samples, beta(samples, pole_guard=cfg.pole_guard)):
        row = [float(lam)]
        for a in range(len(beta.active)):
            for b in range(len(beta.active)):
                row += [float(mat[a, b].real), float(mat[a, b].imag)]
        rows.append(tuple(row))
    meta = (
        f"hcbloch beta schema={SCHEMA_VERSION} geometry={geom.content_hash()} "
        f"theta={','.join(repr(t) for t in qm.theta)} seed={cfg.seed}"
    )
    _write_csv(out_dir / "beta.csv", header, rows, meta)
    print(json.dumps({"written": str(out_dir / "beta.csv"), "active_axes": list(beta.active)}))
    return 0


def cmd_spectrum(cfg: RunConfig, out_dir: Path) -> int:
    geom = build_geometry(cfg.geometry)
    grid = classify_nodes(geom, cfg.n)
    sweep = _sweep(cfg, grid, lift_tol=cfg.tol_linear)
    lambda_max = _lambda_max(cfg, sweep)
    structure = pure_bloch_bands(sweep, lambda_max)

    a_hom = effective_tensor(
        [solve_cell_problem(grid, axis, tol=cfg.tol_linear) for axis in geom.active_axes]
    )
    spatial = []
    for dec in sweep.values():
        spatial.extend(
            spatial_points(dec, a_hom, cfg.k_modes, lambda_max, L=cfg.torus_period,
                           pole_guard=cfg.pole_guard)
        )

    payload = _meta(cfg, geom)
    payload.update(
        {
            "window": [0.0, lambda_max],
            "branch_intervals": [
                {
                    "m": b.branches[0] + 1,
                    "lo": b.lo,
                    "hi": b.hi,
                    "theta_at_lo": list(b.theta_at_lo),
                    "theta_at_hi": list(b.theta_at_hi),
                }
                for b in structure.branch_intervals
            ],
            "bands": [
                {"lo": b.lo, "hi": b.hi, "branches": [m + 1 for m in b.branches]}
                for b in structure.bands
            ],
            "gaps": [list(g) for g in structure.gaps],
            "spatial": [
                {
                    "theta": list(r.theta),
                    "k": list(r.k_index),
                    "lambda": r.lam,
                    "residual": r.residual,
                    "bracket": list(r.bracket),
                }
                for r in spatial
            ],
        }
    )
    _write_json(out_dir / "spectrum.json", payload)
    print(json.dumps({"written": str(out_dir / "spectrum.json"), "bands": len(structure.bands),
                      "gaps": len(structure.gaps), "spatial_points": len(spatial)}))
    return 0


def cmd_validate(cfg: RunConfig, out_dir: Path) -> int:
    geom = build_geometry(cfg.geometry)
    probe_theta = (0.0, 0.0, 0.0) if cfg.contrast == "double_porosity" else (np.pi, np.pi, np.pi)
    report = convergence_report(
        geom,
        cfg.p_cell,
        cfg.eps_K,
        theta=probe_theta,
        k_index=cfg.validate_k_index,
        contrast=cfg.contrast,
        tol=cfg.tol_linear,
        eigen_tol=cfg.tol_eigen,
        seed=cfg.seed,
    )
    payload = _meta(cfg, geom)
    payload["report"] = report.to_dict()
    _write_json(out_dir / "validate.json", payload)
    print(json.dumps({"written": str(out_dir / "validate.json"), "passed": report.passed}))
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hcbloch",
        description="Band structure of high-contrast fibered composites and "
        "two-scale validation of the homogenized limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("geom-check", "cell", "bloch", "beta", "spectrum", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes of the theta sweep (overrides run.threads)")
        p.add_argument("--seed", type=int, default=None)
        if name in ("bloch", "beta"):
            p.add_argument("--theta", default=None, help="single quasi-momentum 't1,t2,t3'")
        if name in ("beta", "spectrum"):
            p.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
        if name == "validate":
            p.add_argument("--eps", default=None, help="comma-separated K list, e.g. 4,8")
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
        out_dir = Path(cfg.out_dir)
        return run_subcommand(args.command, cfg, out_dir,
                              theta=_parse_theta(getattr(args, "theta", None)))
    except HcBlochError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "violations"):
            payload["violations"] = exc.violations
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 2


def run_subcommand(command: str, cfg: RunConfig, out_dir: Path, theta=None) -> int:
    if command == "geom-check":
        return cmd_geom_check(cfg, out_dir)
    _import_numerics()
    if command == "cell":
        return cmd_cell(cfg, out_dir)
    if command == "bloch":
        return cmd_bloch(cfg, out_dir, theta_override=theta)
    if command == "beta":
        return cmd_beta(cfg, out_dir, theta_override=theta)
    if command == "spectrum":
        return cmd_spectrum(cfg, out_dir)
    if command == "validate":
        return cmd_validate(cfg, out_dir)
    raise HcBlochError(f"unknown subcommand {command!r}")


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
