"""The shipped outputs, pinned: every subcommand on every shipped config, at
n=8 and g=2, against its file in ``tests/golden/`` (``golden/regenerate.py``
runs the cases and rewrites the files).

Structure, counts, strings, theta lists and exit codes must match exactly.
Every other number must agree within RTOL = 1e-12 relative.  A refactor that
keeps the arithmetic gives the same bits, and one that reorders a sum moves a
result by a few ulps, far below RTOL; a change of the discrete model moves
the outputs in their leading digits.  Three kinds of number are compared
otherwise:

- ``validate.json`` pairings, and the limit each case pairs against, are
  compared absolutely, within RTOL times the case's ``scale``; each
  ``beta.csv`` row, one matrix beta(lambda), within RTOL times its largest
  entry.  A component that is zero up to rounding (an imaginary part, or
  the coupling of the two fibers of two_fibers) holds rounding noise, which
  no relative bound can pin.
- Numbers that are rounding noise by construction are checked against the
  bound they must meet, not against the stored value, which is one draw of
  that noise: each spatial root's ``residual`` |F(lambda)| (at most
  ROOT_RESIDUAL (1 + lambda)^a, with a active axes; F is a determinant of
  a x a matrices whose entries grow like lambda, so away from a root it is
  of order lambda^a), the cell problems' ``residual`` (at most
  ``tolerances.linear``, which the solve enforces) and ``off_axis_flux``
  (at most FLUX_RESIDUAL a_hom), and ``energy_identity_defect`` (at most
  ENERGY_DEFECT).
"""

import json

import pytest

from golden.regenerate import CASES, golden_path, run_case

RTOL = 1e-12
ROOT_RESIDUAL = 1e-10
FLUX_RESIDUAL = 1e-8
ENERGY_DEFECT = 1e-9
EXACT = {"theta", "theta_at_lo", "theta_at_hi", "theta1", "theta2", "theta3"}


def compare(new, old, where: str, errors: list, exact: bool = False, atol=None) -> None:
    """Append to ``errors`` each place where ``new`` differs from ``old``: floats
    within ``atol`` (else RTOL relative) unless ``exact``; all else exactly."""
    if isinstance(old, dict):
        if not isinstance(new, dict) or new.keys() != old.keys():
            errors.append(f"{where}: keys {sorted(new) if isinstance(new, dict) else new!r} "
                          f"!= {sorted(old)}")
            return
        for key in old:
            compare(new[key], old[key], f"{where}.{key}", errors, exact or key in EXACT, atol)
    elif isinstance(old, list):
        if not isinstance(new, list) or len(new) != len(old):
            errors.append(f"{where}: {len(new) if isinstance(new, list) else new!r} entries "
                          f"!= {len(old)}")
            return
        for i, (a, b) in enumerate(zip(new, old)):
            compare(a, b, f"{where}[{i}]", errors, exact, atol)
    elif isinstance(old, float) and isinstance(new, float) and not exact:
        tol = RTOL * max(abs(old), abs(new)) if atol is None else atol
        if not abs(new - old) <= tol:
            errors.append(f"{where}: {new!r} != {old!r}")
    elif type(new) is not type(old) or new != old:
        errors.append(f"{where}: {new!r} != {old!r}")


def _csv(lines: list) -> list:
    """The comment and header lines as text, then each row as a dict by column."""
    def value(text):
        return int(text) if text.lstrip("-").isdigit() else float(text)

    header = lines[1].split(",")
    return [*lines[:2], *({h: value(v) for h, v in zip(header, row.split(","))}
                          for row in lines[2:])]


def _take_noise(record: dict, errors: list) -> None:
    """Remove the rounding-noise numbers from ``record``'s artefacts, appending to
    ``errors`` each one that breaks its bound."""
    for name, payload in record["files"].items():
        if name == "spectrum.json":
            axes = [f["axis"] for f in payload["config"]["geometry"].get("fibers", [])]
            for root in payload["spatial"]:
                active = sum(root["theta"][axis - 1] == 0.0 for axis in axes)
                bound = ROOT_RESIDUAL * (1.0 + root["lambda"]) ** active
                if not root.pop("residual") <= bound:
                    errors.append(f"{name}: root residual above {bound:.1e} at {root}")
        elif name == "cell.json":
            tol = payload["config"]["tolerances"]["linear"]
            for sol in payload["solutions"]:
                if not sol.pop("residual") <= tol:
                    errors.append(f"{name}: fiber {sol['fiber']} residual above {tol}")
                flux = sol.pop("off_axis_flux")
                if not all(abs(v) <= FLUX_RESIDUAL * sol["a_hom"] for v in flux.values()):
                    errors.append(f"{name}: fiber {sol['fiber']} off-axis flux {flux}")
        elif name == "validate.json":
            defect = payload["report"].pop("energy_identity_defect")
            if not all(v <= ENERGY_DEFECT for v in defect.values()):
                errors.append(f"{name}: energy identity defect {defect}")
        else:
            record["files"][name] = _csv(payload)


def _take_scaled(new: dict, old: dict, errors: list) -> None:
    """Remove the ``validate.json`` pairings and limits and the ``beta.csv`` matrix
    entries from both records, appending to ``errors`` each that differs by more than
    RTOL times the scale of its case or matrix."""
    files = new["files"].keys() & old["files"].keys()
    if "validate.json" in files:
        cases = zip(new["files"]["validate.json"]["report"]["cases"],
                    old["files"]["validate.json"]["report"]["cases"])
        for a, b in cases:
            for key in ("pairings", "limit"):
                compare(a.pop(key), b.pop(key), f"{b['name']}.{key}", errors,
                        atol=RTOL * b["scale"])
    if "beta.csv" in files:
        rows = zip(new["files"]["beta.csv"][2:], old["files"]["beta.csv"][2:])
        for i, (a, b) in enumerate(rows):
            entries = [key for key in b if "_beta_" in key]
            scale = max(abs(b[key]) for key in entries)
            compare({key: a.pop(key, None) for key in entries}, {key: b.pop(key) for key in entries},
                    f"beta.csv row {i}", errors, atol=RTOL * scale)


@pytest.mark.parametrize("config, command", CASES, ids=[f"{c}-{m}" for c, m in CASES])
def test_outputs_match_golden(config, command):
    old = json.loads(golden_path(config, command).read_text(encoding="utf-8"))
    new = run_case(config, command)
    errors: list[str] = []
    _take_noise(new, errors)
    _take_noise(old, [])
    _take_scaled(new, old, errors)
    compare(new, old, f"{config}/{command}", errors)
    assert not errors, "\n".join(errors[:20])
