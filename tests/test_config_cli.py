import json
import os
from pathlib import Path

import pytest
import yaml

from hcbloch.cli import main
from hcbloch.config import RunConfig, parse_config_text
from hcbloch.errors import HcBlochError, ParseError, ValidationError

ROOT = Path(__file__).resolve().parents[1]

MINIMAL = """\
geometry:
  variant: fibered
  fibers:
    - {axis: 1, rect: [0.3, 0.7, 0.3, 0.7]}
grid:
  n: 16
"""

INCLUSION = """\
geometry:
  variant: compact_inclusion
  inclusion_box: [0.25, 0.75, 0.25, 0.75, 0.25, 0.75]
grid:
  n: 8
theta_grid:
  g: 2
spectrum:
  m_max: 4
"""


def test_minimal_config_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.n == 16
    assert cfg.m_max == 10
    assert cfg.theta_g == 4
    assert cfg.tol_eigen == 1e-8
    assert cfg.tol_linear == 1e-10
    assert cfg.pole_guard == 1e-6
    # one sweep worker process per usable CPU
    assert cfg.threads == (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1)


def test_validation_collects_all_violations():
    bad = MINIMAL.replace("n: 16", "n: 2") + "tolerances:\n  eigen: -1.0\n"
    with pytest.raises(ValidationError) as err:
        parse_config_text(bad)
    assert len(err.value.violations) == 2
    assert any("n" in v for v in err.value.violations)


def test_validation_rejects_small_p_and_non_integer_modes():
    bad = MINIMAL + (
        "spectrum:\n  k_modes: [[1.7, 0, 0]]\n"
        "validate:\n  k_mode: [0, 0.5, 0]\n  p: 2\n"
    )
    with pytest.raises(ValidationError) as err:
        parse_config_text(bad)
    assert len(err.value.violations) == 3
    for key in ("spectrum.k_modes", "validate.k_mode", "validate.p"):
        assert any(v.startswith(key) for v in err.value.violations), key


def test_integral_float_values_accepted():
    text = MINIMAL.replace("n: 16", "n: 16.0") + "spectrum:\n  k_modes: [[1.0, 0, 0]]\n"
    cfg = parse_config_text(text)
    assert cfg.n == 16 and cfg.k_modes == ((1, 0, 0),)


@pytest.mark.parametrize(
    "text, error, key",
    [
        (MINIMAL.replace("n: 16", "n: sixteen"), "ValidationError", "grid.n"),
        (MINIMAL.replace(", rect: [0.3, 0.7, 0.3, 0.7]", ""), "ParseError", "rect"),
        (MINIMAL.replace("  fibers:", "  a0: soft\n  fibers:"), "ValidationError", "geometry.a0"),
        (MINIMAL.replace("axis: 1", "axis: one"), "ValidationError", "geometry.fibers.axis"),
        (MINIMAL.replace("0.3, 0.7, 0.3, 0.7", "0.3, x, 0.3, 0.7"), "ValidationError",
         "geometry.fibers.rect"),
        (INCLUSION.replace("0.75, 0.25, 0.75]", "0.75, 0.25, x]"), "ValidationError",
         "geometry.inclusion_box"),
        (MINIMAL.replace("  fibers:", "  a1: .inf\n  fibers:"), "ValidationError", "geometry.a1"),
        (MINIMAL + "tolerances:\n  eigen: .inf\n", "ValidationError", "tolerances.eigen"),
        (MINIMAL + "tolerances:\n  linear: .inf\n", "ValidationError", "tolerances.linear"),
        (MINIMAL + "tolerances:\n  pole_guard: .inf\n", "ValidationError",
         "tolerances.pole_guard"),
        (MINIMAL + "validate:\n  residual_factor: 0.1\n", "ParseError", "residual_factor"),
        (MINIMAL + "validate:\n  monotone_slack: 0.1\n", "ParseError", "monotone_slack"),
        (MINIMAL + "output:\n  dir: null\n", "ValidationError", "output.dir"),
        (MINIMAL + "validate:\n  contrast: off\n", "ValidationError", "validate.contrast"),
        (MINIMAL + "spectrum:\n  torus_period: .inf\n", "ValidationError",
         "spectrum.torus_period"),
        (MINIMAL + "run:\n  seed: -3\n", "ValidationError", "run.seed"),
        ("geometry:\n  variant: fibered\n  fibers: 5\n", "ParseError", "geometry.fibers"),
    ],
    ids=["non_numeric_n", "fiber_without_rect", "non_numeric_a0", "non_numeric_axis",
         "non_numeric_rect", "non_numeric_inclusion_box", "infinite_a1", "infinite_tol_eigen",
         "infinite_tol_linear", "infinite_pole_guard", "removed_residual_factor",
         "removed_monotone_slack", "null_output_dir", "bare_off_contrast",
         "infinite_torus_period", "negative_seed", "fibers_not_a_list"],
)
def test_cli_malformed_value_exit2(tmp_path, capsys, text, error, key):
    path = tmp_path / "c.yml"
    path.write_text(text)
    assert main(["geom-check", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error
    assert key in err["message"]


@pytest.mark.parametrize(
    "argv, extra, keys",
    [
        (["validate", "--eps", "4,x"], "", ["--eps"]),
        (["validate", "--eps", "0"], "", ["validate.eps"]),
        (["validate", "--eps", "4,4"], "", ["validate.eps", "distinct"]),
        (["validate"], "validate:\n  eps: [8, 4, 8]\n", ["validate.eps", "distinct"]),
        (["bloch", "--theta", "0,a,0"], "", ["--theta"]),
        (["bloch", "--theta", "7,0,0"], "", ["--theta"]),
        (["bloch", "--theta", "nan,0,0"], "", ["--theta"]),
        (["beta", "--lambda-max", "nan"], "", ["spectrum.lambda_max"]),
        (["bloch", "--theta", "0,0,0"], "spectrum:\n  m_max: 5000\n", ["spectrum.m_max", "3312"]),
        (["bloch", "--theta", "0,0,0", "--seed", "-1"], "", ["run.seed"]),
        (["beta", "--theta", "0,0,0", "--lambda-max", "1e6"], "", ["spectrum.lambda_max"]),
        (["spectrum", "--lambda-max", "1e6"], "theta_grid:\n  g: 1\n", ["spectrum.lambda_max"]),
        (["spectrum"], "spectrum:\n  k_modes: [[1, 0, 0], [1, 0, 0]]\n",
         ["spectrum.k_modes", "distinct"]),
    ],
    ids=["eps_not_integer", "eps_zero", "eps_repeated_flag", "eps_repeated_key",
         "theta_not_real", "theta_out_of_range", "theta_nan", "lambda_max_nan",
         "m_max_above_dimension", "negative_seed", "beta_lambda_max_above_sweep",
         "spectrum_lambda_max_above_sweep", "k_modes_repeated"],
)
def test_cli_bad_flag_or_m_max_exit2(tmp_path, capsys, argv, extra, keys):
    path = tmp_path / "c.yml"
    path.write_text(MINIMAL + extra + "output:\n  dir: %s\n" % (tmp_path / "out"))
    assert main([argv[0], "--config", str(path), *argv[1:]]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert all(key in err["message"] for key in keys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, key",
    [
        (MINIMAL.replace("  fibers:", "  a0: true\n  fibers:"), "geometry.a0"),
        (MINIMAL + "theta_grid:\n  g: true\n", "theta_grid.g"),
        (MINIMAL + "spectrum:\n  m_max: yes\n", "spectrum.m_max"),
        (MINIMAL + "run:\n  threads: on\n", "run.threads"),
    ],
    ids=["a0", "theta_grid_g", "m_max", "threads"],
)
def test_yaml_boolean_is_not_a_number(text, key):
    with pytest.raises(ValidationError) as err:
        parse_config_text(text)
    assert any(v.startswith(key) for v in err.value.violations), err.value.violations


def test_bare_off_contrast_asks_for_quotes():
    with pytest.raises(ValidationError) as err:
        parse_config_text(MINIMAL + "validate:\n  contrast: off\n")
    [violation] = err.value.violations
    assert violation.startswith("validate.contrast") and '"off"' in violation


def test_unknown_key_rejected():
    bad = MINIMAL.replace("fibers:", "fibres:")
    with pytest.raises(ParseError) as err:
        parse_config_text(bad)
    assert "fibres" in str(err.value)


def test_unknown_fiber_key_rejected():
    bad = MINIMAL.replace("axis: 1,", "axes: 1,")
    with pytest.raises(ParseError):
        parse_config_text(bad)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_config_text("geometry: [unclosed\n  n: 16\n")
    assert err.value.line is not None


def test_round_trip_identity(tmp_path):
    cfg = parse_config_text(MINIMAL)
    again = parse_config_text(yaml.safe_dump(cfg.to_dict(), sort_keys=True))
    assert again == cfg


def test_every_key_maps_to_its_field():
    """Each of the 16 keys, set to a value no other key or default has,
    lands in its own RunConfig field and round-trips."""
    text = MINIMAL.replace("n: 16", "n: 12") + """\
theta_grid:
  g: 3
spectrum:
  m_max: 7
  lambda_max: 55.5
  k_modes: [[1, 2, 3], [0, 0, 4]]
  torus_period: 2.5
validate:
  eps: [9, 13]
  p: 6
  k_mode: [0, 2, 1]
  contrast: "off"
tolerances:
  eigen: 1.0e-7
  linear: 1.0e-9
  pole_guard: 1.0e-5
output:
  dir: elsewhere
run:
  threads: 5
  seed: 11
"""
    expected = {
        "n": 12, "theta_g": 3, "m_max": 7, "lambda_max": 55.5,
        "k_modes": ((1, 2, 3), (0, 0, 4)), "torus_period": 2.5, "eps_K": (9, 13), "p_cell": 6,
        "validate_k_index": (0, 2, 1), "contrast": "off", "tol_eigen": 1e-7, "tol_linear": 1e-9, "pole_guard": 1e-5,
        "out_dir": "elsewhere", "threads": 5, "seed": 11,
    }
    assert set(expected) == set(RunConfig.__dataclass_fields__) - {"geometry"}
    cfg = parse_config_text(text)
    for name, value in expected.items():
        assert value != getattr(RunConfig, name), name
        assert getattr(cfg, name) == value, name
    assert parse_config_text(yaml.safe_dump(cfg.to_dict(), sort_keys=True)) == cfg


def test_cli_geom_check_ok(tmp_path, capsys):
    path = tmp_path / "c.yml"
    path.write_text(MINIMAL)
    rc = main(["geom-check", "--config", str(path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "ok"
    assert out["fiber_axes"] == [1]


def test_cli_geom_check_overlap_exit2(tmp_path, capsys):
    bad = """\
geometry:
  variant: fibered
  fibers:
    - {axis: 1, rect: [0.4, 0.6, 0.4, 0.6]}
    - {axis: 2, rect: [0.4, 0.6, 0.4, 0.6]}
"""
    path = tmp_path / "c.yml"
    path.write_text(bad)
    rc = main(["geom-check", "--config", str(path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OverlapError"


def test_cli_cell_constant_coefficient(tmp_path, capsys):
    cfg_text = MINIMAL + "output:\n  dir: %s\n" % (tmp_path / "out")
    path = tmp_path / "c.yml"
    path.write_text(cfg_text)
    rc = main(["cell", "--config", str(path)])
    assert rc == 0
    payload = json.loads((tmp_path / "out" / "cell.json").read_text())
    sol = payload["solutions"][0]
    assert sol["fiber"] == 1
    assert abs(sol["a_hom"] - 1.0 * sol["discrete_measure"]) < 1e-12
    assert payload["schema_version"] == 1
    assert "geometry_hash" in payload


def test_cli_bloch_single_theta_and_reproducible(tmp_path):
    cfg_text = MINIMAL.replace("n: 16", "n: 8") + "output:\n  dir: %s\n" % (tmp_path / "out")
    path = tmp_path / "c.yml"
    path.write_text(cfg_text)
    assert main(["bloch", "--config", str(path), "--theta", "0,1.5707963267948966,0"]) == 0
    first = (tmp_path / "out" / "bands.csv").read_bytes()
    assert main(["bloch", "--config", str(path), "--theta", "0,1.5707963267948966,0"]) == 0
    assert (tmp_path / "out" / "bands.csv").read_bytes() == first
    lines = first.decode().splitlines()
    assert lines[1] == "theta1,theta2,theta3,m,mu"
    assert len(lines) == 2 + 10  # m_max rows


def test_cli_bloch_threads_bitwise_identical(tmp_path):
    base = MINIMAL.replace("n: 16", "n: 8") + "theta_grid:\n  g: 2\nspectrum:\n  m_max: 3\n"
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    p1, p2 = tmp_path / "c1.yml", tmp_path / "c2.yml"
    p1.write_text(base + f"output:\n  dir: {out1}\nrun:\n  threads: 1\n")
    p2.write_text(base + f"output:\n  dir: {out2}\nrun:\n  threads: 4\n")
    assert main(["bloch", "--config", str(p1)]) == 0
    assert main(["bloch", "--config", str(p2)]) == 0
    b1 = (out1 / "bands.csv").read_bytes()
    b2 = (out2 / "bands.csv").read_bytes()
    # identical numbers regardless of parallelism (metadata echoes threads)
    assert b1.split(b"\n", 1)[1] == b2.split(b"\n", 1)[1]


def _two_fibers_n8_g2(tmp_path):
    text = (ROOT / "configs" / "two_fibers.yml").read_text()
    text = text.replace("n: 16", "n: 8").replace("g: 4", "g: 2")
    path = tmp_path / "two_fibers.yml"
    path.write_text(text.replace("dir: out", f"dir: {tmp_path / 'out'}"))
    return str(path)


def test_cli_bloch_single_theta_rows_match_grid_rows(tmp_path):
    """`bloch --theta t` writes exactly the rows the grid run writes at t."""
    config = _two_fibers_n8_g2(tmp_path)
    bands = tmp_path / "out" / "bands.csv"
    assert main(["bloch", "--config", config]) == 0
    grid_rows = bands.read_text().splitlines()[2:]
    thetas = sorted({row.rsplit(",", 2)[0] for row in grid_rows})
    assert len(thetas) == 8
    for theta in thetas:
        assert main(["bloch", "--config", config, "--theta", theta]) == 0
        rows = bands.read_text().splitlines()[2:]
        assert rows == [row for row in grid_rows if row.rsplit(",", 2)[0] == theta]


@pytest.mark.parametrize("command", ["bloch", "beta"])
def test_cli_single_theta_failure_names_the_theta(tmp_path, capsys, monkeypatch, command):
    """A failed solve at `--theta` is reported as a failed sweep point: exit 2."""
    import hcbloch.bloch
    from hcbloch.errors import ConvergenceError

    def failing(*args, **kwargs):
        raise ConvergenceError("eigenpair 0 residual above tolerance")

    monkeypatch.setattr(hcbloch.bloch, "eigensolve", failing)
    config = _two_fibers_n8_g2(tmp_path)
    assert main([command, "--config", config, "--theta", "0,3.141592653589793,0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConvergenceError"
    assert err["message"] == ("theta sweep failed at 1 point(s): theta=(0.0, 3.141592653589793, "
                              "0.0): eigenpair 0 residual above tolerance")


def test_cli_sweep_program_fault_propagates(tmp_path, monkeypatch):
    """An exception outside HcBlochError is a fault of the program, not a failed
    sweep point: it leaves `main` with its type and traceback instead of exit 2."""
    import hcbloch.bloch

    def faulty(*args, **kwargs):
        raise TypeError("unexpected argument")

    monkeypatch.setattr(hcbloch.bloch, "eigensolve", faulty)
    config = _two_fibers_n8_g2(tmp_path)
    with pytest.raises(TypeError, match="unexpected argument"):
        main(["bloch", "--config", config, "--theta", "0,0,0", "--threads", "1"])


def test_cli_beta_csv(tmp_path):
    cfg_text = MINIMAL.replace("n: 16", "n: 8") + (
        "spectrum:\n  m_max: 6\noutput:\n  dir: %s\n" % (tmp_path / "out")
    )
    path = tmp_path / "c.yml"
    path.write_text(cfg_text)
    assert main(["beta", "--config", str(path), "--theta", "0,3.141592653589793,0"]) == 0
    lines = (tmp_path / "out" / "beta.csv").read_text().splitlines()
    assert lines[1] == "lambda,re_beta_11,im_beta_11"
    assert len(lines) > 300


def test_cli_beta_factors_once(tmp_path, monkeypatch):
    """The eigensolve and the lifts of `beta` share one factorization per sector block."""
    import scipy.sparse.linalg as spla

    from hcbloch.bloch import assemble_bloch
    from hcbloch.geometry import build_geometry, classify_nodes

    calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
    # n=14 puts the eight blocks of 163-343 DOFs on both sides of the dense crossover
    cfg_text = MINIMAL.replace("n: 16", "n: 14") + (
        "spectrum:\n  m_max: 4\noutput:\n  dir: %s\n" % (tmp_path / "out")
    )
    path = tmp_path / "c.yml"
    path.write_text(cfg_text)
    assert main(["beta", "--config", str(path), "--theta", "0,3.141592653589793,0"]) == 0
    cfg = parse_config_text(cfg_text)
    grid = classify_nodes(build_geometry(cfg.geometry), cfg.n)
    assert len(calls) == len(assemble_bloch(grid, (0.0, 3.141592653589793, 0.0)).blocks) == 8


def test_cli_beta_inactive_theta_is_an_error(tmp_path, capsys):
    cfg_text = MINIMAL.replace("n: 16", "n: 8") + "output:\n  dir: %s\n" % (tmp_path / "out")
    path = tmp_path / "c.yml"
    path.write_text(cfg_text)
    assert main(["beta", "--config", str(path), "--theta", "1,0,0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "EmptyActiveSetError"


def test_cli_spectrum_inclusion_point_bands(tmp_path):
    cfg_text = INCLUSION + "output:\n  dir: %s\n" % (tmp_path / "out")
    path = tmp_path / "c.yml"
    path.write_text(cfg_text)
    assert main(["spectrum", "--config", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    assert payload["spatial"] == []  # no fibers, no active axes
    for band in payload["branch_intervals"]:
        assert band["hi"] - band["lo"] <= 1e-12
    assert payload["gaps"]


def test_cli_spectrum_multiple_eigenvalue_is_one_band(tmp_path):
    """The copies of a triple eigenvalue, equal up to rounding, form one
    band with no gap inside it (double_porosity as shipped, g=2)."""
    config = Path(__file__).resolve().parents[1] / "configs" / "double_porosity.yml"
    assert main(["spectrum", "--config", str(config), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert [b["branches"] for b in payload["bands"]] == [[1], [2, 3, 4], [5, 6, 7], [8]]
    assert len(payload["gaps"]) == 4
    assert all(hi - lo > 1.0 for lo, hi in payload["gaps"])


def test_cli_validate_writes_report(tmp_path):
    cfg_text = (
        MINIMAL.replace("n: 16", "n: 8")
        + "validate:\n  eps: [2, 4]\n  p: 8\n  k_mode: [1, 0, 0]\n"
        + "output:\n  dir: %s\n" % (tmp_path / "out")
    )
    path = tmp_path / "c.yml"
    path.write_text(cfg_text)
    rc = main(["validate", "--config", str(path)])
    payload = json.loads((tmp_path / "out" / "validate.json").read_text())
    assert rc == 0 and payload["report"]["passed"] is True
    assert payload["report"]["cases"]
    assert payload["config"]["validate"]["eps"] == [2, 4]


def test_cli_validate_eps_override(tmp_path):
    cfg_text = (
        MINIMAL.replace("n: 16", "n: 8")
        + "validate:\n  eps: [2, 4]\n  p: 8\n"
        + "output:\n  dir: %s\n" % (tmp_path / "out")
    )
    path = tmp_path / "c.yml"
    path.write_text(cfg_text)
    rc = main(["validate", "--config", str(path), "--eps", "2"])
    payload = json.loads((tmp_path / "out" / "validate.json").read_text())
    assert len(payload["report"]["eps"]) == 1
    assert payload["config"]["validate"]["eps"] == [2]
    assert rc in (0, 1)  # single-eps run may fail the final-threshold gate


def test_cli_validate_probe_mode_uses_eigen_tol_and_seed(tmp_path, monkeypatch):
    """The Bloch probe of `validate` is solved at tolerances.eigen and the run's seed."""
    import inspect

    import hcbloch.validation

    calls = []
    bloch_eigs = hcbloch.validation.bloch_eigs

    def spy(*args, **kwargs):
        bound = inspect.signature(bloch_eigs).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((bound.arguments["tol"], bound.arguments["seed"]))
        return bloch_eigs(*args, **kwargs)

    monkeypatch.setattr(hcbloch.validation, "bloch_eigs", spy)
    cfg_text = (
        MINIMAL.replace("n: 16", "n: 8")
        + "validate:\n  p: 8\ntolerances:\n  eigen: 1.0e-9\n"
        + "output:\n  dir: %s\n" % (tmp_path / "out")
    )
    path = tmp_path / "c.yml"
    path.write_text(cfg_text)
    main(["validate", "--config", str(path), "--eps", "4", "--seed", "7"])
    assert calls == [(1e-9, 7)]


def test_cli_validate_does_not_classify_at_grid_n(tmp_path, capsys):
    """`validate` classifies only its own cell grid at validate.p: a grid.n
    too coarse for the fiber fails geom-check but not validate."""
    text = (ROOT / "configs" / "single_fiber.yml").read_text().replace("n: 16", "n: 4")
    text = text.replace("dir: out", "dir: %s" % (tmp_path / "out"))
    path = tmp_path / "c.yml"
    path.write_text(text)
    assert main(["geom-check", "--config", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ResolutionError"
    assert main(["validate", "--config", str(path), "--eps", "4"]) == 0


def test_run_subcommand_unknown_name():
    from hcbloch.cli import run_subcommand

    with pytest.raises(HcBlochError, match="unknown subcommand 'frob'"):
        run_subcommand("frob", parse_config_text(MINIMAL))


def test_run_subcommand_writes_to_the_config_dir(tmp_path):
    """The artefacts go to cfg.out_dir, the directory their echoed config names."""
    from hcbloch.cli import run_subcommand

    out = tmp_path / "elsewhere"
    cfg = parse_config_text(INCLUSION + f"output:\n  dir: {out}\n")
    assert run_subcommand("bloch", cfg) == 0
    assert (out / "bands.csv").is_file()


def test_cli_beta_needs_theta(tmp_path, capsys):
    """`beta` without --theta is an error, not a silent theta = 0."""
    config = _two_fibers_n8_g2(tmp_path)
    assert main(["beta", "--config", config]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "--theta" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bloch", "spectrum"])
def test_cli_summary_counts_solved_thetas(tmp_path, capsys, command):
    """two_fibers at g=2: 8 thetas, 6 solved (the glide maps (0, 0, pi) to
    (pi, 0, 0) and (0, pi, pi) to (pi, pi, 0))."""
    assert main([command, "--config", _two_fibers_n8_g2(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (summary["points"], summary["solved"]) == (8, 6)


def test_cli_unreadable_config_exit2(tmp_path, capsys):
    rc = main(["cell", "--config", str(tmp_path / "missing.yml")])
    assert rc == 2


def test_config_invalid_eps():
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL + "validate:\n  eps: []\n")
