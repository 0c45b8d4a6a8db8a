import json

import pytest

from hcbloch.cli import main
from hcbloch.config import parse_config_text
from hcbloch.errors import ParseError, ValidationError

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


def test_validation_collects_all_violations():
    bad = MINIMAL.replace("n: 16", "n: 2") + "tolerances:\n  eigen: -1.0\n"
    with pytest.raises(ValidationError) as err:
        parse_config_text(bad)
    assert len(err.value.violations) == 2
    assert any("n" in v for v in err.value.violations)


def test_validation_rejects_negative_slack_and_non_integer_modes():
    bad = MINIMAL + (
        "spectrum:\n  k_modes: [[1.7, 0, 0]]\n"
        "validate:\n  k_mode: [0, 0.5, 0]\n  monotone_slack: -0.1\n"
    )
    with pytest.raises(ValidationError) as err:
        parse_config_text(bad)
    assert len(err.value.violations) == 3
    for key in ("spectrum.k_modes", "validate.k_mode", "validate.monotone_slack"):
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
    ],
    ids=["non_numeric_n", "fiber_without_rect", "non_numeric_a0"],
)
def test_cli_malformed_value_exit2(tmp_path, capsys, text, error, key):
    path = tmp_path / "c.yml"
    path.write_text(text)
    assert main(["geom-check", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error
    assert key in err["message"]


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
    again = parse_config_text(cfg.to_yaml())
    assert again == cfg


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
    """The eigensolve and the lifts of `beta` share one factorization."""
    import scipy.sparse.linalg as spla

    calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
    # n=14 puts the soft-phase operator above the dense cutoff: ARPACK runs
    cfg_text = MINIMAL.replace("n: 16", "n: 14") + (
        "spectrum:\n  m_max: 4\noutput:\n  dir: %s\n" % (tmp_path / "out")
    )
    path = tmp_path / "c.yml"
    path.write_text(cfg_text)
    assert main(["beta", "--config", str(path), "--theta", "0,3.141592653589793,0"]) == 0
    assert len(calls) == 1


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
    assert rc in (0, 1)  # single-eps run may fail the final-threshold gate


def test_cli_unreadable_config_exit2(tmp_path, capsys):
    rc = main(["cell", "--config", str(tmp_path / "missing.yml")])
    assert rc == 2


def test_config_invalid_eps():
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL + "validate:\n  eps: []\n")
