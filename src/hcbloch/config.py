"""Run configuration: YAML parsing, strict validation, defaults, round-trip."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import yaml

from .errors import ParseError, ValidationError

SCHEMA_VERSION = 1

# section -> allowed keys
_SCHEMA: dict[str, set[str]] = {
    "geometry": {"variant", "fibers", "a0", "a1", "inclusion_box"},
    "grid": {"n"},
    "theta_grid": {"g"},
    "spectrum": {"m_max", "lambda_max", "k_modes", "torus_period"},
    "validate": {"eps", "p", "k_mode", "contrast", "residual_factor", "monotone_slack"},
    "tolerances": {"eigen", "linear", "pole_guard"},
    "output": {"dir"},
    "run": {"threads", "seed"},
}
_FIBER_KEYS = {"axis", "rect"}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for all CLI subcommands."""

    geometry: dict
    n: int = 16
    theta_g: int = 4
    m_max: int = 10
    lambda_max: float | None = None
    k_modes: tuple[tuple[int, int, int], ...] = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    torus_period: float = 1.0
    eps_K: tuple[int, ...] = (4, 8)
    p_cell: int = 8
    validate_k_index: tuple[int, int, int] = (1, 0, 0)
    contrast: str = "double_porosity"
    residual_factor: float = 0.1
    monotone_slack: float = 0.1
    tol_eigen: float = 1e-8
    tol_linear: float = 1e-10
    pole_guard: float = 1e-6
    out_dir: str = "out"
    threads: int = 1
    seed: int = 0

    def to_dict(self) -> dict:
        """Nested mapping in the config-file layout (round-trips exactly)."""
        geometry = {k: v for k, v in self.geometry.items()}
        return {
            "geometry": geometry,
            "grid": {"n": self.n},
            "theta_grid": {"g": self.theta_g},
            "spectrum": {
                "m_max": self.m_max,
                "lambda_max": self.lambda_max,
                "k_modes": [list(k) for k in self.k_modes],
                "torus_period": self.torus_period,
            },
            "validate": {
                "eps": list(self.eps_K),
                "p": self.p_cell,
                "k_mode": list(self.validate_k_index),
                "contrast": self.contrast,
                "residual_factor": self.residual_factor,
                "monotone_slack": self.monotone_slack,
            },
            "tolerances": {
                "eigen": self.tol_eigen,
                "linear": self.tol_linear,
                "pole_guard": self.pole_guard,
            },
            "output": {"dir": self.out_dir},
            "run": {"threads": self.threads, "seed": self.seed},
        }

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True)


def parse_config(path: str) -> RunConfig:
    """Load, schema-check and validate a YAML config file.

    Unknown keys raise ParseError naming the key; value violations are
    collected and raised together as one ValidationError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def parse_config_text(text: str) -> RunConfig:
    try:
        raw = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        line = mark.line + 1 if mark else None
        col = mark.column + 1 if mark else None
        raise ParseError(f"config syntax error at line {line}, column {col}: {exc.problem}",
                         line=line, column=col) from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"config syntax error: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ParseError("config root must be a mapping of sections")

    for section, content in raw.items():
        if section not in _SCHEMA:
            raise ParseError(f"unknown section {section!r}")
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ParseError(f"section {section!r} must be a mapping")
        for key in content:
            if key not in _SCHEMA[section]:
                raise ParseError(f"unknown key {key!r} in section {section!r}")
    for entry in (raw.get("geometry") or {}).get("fibers") or []:
        if not isinstance(entry, dict):
            raise ParseError("each fiber must be a mapping with keys 'axis' and 'rect'")
        for key in entry:
            if key not in _FIBER_KEYS:
                raise ParseError(f"unknown key {key!r} in a fiber entry")
        missing = _FIBER_KEYS - entry.keys()
        if missing:
            raise ParseError(f"fiber entry lacks key {min(missing)!r}")

    def sect(name):
        return raw.get(name) or {}

    violations: list[str] = []

    def get(kind, section, key, default):
        value = sect(section).get(key, default)
        if value is None and default is None:  # an optional value left unset
            return None
        return _convert(kind, value, f"{section}.{key}", violations, default)

    for key in ("a0", "a1"):  # checked only: the geometry mapping is kept as written
        _convert(float, sect("geometry").get(key, 1.0), f"geometry.{key}", violations)
    modes = sect("spectrum").get("k_modes", [list(k) for k in RunConfig.k_modes])
    cfg = RunConfig(
        geometry=sect("geometry") or {"variant": "fibered", "fibers": []},
        n=get(int, "grid", "n", RunConfig.n),
        theta_g=get(int, "theta_grid", "g", RunConfig.theta_g),
        m_max=get(int, "spectrum", "m_max", RunConfig.m_max),
        lambda_max=get(float, "spectrum", "lambda_max", None),
        k_modes=tuple(_integers(k, "spectrum.k_modes", violations)
                      for k in (modes if isinstance(modes, (list, tuple)) else [modes])),
        torus_period=get(float, "spectrum", "torus_period", RunConfig.torus_period),
        eps_K=_integers(sect("validate").get("eps", list(RunConfig.eps_K)), "validate.eps",
                        violations),
        p_cell=get(int, "validate", "p", RunConfig.p_cell),
        validate_k_index=_integers(sect("validate").get("k_mode", list(RunConfig.validate_k_index)),
                                   "validate.k_mode", violations),
        contrast=str(sect("validate").get("contrast", RunConfig.contrast)),
        residual_factor=get(float, "validate", "residual_factor", RunConfig.residual_factor),
        monotone_slack=get(float, "validate", "monotone_slack", RunConfig.monotone_slack),
        tol_eigen=get(float, "tolerances", "eigen", RunConfig.tol_eigen),
        tol_linear=get(float, "tolerances", "linear", RunConfig.tol_linear),
        pole_guard=get(float, "tolerances", "pole_guard", RunConfig.pole_guard),
        out_dir=str(sect("output").get("dir", RunConfig.out_dir)),
        threads=get(int, "run", "threads", RunConfig.threads),
        seed=get(int, "run", "seed", RunConfig.seed),
    )
    _validate(cfg, violations)
    return cfg


def _convert(kind, value, name: str, violations: list[str], default=0):
    """value as kind (int or float); else default, with a violation recorded.

    An int must be integral: 1.7 is reported, not truncated to 1.  A real
    must be finite: .inf and .nan are reported.
    """
    try:
        out = kind(value)
        if out == float(value) and math.isfinite(out):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    expected = "an integer" if kind is int else "a finite real number"
    violations.append(f"{name} must be {expected}, got {value!r}")
    return default


def _integers(values, name: str, violations: list[str]) -> tuple[int, ...]:
    if isinstance(values, (list, tuple)):
        return tuple(_convert(int, v, name, violations) for v in values)
    violations.append(f"{name} must be a list of integers, got {values!r}")
    return ()


def _validate(cfg: RunConfig, violations=()) -> None:
    """Raise one ValidationError listing ``violations`` and every invariant cfg breaks."""
    violations = list(violations)
    if cfg.n < 4:
        violations.append(f"grid.n must be >= 4, got {cfg.n}")
    if cfg.theta_g < 1:
        violations.append(f"theta_grid.g must be >= 1, got {cfg.theta_g}")
    if cfg.m_max < 1:
        violations.append(f"spectrum.m_max must be >= 1, got {cfg.m_max}")
    if cfg.lambda_max is not None and not 0.0 < cfg.lambda_max < float("inf"):
        violations.append(f"spectrum.lambda_max must be finite and > 0, got {cfg.lambda_max}")
    if cfg.torus_period <= 0.0:
        violations.append(f"spectrum.torus_period must be > 0, got {cfg.torus_period}")
    for name, value in (
        ("tolerances.eigen", cfg.tol_eigen),
        ("tolerances.linear", cfg.tol_linear),
        ("tolerances.pole_guard", cfg.pole_guard),
    ):
        if value <= 0.0:
            violations.append(f"{name} must be > 0, got {value}")
    if any(K < 1 for K in cfg.eps_K) or not cfg.eps_K:
        violations.append(f"validate.eps must be a nonempty list of K >= 1, got {list(cfg.eps_K)}")
    if cfg.p_cell < 4:
        violations.append(f"validate.p must be >= 4, got {cfg.p_cell}")
    if cfg.contrast not in ("double_porosity", "off"):
        violations.append(f"validate.contrast must be double_porosity or off, got {cfg.contrast}")
    if cfg.residual_factor <= 0.0:
        violations.append(f"validate.residual_factor must be > 0, got {cfg.residual_factor}")
    if cfg.monotone_slack < 0.0:
        violations.append(f"validate.monotone_slack must be >= 0, got {cfg.monotone_slack}")
    if cfg.threads < 1:
        violations.append(f"run.threads must be >= 1, got {cfg.threads}")
    if cfg.seed < 0:
        violations.append(f"run.seed must be >= 0, got {cfg.seed}")
    if any(len(k) != 3 for k in cfg.k_modes):
        violations.append("spectrum.k_modes entries must be integer triples")
    if len(cfg.validate_k_index) != 3:
        violations.append("validate.k_mode must be an integer triple")
    if violations:
        raise ValidationError(violations)


def with_overrides(cfg: RunConfig, **kwargs) -> RunConfig:
    """Apply CLI-flag overrides and re-validate."""
    updates = {k: v for k, v in kwargs.items() if v is not None}
    out = replace(cfg, **updates)
    _validate(out)
    return out
