"""Run configuration: YAML parsing, strict validation, defaults, round-trip."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import yaml

from .errors import ParseError, ValidationError

SCHEMA_VERSION = 1

# The config file layout: section -> key -> (RunConfig field, kind).  It drives
# the schema check, the parse and RunConfig.to_dict.  The geometry section is
# kept as written in one mapping; of its keys only the reals a0 and a1 are checked.
_KEYS: dict[str, dict[str, tuple[str, str | None]]] = {
    "geometry": {"variant": ("geometry", None), "fibers": ("geometry", None),
                 "a0": ("geometry", "real"), "a1": ("geometry", "real"),
                 "inclusion_box": ("geometry", None)},
    "grid": {"n": ("n", "int")},
    "theta_grid": {"g": ("theta_g", "int")},
    "spectrum": {"m_max": ("m_max", "int"), "lambda_max": ("lambda_max", "real"),
                 "k_modes": ("k_modes", "int triples"), "torus_period": ("torus_period", "real")},
    "validate": {"eps": ("eps_K", "ints"), "p": ("p_cell", "int"),
                 "k_mode": ("validate_k_index", "ints"), "contrast": ("contrast", "text")},
    "tolerances": {"eigen": ("tol_eigen", "real"), "linear": ("tol_linear", "real"),
                   "pole_guard": ("pole_guard", "real")},
    "output": {"dir": ("out_dir", "text")},
    "run": {"threads": ("threads", "int"), "seed": ("seed", "int")},
}
_FIBER_KEYS = {"axis", "rect"}

# run.threads counts the sweep's worker processes; by default one per CPU this
# process may run on, where workers can be forked, and 1 elsewhere.
_USABLE_CPUS = (len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1)


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
    tol_eigen: float = 1e-8
    tol_linear: float = 1e-10
    pole_guard: float = 1e-6
    out_dir: str = "out"
    threads: int = _USABLE_CPUS
    seed: int = 0

    def to_dict(self) -> dict:
        """Nested mapping in the config-file layout (round-trips exactly)."""
        out = {section: {key: _plain(getattr(self, name)) for key, (name, _) in keys.items()}
               for section, keys in _KEYS.items() if section != "geometry"}
        return {"geometry": dict(self.geometry), **out}


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
        if section not in _KEYS:
            raise ParseError(f"unknown section {section!r}")
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ParseError(f"section {section!r} must be a mapping")
        for key in content:
            if key not in _KEYS[section]:
                raise ParseError(f"unknown key {key!r} in section {section!r}")
    fibers = (raw.get("geometry") or {}).get("fibers") or []
    if not isinstance(fibers, list):
        raise ParseError(f"geometry.fibers must be a list of fiber mappings, got {fibers!r}")
    for entry in fibers:
        if not isinstance(entry, dict):
            raise ParseError("each fiber must be a mapping with keys 'axis' and 'rect'")
        for key in entry:
            if key not in _FIBER_KEYS:
                raise ParseError(f"unknown key {key!r} in a fiber entry")
        missing = _FIBER_KEYS - entry.keys()
        if missing:
            raise ParseError(f"fiber entry lacks key {min(missing)!r}")

    violations: list[str] = []
    fields = {"geometry": raw.get("geometry") or {"variant": "fibered", "fibers": []}}
    for section, keys in _KEYS.items():
        content = raw.get(section) or {}
        for key, (name, kind) in keys.items():
            if name != "geometry":
                default = getattr(RunConfig, name)
                fields[name] = _read(kind, content.get(key, default), f"{section}.{key}",
                                     violations, default)
            elif kind:  # checked only: the geometry mapping is kept as written
                _read(kind, content.get(key, 1.0), f"{section}.{key}", violations, 1.0)
    cfg = RunConfig(**fields)
    _validate(cfg, violations)
    return cfg


def _read(kind: str, value, name: str, violations: list[str], default):
    """The RunConfig value of a config value of the given _KEYS kind."""
    if kind == "text":
        if isinstance(value, str):
            return value
        hint = ' (quote it, as in "off": YAML reads a bare off, on, no or yes as a boolean)'
        violations.append(f"{name} must be a string, got {value!r}"
                          + (hint if isinstance(value, bool) else ""))
        return default
    if kind == "ints":
        return _integers(value, name, violations)
    if kind == "int triples":
        modes = value if isinstance(value, (list, tuple)) else [value]
        return tuple(_integers(k, name, violations) for k in modes)
    if value is None and default is None:  # an optional value left unset
        return None
    return _convert(int if kind == "int" else float, value, name, violations, default)


def _plain(value):
    """Tuples as lists, for the file layout."""
    return [_plain(v) for v in value] if isinstance(value, (list, tuple)) else value


def _convert(kind, value, name: str, violations: list[str], default=0):
    """value as kind (int or float); else default, with a violation recorded.

    An int must be integral: 1.7 is reported, not truncated to 1.  A real
    must be finite: .inf and .nan are reported.  A YAML boolean is neither,
    though Python counts True as 1.
    """
    try:
        out = kind(value)
        if not isinstance(value, bool) and out == float(value) and math.isfinite(out):
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
    for name, value, least in (("grid.n", cfg.n, 4), ("theta_grid.g", cfg.theta_g, 1),
                               ("spectrum.m_max", cfg.m_max, 1)):
        if value < least:
            violations.append(f"{name} must be >= {least}, got {value}")
    if cfg.lambda_max is not None and not 0.0 < cfg.lambda_max < float("inf"):
        violations.append(f"spectrum.lambda_max must be finite and > 0, got {cfg.lambda_max}")
    for name, value in (("spectrum.torus_period", cfg.torus_period),
                        ("tolerances.eigen", cfg.tol_eigen), ("tolerances.linear", cfg.tol_linear),
                        ("tolerances.pole_guard", cfg.pole_guard)):
        if value <= 0.0:
            violations.append(f"{name} must be > 0, got {value}")
    if any(K < 1 for K in cfg.eps_K) or not cfg.eps_K or len(set(cfg.eps_K)) < len(cfg.eps_K):
        violations.append(f"validate.eps must be a nonempty list of distinct K >= 1, got "
                          f"{list(cfg.eps_K)}")
    if cfg.p_cell < 4:
        violations.append(f"validate.p must be >= 4, got {cfg.p_cell}")
    if cfg.contrast not in ("double_porosity", "off"):
        violations.append(f"validate.contrast must be double_porosity or off, got {cfg.contrast}")
    if cfg.threads < 1:
        violations.append(f"run.threads must be >= 1, got {cfg.threads}")
    if cfg.seed < 0:
        violations.append(f"run.seed must be >= 0, got {cfg.seed}")
    if any(len(k) != 3 for k in cfg.k_modes) or len(set(cfg.k_modes)) < len(cfg.k_modes):
        violations.append(f"spectrum.k_modes must be distinct integer triples, got "
                          f"{_plain(cfg.k_modes)}")
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
