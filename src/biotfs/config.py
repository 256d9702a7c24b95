"""Experiment configuration: sectioned key-value files, defaults, hashing.

The file format is INI-style with the sections material, temporal, mesh,
solver, sweep and spectral. Every section and key is optional; omitted
values fall back to the benchmark defaults (granite-like Lame parameters,
incompressible and impermeable limit, ten implicit Euler steps of 0.1).

One table, _FIELDS, names every key once. It drives the rejection of
unknown sections and keys, the parse (numbers must be finite), and
canonical_text, whose digest config_hash records which inputs produced a
run. Each value is validated by the dataclass that holds it. The command
line's --L, --mode and --seed are raw values of [solver] L, [spectral] mode
and [spectral] seed that `override` applies through the same table, so the
hash covers them too.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, replace

from .assembly import MaterialParams
from .solver import SolverConfig, TimeGrid


class ConfigError(ValueError):
    """Invalid experiment configuration (unknown key, bad value, ...)."""


@dataclass(frozen=True)
class SweepGrid:
    """Stabilization sweep specified linearly in D = alpha^2 / L."""

    d_min: float
    d_max: float
    count: int

    def __post_init__(self):
        if not 0.0 < self.d_min < self.d_max:
            raise ConfigError(
                f"sweep bounds must satisfy 0 < d_min < d_max, got "
                f"[{self.d_min}, {self.d_max}]"
            )
        if self.count < 2:
            raise ConfigError(f"sweep count must be at least 2, got {self.count}")

    def values(self):
        import numpy as np

        return np.linspace(self.d_min, self.d_max, self.count)


@dataclass(frozen=True)
class SpectralConfig:
    """Spectral estimator controls; mode picks the default tolerance."""

    mode: str = "fine"
    tol: float | None = None
    maxit: int = 50000
    seed: int = 1

    def __post_init__(self):
        if self.mode not in ("fine", "coarse"):
            raise ConfigError(f"spectral mode must be fine or coarse, got {self.mode!r}")
        if self.tol is not None and self.tol <= 0.0:
            raise ConfigError(f"spectral tol must be positive, got {self.tol}")
        if self.maxit < 1:
            raise ConfigError(f"spectral maxit must be at least 1, got {self.maxit}")
        if self.seed < 0:
            raise ConfigError(f"spectral seed must be nonnegative, got {self.seed}")

    @property
    def resolved_tol(self) -> float:
        if self.tol is not None:
            return self.tol
        return 1e-8 if self.mode == "fine" else 1e-3


@dataclass(frozen=True)
class ExperimentConfig:
    material: MaterialParams
    temporal: TimeGrid
    mesh_ns: tuple
    eps_r: float = 1e-6
    max_iter: int = 1000
    L: object = "optimal"  # float or the string "optimal"
    sources: str = "manufactured"  # or "zero"
    sweep: SweepGrid = SweepGrid(0.6e11, 1.6e11, 31)
    spectral: SpectralConfig = SpectralConfig()

    def __post_init__(self):
        if not self.mesh_ns or min(self.mesh_ns) < 2:
            raise ConfigError(f"mesh sizes must be integers of at least 2, got {self.mesh_ns}")
        if len(set(self.mesh_ns)) != len(self.mesh_ns):
            raise ConfigError(f"mesh sizes must be distinct, got {self.mesh_ns}")
        if self.sources not in ("manufactured", "zero"):
            raise ConfigError(f"sources must be manufactured or zero, got {self.sources!r}")
        # SolverConfig checks eps_r, max_iter and a numeric L.
        SolverConfig(L=0.0 if self.L == "optimal" else self.L, eps_r=self.eps_r,
                     max_iter=self.max_iter)
        if self.L != "optimal" and self.L + self.material.inv_m <= 0.0:
            raise ConfigError(f"L = {self.L} needs inv_m > 0, got {self.material.inv_m}")


def default_config() -> ExperimentConfig:
    """Benchmark defaults: granite-like parameters in the incompressible,
    impermeable limit on meshes 1/h in {16, 32, 64, 128}."""
    return ExperimentConfig(
        material=MaterialParams(mu=41.667e9, lam=27.778e9, alpha=1.0, inv_m=0.0, kappa=0.0),
        temporal=TimeGrid(t0=0.0, tau=0.1, t_end=1.0),
        mesh_ns=(16, 32, 64, 128),
    )


def _number(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _stabilization(raw: str):
    return "optimal" if raw == "optimal" else _number(raw)


def _mesh_sizes(raw: str) -> tuple:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


# (section, key, field, parse): every configuration key, once, in the order
# of canonical_text. field names the attribute of the section's dataclass,
# which is cfg.<section> where that exists and cfg itself otherwise.
_FIELDS = (
    ("material", "mu", "mu", _number),
    ("material", "lambda", "lam", _number),
    ("material", "alpha", "alpha", _number),
    ("material", "inv_m", "inv_m", _number),
    ("material", "kappa", "kappa", _number),
    ("temporal", "t0", "t0", _number),
    ("temporal", "tau", "tau", _number),
    ("temporal", "t_end", "t_end", _number),
    ("mesh", "n", "mesh_ns", _mesh_sizes),
    ("solver", "eps_r", "eps_r", _number),
    ("solver", "max_iter", "max_iter", int),
    ("solver", "L", "L", _stabilization),
    ("solver", "sources", "sources", str),
    ("sweep", "d_min", "d_min", _number),
    ("sweep", "d_max", "d_max", _number),
    ("sweep", "count", "count", int),
    ("spectral", "mode", "mode", str),
    ("spectral", "tol", "tol", _number),
    ("spectral", "maxit", "maxit", int),
    ("spectral", "seed", "seed", int),
)


def override(cfg: ExperimentConfig, raw) -> ExperimentConfig:
    """cfg with raw {section: {key: text}} values parsed through _FIELDS.

    Each section with its own dataclass is rebuilt with dataclasses.replace,
    which validates it, and then cfg itself is rebuilt once, so its rules
    across sections (a fixed L needs L + inv_m > 0) hold in any section
    order. A mode set without a tol drops any explicit tol, so the
    tolerance is the new mode's default.
    """
    changes, labels = {}, []
    for section, values in raw.items():
        fields = {key: (field, parse) for sec, key, field, parse in _FIELDS if sec == section}
        if not fields:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(values) - set(fields)
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")
        parsed = {}
        for key, text in values.items():
            field, parse = fields[key]
            try:
                parsed[field] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
        if section == "spectral" and "mode" in parsed:
            parsed.setdefault("tol", None)
        labels.append(f"[{section}] {', '.join(values)}")
        owner = getattr(cfg, section, cfg)
        try:
            changes.update(parsed if owner is cfg else {section: replace(owner, **parsed)})
        except ValueError as exc:
            raise ConfigError(f"{labels[-1]}: {exc}") from exc
    try:
        return replace(cfg, **changes)
    except ValueError as exc:
        raise ConfigError(f"{'; '.join(labels)}: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse a configuration file's contents against the defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return override(default_config(), {name: parser[name] for name in parser.sections()})


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def canonical_text(cfg: ExperimentConfig) -> str:
    """Deterministic serialization used for provenance hashing: one
    section.key=value line per _FIELDS row, with the tolerance the
    estimator uses whether it was set or defaulted."""
    cfg = replace(cfg, spectral=replace(cfg.spectral, tol=cfg.spectral.resolved_tol))
    lines = []
    for section, key, field, _ in _FIELDS:
        value = getattr(getattr(cfg, section, cfg), field)
        text = " ".join(map(str, value)) if isinstance(value, tuple) else str(value)
        lines.append(f"{section}.{key}={text}\n")
    return "".join(lines)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("ascii")).hexdigest()
