"""Experiment configuration: sectioned key-value files, defaults, hashing.

The file format is INI-style with the sections material, temporal, mesh,
solver, sweep and spectral. Unknown sections or keys are rejected. Every
section is optional; omitted values fall back to the benchmark defaults
(granite-like Lame parameters, incompressible and impermeable limit, ten
implicit Euler steps of 0.1).
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, replace

from .assembly import MaterialParams
from .solver import TimeGrid


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


def default_config() -> ExperimentConfig:
    """Benchmark defaults: granite-like parameters in the incompressible,
    impermeable limit on meshes 1/h in {16, 32, 64, 128}."""
    return ExperimentConfig(
        material=MaterialParams(mu=41.667e9, lam=27.778e9, alpha=1.0, inv_m=0.0, kappa=0.0),
        temporal=TimeGrid(t0=0.0, tau=0.1, t_end=1.0),
        mesh_ns=(16, 32, 64, 128),
    )


_SCHEMA = {
    "material": {"mu", "lambda", "alpha", "inv_m", "kappa"},
    "temporal": {"t0", "tau", "t_end"},
    "mesh": {"n"},
    "solver": {"eps_r", "max_iter", "L", "sources"},
    "sweep": {"d_min", "d_max", "count"},
    "spectral": {"mode", "tol", "maxit", "seed"},
}


def _get_float(section, key, current):
    raw = section.get(key)
    if raw is None:
        return current
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key}: not a number: {raw!r}") from exc


def _get_int(section, key, current):
    raw = section.get(key)
    if raw is None:
        return current
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key}: not an integer: {raw!r}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse a configuration file's contents against the defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown config section [{name}]")
        unknown = set(parser[name]) - _SCHEMA[name]
        if unknown:
            raise ConfigError(
                f"unknown key(s) in [{name}]: {', '.join(sorted(unknown))}"
            )

    cfg = default_config()
    try:
        if parser.has_section("material"):
            sec = parser["material"]
            mat = cfg.material
            cfg = replace(
                cfg,
                material=MaterialParams(
                    mu=_get_float(sec, "mu", mat.mu),
                    lam=_get_float(sec, "lambda", mat.lam),
                    alpha=_get_float(sec, "alpha", mat.alpha),
                    inv_m=_get_float(sec, "inv_m", mat.inv_m),
                    kappa=_get_float(sec, "kappa", mat.kappa),
                ),
            )
        if parser.has_section("temporal"):
            sec = parser["temporal"]
            grid = cfg.temporal
            cfg = replace(
                cfg,
                temporal=TimeGrid(
                    t0=_get_float(sec, "t0", grid.t0),
                    tau=_get_float(sec, "tau", grid.tau),
                    t_end=_get_float(sec, "t_end", grid.t_end),
                ),
            )
        if parser.has_section("mesh"):
            raw = parser["mesh"].get("n")
            if raw is not None:
                try:
                    ns = tuple(int(tok) for tok in raw.replace(",", " ").split())
                except ValueError as exc:
                    raise ConfigError(f"[mesh] n: not an integer list: {raw!r}") from exc
                if not ns or any(n < 1 for n in ns):
                    raise ConfigError(f"[mesh] n: need positive integers, got {raw!r}")
                cfg = replace(cfg, mesh_ns=ns)
        if parser.has_section("solver"):
            sec = parser["solver"]
            L = cfg.L
            raw_l = sec.get("L")
            if raw_l is not None:
                if raw_l.strip() == "optimal":
                    L = "optimal"
                else:
                    try:
                        L = float(raw_l)
                    except ValueError as exc:
                        raise ConfigError(
                            f"[solver] L: expected a number or 'optimal', got {raw_l!r}"
                        ) from exc
            sources = sec.get("sources", cfg.sources)
            if sources not in ("manufactured", "zero"):
                raise ConfigError(
                    f"[solver] sources: expected manufactured or zero, got {sources!r}"
                )
            cfg = replace(
                cfg,
                eps_r=_get_float(sec, "eps_r", cfg.eps_r),
                max_iter=_get_int(sec, "max_iter", cfg.max_iter),
                L=L,
                sources=sources,
            )
        if parser.has_section("sweep"):
            sec = parser["sweep"]
            sw = cfg.sweep
            cfg = replace(
                cfg,
                sweep=SweepGrid(
                    d_min=_get_float(sec, "d_min", sw.d_min),
                    d_max=_get_float(sec, "d_max", sw.d_max),
                    count=_get_int(sec, "count", sw.count),
                ),
            )
        if parser.has_section("spectral"):
            sec = parser["spectral"]
            sp_cfg = cfg.spectral
            tol = sp_cfg.tol
            if sec.get("tol") is not None:
                tol = _get_float(sec, "tol", tol)
            cfg = replace(
                cfg,
                spectral=SpectralConfig(
                    mode=sec.get("mode", sp_cfg.mode),
                    tol=tol,
                    maxit=_get_int(sec, "maxit", sp_cfg.maxit),
                    seed=_get_int(sec, "seed", sp_cfg.seed),
                ),
            )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    if cfg.eps_r <= 0.0:
        raise ConfigError(f"[solver] eps_r must be positive, got {cfg.eps_r}")
    if cfg.max_iter < 1:
        raise ConfigError(f"[solver] max_iter must be at least 1, got {cfg.max_iter}")
    if isinstance(cfg.L, float) and cfg.L < 0.0:
        raise ConfigError(f"[solver] L must be nonnegative, got {cfg.L}")
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def canonical_text(cfg: ExperimentConfig) -> str:
    """Deterministic serialization used for provenance hashing."""
    out = io.StringIO()
    mat = cfg.material
    grid = cfg.temporal
    sw = cfg.sweep
    spc = cfg.spectral
    rows = [
        ("material.mu", repr(mat.mu)),
        ("material.lambda", repr(mat.lam)),
        ("material.alpha", repr(mat.alpha)),
        ("material.inv_m", repr(mat.inv_m)),
        ("material.kappa", repr(mat.kappa)),
        ("temporal.t0", repr(grid.t0)),
        ("temporal.tau", repr(grid.tau)),
        ("temporal.t_end", repr(grid.t_end)),
        ("mesh.n", " ".join(str(n) for n in cfg.mesh_ns)),
        ("solver.eps_r", repr(cfg.eps_r)),
        ("solver.max_iter", str(cfg.max_iter)),
        ("solver.L", cfg.L if isinstance(cfg.L, str) else repr(cfg.L)),
        ("solver.sources", cfg.sources),
        ("sweep.d_min", repr(sw.d_min)),
        ("sweep.d_max", repr(sw.d_max)),
        ("sweep.count", str(sw.count)),
        ("spectral.mode", spc.mode),
        ("spectral.tol", repr(spc.resolved_tol)),
        ("spectral.maxit", str(spc.maxit)),
        ("spectral.seed", str(spc.seed)),
    ]
    for key, value in rows:
        out.write(f"{key}={value}\n")
    return out.getvalue()


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("ascii")).hexdigest()
