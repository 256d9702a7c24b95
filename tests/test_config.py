import dataclasses
import re
from pathlib import Path

import pytest

import biotfs as bf
from biotfs.config import ConfigError, canonical_text, parse_config

README = Path(__file__).resolve().parent.parent / "README.md"

# A configuration whose values all differ from the defaults.
NON_DEFAULT = """
[material]
mu = 1.0e9
lambda = 2.0e9
[mesh]
n = 4, 8
[solver]
L = optimal
max_iter = 50
[sweep]
d_min = 1e10
d_max = 2e10
count = 5
[spectral]
mode = coarse
seed = 42
"""


def test_defaults_reproduce_benchmark_values():
    cfg = bf.default_config()
    assert cfg.material.mu == 41.667e9
    assert cfg.material.lam == 27.778e9
    assert cfg.material.alpha == 1.0
    assert cfg.material.inv_m == 0.0
    assert cfg.material.kappa == 0.0
    assert (cfg.temporal.t0, cfg.temporal.tau, cfg.temporal.t_end) == (0.0, 0.1, 1.0)
    assert cfg.mesh_ns == (16, 32, 64, 128)
    assert cfg.eps_r == 1e-6
    assert cfg.spectral.mode == "fine"
    assert cfg.spectral.resolved_tol == 1e-8


def test_parse_overrides():
    cfg = parse_config(NON_DEFAULT)
    assert cfg.material.mu == 1.0e9
    assert cfg.material.lam == 2.0e9
    assert cfg.mesh_ns == (4, 8)
    assert cfg.L == "optimal"
    assert cfg.max_iter == 50
    assert cfg.sweep.count == 5
    assert cfg.spectral.mode == "coarse"
    assert cfg.spectral.resolved_tol == 1e-3
    assert cfg.spectral.seed == 42


def test_parse_numeric_L():
    cfg = parse_config("[solver]\nL = 1.25e-11\n")
    assert cfg.L == 1.25e-11


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config("[physics]\nmu = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[material]\nnu = 0.3\n")


def test_removed_inner_tol_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[solver]\ninner_tol = 1e-12\n")


def test_bad_values_name_the_field():
    with pytest.raises(ConfigError, match=r"\[material\] mu"):
        parse_config("[material]\nmu = abc\n")
    with pytest.raises(ConfigError, match=r"\[solver\] L"):
        parse_config("[solver]\nL = fastest\n")
    with pytest.raises(ConfigError, match="kappa"):
        parse_config("[material]\nkappa = 1e-12\n")
    with pytest.raises(ConfigError):
        parse_config("[sweep]\ncount = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[spectral]\nmode = exact\n")
    with pytest.raises(ConfigError):
        parse_config("[mesh]\nn = 0\n")
    with pytest.raises(ConfigError):
        parse_config("[mesh]\nn = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[mesh]\nn = 4 4\n")
    with pytest.raises(ConfigError, match="inv_m"):
        parse_config("[solver]\nL = 0\n")


def test_zero_stabilization_checked_after_every_section():
    # L = 0 is admissible with a compressible fluid, whatever the order of
    # the sections that set the two.
    cfg = parse_config("[solver]\nL = 0\n[material]\ninv_m = 1e-10\n")
    assert cfg.L == 0.0 and cfg.material.inv_m == 1e-10


def test_zero_stabilization_rejected_when_built_directly():
    # The rule lives in ExperimentConfig, so a config built without the
    # parser is checked too, before any run starts.
    with pytest.raises(ConfigError, match="inv_m"):
        dataclasses.replace(bf.default_config(), L=0.0)


def test_zero_sources_option():
    cfg = parse_config("[solver]\nsources = zero\n")
    assert cfg.sources == "zero"
    with pytest.raises(ConfigError):
        parse_config("[solver]\nsources = fancy\n")


def test_hash_deterministic_and_sensitive():
    base = bf.default_config()
    assert bf.config_hash(base) == bf.config_hash(bf.default_config())
    changed = parse_config("[material]\nmu = 1e9\n")
    assert bf.config_hash(base) != bf.config_hash(changed)
    text = canonical_text(base)
    assert "material.mu=41667000000.0" in text
    # The default configuration's provenance hash is stable across releases.
    assert bf.config_hash(base) == (
        "7d42932b5a48fe4309c3a32b3740a5339bcafce3832e4bf7ebb0325de00df4cd"
    )


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        bf.load_config(tmp_path / "absent.ini")


def test_non_default_hash_is_stable():
    assert bf.config_hash(parse_config(NON_DEFAULT)) == (
        "81c8ae47a101137c170b4d6c1deacde84eddad3c54fedf56a0dd1daf3b88fee5"
    )


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("material", "mu", "1e9"),
        ("material", "lambda", "1e9"),
        ("material", "alpha", "0.5"),
        ("material", "inv_m", "1e-10"),
        ("material", "kappa", "-0.0"),  # the only admissible kappa is zero
        ("temporal", "t0", "0.5"),
        ("temporal", "tau", "0.05"),
        ("temporal", "t_end", "2.0"),
        ("mesh", "n", "8"),
        ("solver", "eps_r", "1e-8"),
        ("solver", "max_iter", "50"),
        ("solver", "L", "1e-11"),
        ("solver", "sources", "zero"),
        ("sweep", "d_min", "1e10"),
        ("sweep", "d_max", "2e11"),
        ("sweep", "count", "5"),
        ("spectral", "mode", "coarse"),
        ("spectral", "tol", "1e-6"),
        ("spectral", "maxit", "100"),
        ("spectral", "seed", "42"),
    ],
)
def test_every_key_reaches_the_hash(section, key, value):
    changed = parse_config(f"[{section}]\n{key} = {value}\n")
    assert bf.config_hash(changed) != bf.config_hash(bf.default_config())


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("material", "mu", "nan"),
        ("material", "lambda", "inf"),
        ("temporal", "t_end", "inf"),
        ("temporal", "tau", "nan"),
        ("solver", "eps_r", "nan"),
        ("solver", "L", "nan"),
        ("solver", "L", "inf"),
        ("sweep", "d_max", "inf"),
        ("spectral", "tol", "inf"),
    ],
)
def test_non_finite_numbers_rejected(section, key, value):
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
        parse_config(f"[{section}]\n{key} = {value}\n")


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match=r"\[spectral\] seed"):
        parse_config("[spectral]\nseed = -1\n")


def test_readme_example_config_is_the_default():
    (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert parse_config(block) == bf.default_config()
