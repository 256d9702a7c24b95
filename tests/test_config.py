import dataclasses
import inspect
import itertools
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biotfs as bf
from biotfs.config import (
    _FIELDS,
    ConfigError,
    SpectralConfig,
    SweepGrid,
    canonical_text,
    config_hash,
    load_config,
    parse_config,
)

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

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


@pytest.mark.parametrize("text, keys", [
    ("[DEFAULT]\nn = 4\n", "n"),  # was ignored: the run used meshes 16 32 64 128
    ("[DEFAULT]\nseed = 7\n[mesh]\n", "seed"),  # was blamed on [mesh]
], ids=["alone", "with-mesh"])
def test_default_section_rejected(text, keys):
    with pytest.raises(ConfigError, match=rf"^\[DEFAULT\] {keys}: "):
        parse_config(text)
    assert parse_config("[DEFAULT]\n") == bf.default_config()  # an empty header is harmless


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
    # Relative tolerances lie in (0, 1): tol = 5 gave a one-step "converged"
    # estimate and eps_r = 2 one-iteration steps.
    with pytest.raises(ConfigError, match="spectral tol must be positive"):
        parse_config("[spectral]\ntol = 5\n")
    with pytest.raises(ConfigError, match="eps_r must be positive"):
        parse_config("[solver]\neps_r = 2\n")


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
    assert config_hash(base) == config_hash(bf.default_config())
    changed = parse_config("[material]\nmu = 1e9\n")
    assert config_hash(base) != config_hash(changed)
    text = canonical_text(base)
    assert "material.mu=41667000000.0" in text
    # The default configuration's provenance hash is stable across releases.
    assert config_hash(base) == (
        "7d42932b5a48fe4309c3a32b3740a5339bcafce3832e4bf7ebb0325de00df4cd"
    )


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


def test_load_config_non_utf8_file(tmp_path):
    # Once a UnicodeDecodeError traceback with exit 1.
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"[mesh]\nn = 4\xff\n")
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(bad)


def test_non_default_hash_is_stable():
    assert config_hash(parse_config(NON_DEFAULT)) == (
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
    assert config_hash(changed) != config_hash(bf.default_config())


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


NON_FINITE = (math.nan, math.inf, -math.inf)


# Built directly, every dataclass rejects a non-finite value in each float
# field, so a library caller gets the same loud failure as a config file.
@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["mu", "lam", "alpha", "inv_m", "kappa"])
def test_material_params_reject_non_finite(field, value):
    with pytest.raises(ValueError):
        dataclasses.replace(bf.default_config().material, **{field: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["L", "eps_r"])
def test_solver_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError):
        dataclasses.replace(bf.SolverConfig(L=1e-11), **{field: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["t0", "tau", "t_end"])
def test_time_grid_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="must be finite"):
        dataclasses.replace(bf.default_config().temporal, **{field: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["d_min", "d_max"])
def test_sweep_grid_rejects_non_finite(field, value):
    with pytest.raises(ConfigError, match="sweep bounds"):
        dataclasses.replace(bf.default_config().sweep, **{field: value})


@pytest.mark.parametrize("value", NON_FINITE)
def test_spectral_config_rejects_non_finite(value):
    with pytest.raises(ConfigError, match="spectral tol"):
        dataclasses.replace(bf.default_config().spectral, tol=value)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["L", "eps_r"])
def test_experiment_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError):
        dataclasses.replace(bf.default_config(), **{field: value})


# Built directly, every integer field rejects a non-integer, which once
# failed later with a TypeError inside the solve, the sweep or the estimator;
# numpy integers stay accepted.
@pytest.mark.parametrize("value, ok", [(2.5, False), (2.0, False), (np.int64(7), True)])
def test_solver_config_rejects_a_non_integer_max_iter(value, ok):
    if ok:
        assert bf.SolverConfig(L=1e-11, max_iter=value).max_iter == value
    else:
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            bf.SolverConfig(L=1e-11, max_iter=value)


@pytest.mark.parametrize("field", ["maxit", "seed"])
@pytest.mark.parametrize("value, ok", [(1.5, False), (np.int64(3), True)])
def test_spectral_config_rejects_non_integers(field, value, ok):
    if ok:
        assert getattr(SpectralConfig(**{field: value}), field) == value
    else:
        with pytest.raises(ConfigError, match="must be integers"):
            SpectralConfig(**{field: value})


@pytest.mark.parametrize("value, ok", [(2.5, False), (np.int64(3), True)])
def test_sweep_grid_rejects_a_non_integer_count(value, ok):
    if ok:
        assert len(SweepGrid(1.0, 2.0, value).values()) == 3
    else:
        with pytest.raises(ConfigError, match="sweep count must be an integer"):
            SweepGrid(1.0, 2.0, value)


@pytest.mark.parametrize("changes, ok", [
    ({"mesh_ns": (4.5,)}, False), ({"mesh_ns": (4, 8.0)}, False),
    ({"max_iter": 10.5}, False), ({"mesh_ns": (np.int64(4),), "max_iter": np.int64(9)}, True),
])
def test_experiment_config_rejects_non_integers(changes, ok):
    if ok:
        dataclasses.replace(bf.default_config(), **changes)
    else:
        with pytest.raises(ValueError, match="integer"):
            dataclasses.replace(bf.default_config(), **changes)


def test_experiment_config_rejects_a_non_numeric_L():
    with pytest.raises(ConfigError, match="'fast'"):
        dataclasses.replace(bf.default_config(), L="fast")


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match=r"\[spectral\] seed"):
        parse_config("[spectral]\nseed = -1\n")


def test_readme_example_config_is_the_default():
    (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert parse_config(block) == bf.default_config()


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "first step iterations:" in out
    assert "n,h,D,L,avg_iterations,diverged\n4," in out


def test_public_surface_is_what_readme_and_perfbench_read():
    # Every bf.X / biotfs.X the README or perfbench reads must resolve, and
    # the package exports nothing else but the errors those functions raise.
    import biotfs.cli  # noqa: F401  (binds every submodule on the package)

    sources = [README] + sorted((ROOT / "perfbench").glob("*.py"))
    read = set()
    for path in sources:
        text = path.read_text(encoding="utf-8")
        # (?!/) skips schema names such as biotfs.solve/1.
        read |= set(re.findall(r"\b(?:bf|biotfs)\.([A-Za-z_]\w*)\b(?!/)", text))
    missing = sorted(name for name in read if not hasattr(bf, name))
    assert missing == []
    exported = {name for name, value in vars(bf).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    errors = {"ConvergenceError", "FactorizationError", "EstimationError"}
    assert exported - read == errors


# The parse contract, over generated input: a config text (or file) either
# raises ConfigError or gives a config whose dataclasses all rebuild
# unchanged, so every value passed its dataclass's checks. Nothing is run
# from the parsed config.
KEYS = [(section, key) for section, key, _, _ in _FIELDS]
# canonical_text has one line per _FIELDS row, in order.
DEFAULT_VALUES = dict(zip(KEYS, (line.partition("=")[2] for line in
                                 canonical_text(bf.default_config()).splitlines())))
BOUNDARY_VALUES = [
    "0", "-0.0", "1", "-1", "2", "0.5", "1e-6", "0.999999", "1.0", "1e-300", "5e-324",
    "1e300", "-1e308", "1.7976931348623157e308", "1e999", "nan", "inf", "-inf",
    "99999999999999999999999", "optimal", "fine", "coarse", "manufactured", "zero",
    "4 8", "4, 8", "", "abc", "0x10", "1_000",
]
VALUE_TEXTS = st.one_of(
    st.sampled_from(BOUNDARY_VALUES),
    st.floats().map(repr),
    st.integers(-2**70, 2**70).map(str),
    st.lists(st.integers(-3, 40), max_size=3).map(lambda ns: " ".join(map(str, ns))),
    st.text(max_size=8),
)
# Every key in its section, two keys of no section in [DEFAULT] (an error
# whatever they hold) and two unknown names.
ENTRIES = st.sampled_from(KEYS + [("DEFAULT", "n"), ("DEFAULT", "tol"),
                                  ("unknown", "n"), ("solver", "unknown")]).flatmap(
    lambda sk: st.tuples(st.just(sk), st.just(DEFAULT_VALUES.get(sk, "")) | VALUE_TEXTS))


def _config_text(entries, header_per_entry):
    """The entries as INI text: under one header per section, or under a
    header of their own, which repeats a section that has two entries."""
    if header_per_entry:
        return "".join(f"[{s}]\n{k} = {v}\n" for (s, k), v in entries)
    sections = {}
    for (section, key), value in entries:
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    return "".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items())


def _assert_parse_contract(parse, source):
    try:
        cfg = parse(source)
    except ConfigError:
        return
    for part in (cfg, cfg.material, cfg.temporal, cfg.sweep, cfg.spectral):
        assert dataclasses.replace(part) == part


def test_every_key_at_every_boundary_value_is_an_error_or_a_valid_config():
    for (section, key), value in itertools.product(KEYS, BOUNDARY_VALUES):
        _assert_parse_contract(parse_config, f"[{section}]\n{key} = {value}\n")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(entries=st.lists(ENTRIES, max_size=6), header_per_entry=st.booleans())
def test_generated_config_text_is_an_error_or_a_valid_config(entries, header_per_entry):
    _assert_parse_contract(parse_config, _config_text(entries, header_per_entry))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.binary(max_size=64)
       | st.builds(lambda entries, tail: _config_text(entries, False).encode() + tail,
                   st.lists(ENTRIES, max_size=4), st.binary(max_size=4)))
def test_generated_config_file_is_an_error_or_a_valid_config(data):
    # hypothesis rejects function-scoped fixtures such as tmp_path.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "generated.ini"
        path.write_bytes(data)
        _assert_parse_contract(load_config, path)
