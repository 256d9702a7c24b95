"""Smoke test of the benchmark's driver path; perfbench/ is only read.

The benchmark runs `perfbench/child.py` in fresh processes: `setup` times
`build_problem` plus `prepare()`, and `trace` wraps the public functions
that `perfbench/tracing.py` names by module and attribute, then runs one
CLI operation. A refactor that renames, drops or stops calling one of them
fails here rather than in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _child(cwd, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_child_setup_and_traced_solve(tmp_path):
    setup = _child(tmp_path, "setup", "4", str(tmp_path / "setup.json"))
    assert setup.returncode == 0, setup.stderr
    assert json.loads((tmp_path / "setup.json").read_text())["durations"]

    traced = _child(tmp_path, "trace", str(tmp_path / "spans.json"), "--",
                    "solve", "--mesh-n", "4", "--L", "8.5e-12",
                    "--out", str(tmp_path / "solve.json"))
    assert traced.returncode == 0, traced.stderr
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    names = [span[0] for span in spans]
    assert names.count("linalg.factorize") == 2
    # Setup layers: one mesh, one dof map, one system of three operators,
    # each reduced by its own call; the ten steps' loads; no div-div form.
    for name in ("mesh.build_structured_mesh", "mesh.build_taylor_hood_dofs",
                 "assembly.build_system", "assembly.assemble_elasticity",
                 "assembly.assemble_coupling", "assembly.assemble_pressure_mass"):
        assert names.count(name) == 1, name
    assert names.count("assembly.apply_boundary_conditions") == 3
    # A is factored before B is assembled, as the tracer sees it.
    assert (spans[names.index("linalg.factorize")][1]
            < spans[names.index("assembly.assemble_coupling")][1])
    assert names.count("assembly.assemble_momentum_load") == 10
    assert names.count("assembly.assemble_source_moment") == 10
    assert names.count("assembly.assemble_divdiv") == 0
    notes = [span[4] for span in spans if span[0] == "solver.fixed_stress_solve"]
    assert notes and all(note["iterations"] >= 1 for note in notes)


def test_child_traced_estimate(tmp_path):
    # The estimator reaches the Schur operator through `schur_apply`, looked
    # up by name, so the tracer counts its applies and notes its steps.
    traced = _child(tmp_path, "trace", str(tmp_path / "spans.json"), "--",
                    "estimate", "--mesh-n", "4", "--out", str(tmp_path / "est.json"))
    assert traced.returncode == 0, traced.stderr
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert any(span[0] == "spectral.schur_apply" for span in spans)
    notes = [span[4] for span in spans if span[0] == "spectral.estimate_spectrum"]
    assert notes and all(note["power_steps"] >= 1 for note in notes)


def test_module_entry_point_prints_a_solve_report(tmp_path):
    # The benchmark times `python -m biotfs.cli`; run the module that way.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "biotfs.cli", "solve", "--mesh-n", "2", "--L", "1e-11"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["schema"] == "biotfs.solve/1"
