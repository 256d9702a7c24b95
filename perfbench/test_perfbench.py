"""Fast self-test of the benchmark runner on tiny meshes (n = 4 and 8).

    python3 -m pytest -q perfbench        # from the repository root

Covers the CLI invocation through child processes, the correctness checks
(passing and failing), span nesting and the self-time arithmetic. The
repository's own suite (tests/) does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import make_reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Workload, check, cli_args, digits  # noqa: E402

TINY = {
    "estimate": Workload("estimate-n8", "estimate", 8, "tiny"),
    "solve": Workload("march-n8", "solve", 8, "tiny"),
    "sweep": Workload("sweep-n4", "sweep", 4, "tiny"),
}


@pytest.fixture(scope="module")
def reference():
    return make_reference.build_reference(spectral_ns=(4, 8), march_ns=(8,), sweep_ns=(4,))


def _run(tmp_path, workload, reference, trace):
    args = argparse.Namespace(workload=workload.name, seed=1, seconds=0.0, trace=trace)
    bench = run.Run(args, workload, ROOT, reference, tmp_path)
    bench.min_operations = 1
    try:
        metrics, _ = bench.traced() if trace else bench.timing()
    finally:
        bench.child.stop()
    return bench, bench.result(metrics)


@pytest.mark.parametrize("command", sorted(TINY))
def test_timed_run_is_correct_and_reports_every_end_to_end_metric(tmp_path, reference, command):
    bench, result = _run(tmp_path, TINY[command], reference, trace=0)
    assert result["correct"], bench.failures
    assert result["attempted"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["wall_s"] > values["setup_s"] > 0.0
    assert values["peak_rss_mb"] > 10.0
    assert 3.0 < values["answer_digits"] <= 12.0


def test_traced_estimate_counts(tmp_path, reference):
    bench, result = _run(tmp_path, TINY["estimate"], reference, trace=1)
    assert result["correct"], bench.failures
    m = {k: v["value"] for k, v in result["metrics"].items()}
    steps = m["spectral.power_steps"]
    assert steps > 0
    # one Schur apply per power step plus one start vector per power run
    assert m["spectral.schur_apply.calls"] == steps + 2
    assert m["linalg.a_solve.calls"] == m["linalg.a_solve.columns"] == steps + 2
    assert m["linalg.m_solve.calls"] == steps
    assert m["linalg.factorize.calls"] == 2 and m["linalg.nnz_lu"] > 0
    assert m["solver.iterations"] == 0 and m["assembly.step_loads.calls"] == 0
    assert m["spectral.schur_apply_s"] <= m["spectral.estimate_s"]
    assert result["attempted"] == 2  # one untraced and one traced operation


def test_traced_march_counts(tmp_path, reference):
    bench, result = _run(tmp_path, TINY["solve"], reference, trace=1)
    assert result["correct"], bench.failures
    m = {k: v["value"] for k, v in result["metrics"].items()}
    iterations = m["solver.iterations"]
    assert iterations == sum(reference["march"]["8"]["program_iterations"])
    assert m["solver.iterations_per_step"] == iterations / 10
    assert m["linalg.a_solve.calls"] == m["linalg.m_solve.calls"] == iterations
    assert m["linalg.m_norm.calls"] == 4 * iterations + 2  # + the report's final norms
    assert m["assembly.step_loads.calls"] == 10
    assert m["spectral.schur_apply.calls"] == 0
    assert 0.0 < m["solver.self_s"] < m["solver.march_s"] == m["solver.march_max_s"]


def test_traced_sweep_keeps_rows_and_spans(tmp_path, reference):
    bench, result = _run(tmp_path, TINY["sweep"], reference, trace=1)
    assert result["correct"], bench.failures
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["solver.march_max_s"] < m["solver.march_s"]  # 31 rows
    assert m["spectral.power_steps"] > 0 and m["solver.iterations"] > 0
    dump = json.loads(next(tmp_path.glob("spans-*.json")).read_text())
    tracing.check_nesting(dump["spans"])
    roots = [s for s in dump["spans"] if s[3] == -1]
    assert [s[0] for s in roots] == ["experiment.main"]


def test_checks_reject_wrong_outputs(tmp_path, reference):
    est = TINY["estimate"]
    assert check(est, 3, tmp_path, reference, {})[0] == ["exit code 3"]
    assert "unreadable output" in check(est, 0, tmp_path, reference, {})[0][0]

    import biotfs.cli

    assert biotfs.cli.main(cli_args(est, 1, tmp_path)) == 0
    problems, facts = check(est, 0, tmp_path, reference, {})
    assert problems == [] and facts["answer_digits"] > 3.0 and facts["power_steps"] > 0
    report = json.loads((tmp_path / "estimate.json").read_text())
    report["meshes"][0]["l_opt"] *= 1.01
    report["meshes"][0]["converged"] = False
    (tmp_path / "estimate.json").write_text(json.dumps(report))
    problems, _ = check(est, 0, tmp_path, reference, {})
    assert any("converged" in p for p in problems)
    assert any("l_opt" in p for p in problems)

    sweep = TINY["sweep"]
    assert biotfs.cli.main(cli_args(sweep, 1, tmp_path)) == 0
    state = {}
    assert check(sweep, 0, tmp_path, reference, state)[0] == []
    csv_path = tmp_path / "sweep.csv"
    csv_path.write_text(csv_path.read_text().replace("false", "true", 1))
    problems, _ = check(sweep, 0, tmp_path, reference, state)
    assert any("differ from the first" in p for p in problems)
    assert any("differs from the reference" in p for p in problems)


def test_march_reference_is_close_to_the_splitting_march(reference):
    ref = reference["march"]["8"]
    assert ref["steps"] == len(ref["program_iterations"]) == 10
    for key in ("pressure", "displacement"):
        exact, split = ref[f"final_{key}_norm"], ref[f"program_final_{key}_norm"]
        assert 4.0 < digits(split, exact) < 12.0


def test_self_times_subtract_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.5, 6.0, 0, None],  # overlaps a: the union counts once
        ["c", 2.0, 3.0, 1, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 2.5, 1.0])


def test_layer_metrics_self_time_and_solve_labels():
    spans = [
        ["experiment.main", 0.0, 20.0, -1, None],
        ["assembly.build_system", 0.5, 1.0, 0, {"n_u": 50, "n_p": 9}],
        ["solver.fixed_stress_solve", 1.0, 11.0, 0, {"iterations": 2}],
        ["solver.fixed_stress_step", 1.5, 5.0, 2, None],
        [tracing.SOLVE_SPAN, 2.0, 3.0, 3, {"size": 50, "columns": 1}],
        [tracing.SOLVE_SPAN, 3.0, 3.5, 3, {"size": 9, "columns": 1}],
        ["solver.fixed_stress_step", 5.0, 9.0, 2, None],
        [tracing.SOLVE_SPAN, 6.0, 8.0, 6, {"size": 50, "columns": 3}],
    ]
    tracing.check_nesting(spans)
    m = tracing.layer_metrics(spans)
    # solve self 10 - 7.5 covered by steps; steps 3.5 - 1.5 and 4 - 2
    assert m["solver.self_s"] == pytest.approx(2.5 + 2.0 + 2.0)
    assert m["experiment.self_s"] == pytest.approx(20.0 - 0.5 - 10.0)
    assert m["linalg.a_solve.calls"] == 2 and m["linalg.a_solve.columns"] == 4
    assert m["linalg.a_solve_s"] == pytest.approx(3.0)
    assert m["linalg.a_solve_ms"] == pytest.approx(1500.0)
    assert m["linalg.m_solve.calls"] == 1 and m["linalg.m_solve_ms"] == pytest.approx(500.0)
    assert m["solver.iterations"] == 2 and m["solver.iterations_per_step"] == 2.0


def test_nesting_violation_is_reported():
    with pytest.raises(ValueError, match="leaves its parent"):
        tracing.check_nesting([["p", 0.0, 1.0, -1, None], ["c", 0.5, 1.5, 0, None]])


def test_refuses_to_run_without_a_source_tree(tmp_path, monkeypatch, capsys):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    monkeypatch.chdir(bare)
    code = run.main(["--workload", "sweep-n16", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""
