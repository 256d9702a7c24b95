import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io

import biotfs as bf
from biotfs.assembly import reduced_divdiv
from biotfs.cli import build_parser, main
from biotfs.config import SweepGrid, config_hash, parse_config
from biotfs.experiment import (
    estimate_report,
    solve_report,
    sweep_csv,
    sweep_report,
    verify_report,
)

SMALL_CFG = """
[mesh]
n = 4
[sweep]
d_min = 0.9e11
d_max = 1.5e11
count = 4
[spectral]
maxit = 100000
"""


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


@pytest.fixture(scope="module")
def small_cfg():
    return parse_config(SMALL_CFG)


@pytest.fixture(scope="module")
def small_verify(small_cfg):
    return verify_report(small_cfg)


def test_estimate_report_structure_and_roundtrip(small_cfg):
    report = estimate_report(small_cfg)
    assert report["schema"] == "biotfs.estimate/1"
    assert len(report["meshes"]) == 1
    entry = report["meshes"][0]
    assert entry["n"] == 4
    assert entry["k_star"] >= small_cfg.material.drained_bulk_modulus
    assert entry["d_opt"] == pytest.approx(
        small_cfg.material.alpha**2 / entry["l_opt"], rel=1e-15
    )
    assert entry["converged"] is True
    assert all(type(r) is float and r <= 1e-8 for r in entry["residuals"])
    again = json.loads(json.dumps(report))
    assert again == report


def test_estimate_coarse_close_to_fine(small_cfg):
    fine = estimate_report(small_cfg)["meshes"][0]
    coarse = estimate_report(parse_config(SMALL_CFG + "mode = coarse\n"))["meshes"][0]
    assert abs(coarse["l_opt"] - fine["l_opt"]) <= 0.02 * fine["l_opt"]


def test_estimate_degenerate_spectrum_reports_zero_rho(params):
    # A proportional pencil has a flat spectrum, so the contraction factor
    # at the optimum is zero.
    from biotfs.spectral import _extreme_eigs

    rng = np.random.default_rng(23)
    a = rng.standard_normal((6, 6))
    M = a @ a.T + 6 * np.eye(6)
    (low, high), _, _, _ = _extreme_eigs(
        (2.0 * M).__matmul__, M, lambda x: np.linalg.solve(M, x), "BE", 1e-12, 100, 0)
    est = bf.optimal_parameters(high, max(low, 1e-300), params)
    assert est.rho_opt <= 1e-10


def test_solve_report_zero_sources_average_one(small_cfg):
    cfg = dataclasses.replace(small_cfg, sources="zero", L=1e-11)
    report = solve_report(cfg, 4)
    assert report["average_iterations"] == 1.0
    assert not report["diverged"]


def test_solve_report_optimal_not_worse_than_physical(small_cfg):
    L_phys = small_cfg.material.alpha**2 / small_cfg.material.drained_bulk_modulus
    opt = solve_report(small_cfg, 8)
    phys = solve_report(dataclasses.replace(small_cfg, L=L_phys), 8)
    assert opt["L_mode"] == "optimal"
    assert opt["average_iterations"] <= phys["average_iterations"]


def test_solve_report_divergence_flag(small_cfg):
    cfg = dataclasses.replace(small_cfg, max_iter=1, L=1e-11)
    report = solve_report(cfg, 4)
    assert report["diverged"]


@pytest.mark.parametrize("maxit, certified", [(1, False), (50000, True)])
def test_solve_report_carries_the_estimate_it_marched_at(maxit, certified):
    # An optimal L is only as good as its estimate, so the report ends with
    # that estimate; a fixed L has none.
    cfg = parse_config(f"[mesh]\nn = 4\n[spectral]\nmaxit = {maxit}\n")
    report = solve_report(cfg, 4)
    assert list(report)[-1] == "estimate"
    assert report["estimate"]["converged"] is certified
    assert report["L"] == report["estimate"]["l_opt"]
    assert "estimate" not in solve_report(dataclasses.replace(cfg, L=1e-11), 4)


def _cli_hash(tmp_path, kind, text, *flags):
    path = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    argv = [kind, "--config", str(path), "--out", str(out), *flags]
    if kind == "solve":
        argv += ["--mesh-n", "4"]
    assert main(argv) == 0
    if kind == "sweep":
        out = tmp_path / "out.json"
    return json.loads(out.read_text())["config_hash"]


@pytest.mark.parametrize("kind", ["estimate", "solve", "sweep"])
def test_config_hash_covers_seed_and_mode_overrides(tmp_path, kind):
    # A report's hash covers the spectral settings its estimates used,
    # whether they came from the config file or from --seed/--mode.
    seed7 = parse_config(SMALL_CFG + "seed = 7\n")
    coarse = parse_config(SMALL_CFG + "mode = coarse\n")
    default = _cli_hash(tmp_path, kind, SMALL_CFG)
    assert default == config_hash(parse_config(SMALL_CFG))
    assert _cli_hash(tmp_path, kind, SMALL_CFG, "--seed", "7") == config_hash(seed7) != default
    assert _cli_hash(tmp_path, kind, SMALL_CFG, "--seed", "1") == default
    by_mode = _cli_hash(tmp_path, kind, SMALL_CFG, "--mode", "coarse")
    assert by_mode == config_hash(coarse) != default
    # --mode drops an explicit tol back to the mode's default.
    explicit_tol = SMALL_CFG + "tol = 1e-5\n"
    assert _cli_hash(tmp_path, kind, explicit_tol, "--mode", "coarse") == config_hash(coarse)


def test_cli_solve_hash_covers_L(tmp_path):
    by_flag = _cli_hash(tmp_path, "solve", SMALL_CFG, "--L", "1e-11")
    assert by_flag == _cli_hash(tmp_path, "solve", SMALL_CFG + "[solver]\nL = 1e-11\n")
    assert by_flag != _cli_hash(tmp_path, "solve", SMALL_CFG, "--L", "2e-11")


def test_sweep_rows_and_invariants(small_cfg):
    report = sweep_report(small_cfg)
    assert len(report["rows"]) == 4
    alpha = small_cfg.material.alpha
    for row in report["rows"]:
        assert row["L"] * row["D"] == pytest.approx(alpha**2, rel=1e-15)
        assert row["avg_iterations"] >= 1.0 or row["diverged"]
    ds = [row["D"] for row in report["rows"]]
    assert ds == sorted(ds)


def test_sweep_two_rows_csv(small_cfg):
    cfg = dataclasses.replace(
        small_cfg, sweep=SweepGrid(d_min=1.0e11, d_max=1.3e11, count=2)
    )
    report = sweep_report(cfg)
    lines = sweep_csv(report).strip().splitlines()
    assert lines[0] == "n,h,D,L,avg_iterations,diverged"
    assert len(lines) == 3


def test_sweep_csv_bit_deterministic(small_cfg):
    a = sweep_csv(sweep_report(small_cfg))
    b = sweep_csv(sweep_report(small_cfg))
    assert a == b


def test_sweep_rows_sorted_across_meshes(small_cfg):
    cfg = dataclasses.replace(
        small_cfg,
        mesh_ns=(4, 2),
        sweep=SweepGrid(d_min=1.0e11, d_max=1.3e11, count=2),
    )
    report = sweep_report(cfg)
    keys = [(r["n"], r["D"]) for r in report["rows"]]
    assert keys == sorted(keys)


def test_sweep_counts_rise_past_the_optimum(small_cfg, params):
    # Qualitative shape: averages grow monotonically on the grid points
    # just above the predicted optimum.
    d_opt_guess = 1.27e11  # close to the n=8 optimum
    cfg = dataclasses.replace(
        small_cfg,
        mesh_ns=(8,),
        sweep=SweepGrid(d_min=d_opt_guess, d_max=d_opt_guess + 2.0e10, count=6),
    )
    report = sweep_report(cfg)
    counts = [r["avg_iterations"] for r in report["rows"]]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_sweep_json_roundtrip(small_cfg):
    doc = sweep_report(small_cfg)
    again = json.loads(json.dumps(doc))
    assert again == doc
    assert doc["schema"] == "biotfs.sweep/1"
    assert "4" in doc["predicted_d_opt"]


def test_sweep_propagates_a_failing_row(small_cfg, monkeypatch):
    # Divergence is reported through the march result; an exception is a
    # defect and must not become a "diverged" row.
    import biotfs.experiment

    def broken(*args, **kwargs):
        raise RuntimeError("defect in the march")

    monkeypatch.setattr(biotfs.experiment, "time_march", broken)
    with pytest.raises(RuntimeError, match="defect in the march"):
        sweep_report(small_cfg)


def test_verify_report_known_outcome(small_verify):
    # Every check passes except the div-div route identification, which is
    # structurally loose for this element pair (see README).
    failing = {c["name"] for c in small_verify["checks"] if not c["passed"]}
    assert failing == {"kstar_route_vs_lambda_max_n4"}
    assert not small_verify["passed"]


@pytest.mark.parametrize(
    "text",
    [
        "[material]\ninv_m = 1e-11\n",
        "[material]\ninv_m = 3e-12\nalpha = 0.9\n[spectral]\nseed = 3\n",
        "[material]\nmu = 1e6\nlambda = 1e6\ninv_m = 1e-6\n",
        "[material]\ninv_m = 1e-9\n",
        "[material]\ninv_m = 1e-7\n",
    ],
    ids=["inv_m-1e-11", "alpha-0.9-seed-3", "soft-inv_m-1e-6", "inv_m-1e-9", "inv_m-1e-7"],
)
def test_verify_report_compressible_outcome(text):
    # The contraction and divergence checks run on the error equation, and
    # the estimates on the unshifted pencil, so they hold for every
    # compressibility.
    report = verify_report(parse_config(text))
    failing = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failing == {"kstar_route_vs_lambda_max_n4"}


@pytest.mark.parametrize(
    "text, read",
    [
        (SMALL_CFG, ""),
        ("[spectral]\nmode = coarse\n[solver]\nL = 1e-11\neps_r = 1e-8\n", ""),
        (SMALL_CFG + "seed = 7\n", "[spectral]\nseed = 7\n"),
        ("[mesh]\nn = 8\n[temporal]\ntau = 0.2\n", "[temporal]\ntau = 0.2\n"),
    ],
    ids=["mesh-sweep-maxit", "mode-solver", "seed", "tau"],
)
def test_verify_hash_covers_only_what_the_battery_reads(text, read):
    # Keys the battery never reads change neither its checks nor its hash.
    report = verify_report(parse_config(text))
    reference = verify_report(parse_config(read))
    assert report["config_hash"] == config_hash(parse_config(read))
    assert report == reference


def test_verify_rows_agree_with_their_bounds(small_verify):
    # A row reads "measured op bound"; its verdict must be that comparison.
    for c in small_verify["checks"]:
        holds = c["measured"] <= c["bound"] if c["op"] == "<=" else c["measured"] > c["bound"]
        assert c["passed"] == holds, c["name"]


def _write_cfg(tmp_path, text=SMALL_CFG):
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    return path


def test_cli_estimate_writes_json(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "est.json"
    code = main(["estimate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["meshes"][0]["n"] == 4


def test_cli_estimate_bit_deterministic(tmp_path, capsys):
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    for out in outs:
        assert main(["estimate", "--mesh-n", "16", "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_cli_estimate_stdout(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    code = main(["estimate", "--config", str(cfg)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "biotfs.estimate/1"


def test_cli_solve_exit_codes(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    code = main(["solve", "--config", str(cfg), "--L", "optimal", "--mesh-n", "4"])
    assert code == 0
    capsys.readouterr()
    code = main(["solve", "--config", str(cfg), "--L", "nonsense", "--mesh-n", "4"])
    assert code == 2
    capsys.readouterr()
    bad = _write_cfg(tmp_path, "[solver]\nmax_iter = 1\n[mesh]\nn = 4\n")
    code = main(["solve", "--config", str(bad), "--L", "1e-11"])
    assert code == 3
    capsys.readouterr()


def test_cli_solve_requires_single_mesh(tmp_path, capsys):
    # The single-mesh rule is checked before anything is written.
    cfg = _write_cfg(tmp_path, "[mesh]\nn = 4 8\n")
    dump = tmp_path / "ops"
    code = main(["solve", "--config", str(cfg), "--L", "1e-11", "--dump-matrices", str(dump)])
    assert code == 2
    assert not dump.exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [["--L", "-1"], ["--L", "nan"], ["--seed", "-1"], ["--mesh-n", "1"], ["--L", "0"],
     ["--mesh-n", "99999999999999999999999"]],  # once a traceback from the mesh build
)
def test_cli_rejects_bad_override(capsys, flags):
    assert main(["solve", "--mesh-n", "4", *flags]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--mode", "coarse"], ["--mesh-n", "16"]])
def test_cli_verify_rejects_flags_it_does_not_read(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *flags])
    assert exc.value.code == 2


def test_readme_usage_matches_the_parser():
    # Each command's usage line in the README lists exactly the flags its
    # parser accepts, except --dump-matrices, documented for all commands.
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    (block,) = re.findall(r"```sh\n(.*?)```", block.split("\n## ", 1)[0], re.S)
    usage = {}
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        usage[words[1]] = set(re.findall(r"--[A-Za-z-]+", " ".join(words[2:])))
    (commands,) = [
        a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert set(usage) == set(commands)
    for name, parser in commands.items():
        flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == usage[name] | {"--dump-matrices"}, name


def test_cli_config_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[material]\nmu = granite\n", encoding="utf-8")
    code = main(["estimate", "--config", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "mu" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--mesh-n", "2", "--L", "1e-11", "--out", "taken"],
    ["verify", "--out", "taken"],
    ["estimate", "--mesh-n", "2", "--dump-matrices", "file"],
    ["sweep", "--mesh-n", "2", "--out", "sweep.csv"],  # its sidecar is a directory
    ["solve", "--mesh-n", "2", "--L", "1e-11", "--out", "file/report.json"],
], ids=["solve-out", "verify-out", "estimate-dumps", "sweep-sidecar", "out-under-file"])
def test_cli_unwritable_output_is_a_one_line_error(tmp_path, argv):
    # Each of these once ran the whole command and then ended in a traceback
    # with exit 1, a code the CLI does not document. The outputs are checked
    # before any work: verify once printed its table first and sweep left
    # its CSV behind.
    (tmp_path / "taken").mkdir()
    (tmp_path / "sweep.csv.json").mkdir()
    (tmp_path / "file").write_text("", encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "biotfs.cli", *argv], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("cannot write output: ")
    assert run.stderr.count("\n") == 1
    assert run.stdout == ""
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["file", "sweep.csv.json", "taken"]


@pytest.mark.parametrize("argv, config, code", [
    (["estimate", "--mesh-n", "2"], None, 0),
    (["solve", "--mesh-n", "2", "--L", "1e-11"], None, 0),
    (["solve", "--mesh-n", "8", "--L", "1e-13"], None, 3),
    # From L ~ 1e160 up the pressure norms underflowed to 0, and every step
    # converged in 2 iterations with a final pressure norm of 0.
    (["solve", "--mesh-n", "3", "--L", "1e300"], None, 3),
    (["verify"], None, 4),  # the known red row
    # Config errors, each before any array exists. The four too large to
    # allocate once ended in a traceback with exit 1, and a lone [DEFAULT]
    # section was once ignored.
    (["solve", "--mesh-n", "2", "--L", "1e-11"], "[temporal]\ntau = 1e-300\n", 2),
    (["estimate"], "[mesh]\nn = 99999999999999999999999\n", 2),
    (["estimate", "--mesh-n", "99999999999999999999999"], None, 2),
    (["sweep", "--mesh-n", "2"], "[sweep]\ncount = 99999999999999999999999\n", 2),
    (["estimate"], "[DEFAULT]\nn = 4\n", 2),
    (["estimate", "--mesh-n", "2"], "[DEFAULT]\nseed = 7\n[mesh]\n", 2),
    (["estimate", "--mesh-n", "2"], "[spectral]\ntol = 5\n", 2),
    (["solve", "--mesh-n", "2", "--L", "1e-11"], "[solver]\neps_r = 2\n", 2),
    (["estimate", "--mesh-n", "2"], "[material]\nkappa = 1\n", 2),
    (["solve", "--mesh-n", "2"], "[solver]\nL = 0\n[material]\ninv_m = 0\n", 2),
    (["estimate", "--mesh-n", "2"], b"[mesh]\nn = 4\xff\n", 2),  # not UTF-8
], ids=["estimate", "solve", "diverged", "L-1e300-diverged", "verify", "tau-1e-300", "n-1e23",
        "mesh-n-1e23", "sweep-count-1e23", "default-alone", "default-with-mesh", "spectral-tol-5", "eps_r-2",
        "kappa-1", "L-0-inv_m-0", "not-utf8"])
def test_cli_input_exits_with_its_code(tmp_path, capsys, argv, config, code):
    # Every input either runs or fails as one line: no test here allocates
    # what it probes, since each input that is too large fails at the parse.
    if config is not None:
        path = tmp_path / "exp.ini"
        path.write_bytes(config if isinstance(config, bytes) else config.encode())
        argv = [*argv, "--config", str(path)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("config error: ")


def test_cli_memory_error_is_a_one_line_error(monkeypatch, capsys):
    # An input that passes its checks but not the machine's memory, such as
    # --mesh-n 100000 (74.5 GiB), exits 2 with one line, not a traceback.
    import biotfs.cli

    def exhausted(cfg, mesh_ns):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(biotfs.cli, "estimate_report", exhausted)
    assert main(["estimate", "--mesh-n", "2"]) == 2
    assert capsys.readouterr().err == "cannot allocate: Unable to allocate 74.5 GiB for an array\n"


def test_cli_degenerate_estimate_is_a_one_line_error(tmp_path, capsys):
    # alpha = 1e-160 is in (0, 1], but the Schur product underflows to zero
    # and the estimate raises EstimationError; it once ended in a traceback
    # with exit 1.
    cfg = _write_cfg(tmp_path, "[material]\nalpha = 1e-160\n")
    assert main(["estimate", "--mesh-n", "3", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cannot estimate: the operator K of the pencil vanishes\n"


def test_cli_import_leaves_out_scipy_io():
    # Only --dump-matrices writes Matrix Market files; no other run loads
    # scipy.io (test_cli_dump_matrices reads what it writes).
    code = "import sys, biotfs.cli; print('scipy.io' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_cli_sweep_outputs(tmp_path, capsys):
    # The CSV is a view of the sidecar's rows: each line renders one row
    # field by field, and stdout carries the same bytes as the file.
    cfg = _write_cfg(
        tmp_path,
        "[mesh]\nn = 4 2\n[sweep]\nd_min = 1.0e11\nd_max = 1.3e11\ncount = 2\n",
    )
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5
    sidecar = json.loads((tmp_path / "sweep.csv.json").read_text())
    assert sidecar["schema"] == "biotfs.sweep/1"
    assert lines[0] == "n,h,D,L,avg_iterations,diverged"
    assert len(sidecar["rows"]) == 4
    for line, row in zip(lines[1:], sidecar["rows"]):
        fields = [str(row["n"])] + [repr(row[k]) for k in ("h", "D", "L", "avg_iterations")]
        fields.append("true" if row["diverged"] else "false")
        assert line == ",".join(fields)
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


@pytest.mark.parametrize("cmd", ["estimate", "solve", "sweep", "verify"])
def test_cli_reports_open_with_the_envelope(tmp_path, capsys, cmd):
    # Every JSON report opens with the same three keys, in this order.
    cfg = _write_cfg(
        tmp_path, "[mesh]\nn = 4\n[sweep]\nd_min = 1.0e11\nd_max = 1.3e11\ncount = 2\n"
    )
    out = tmp_path / "out"
    code = main([cmd, "--config", str(cfg), "--out", str(out)])
    assert code == (4 if cmd == "verify" else 0)
    doc = json.loads((tmp_path / "out.json" if cmd == "sweep" else out).read_text())
    assert list(doc)[:3] == ["schema", "version", "config_hash"]
    assert doc["schema"] == f"biotfs.{cmd}/1"


def test_cli_sweep_seed_matches_config_seed(tmp_path, capsys):
    grid = "[mesh]\nn = 4\n[sweep]\nd_min = 1.0e11\nd_max = 1.3e11\ncount = 2\n"
    flag_cfg = _write_cfg(tmp_path, grid)
    file_dir = tmp_path / "file"
    file_dir.mkdir()
    file_cfg = _write_cfg(file_dir, grid + "[spectral]\nseed = 7\n")
    by_flag = tmp_path / "flag.csv"
    by_file = tmp_path / "file.csv"
    assert main(["sweep", "--config", str(flag_cfg), "--seed", "7", "--out", str(by_flag)]) == 0
    assert main(["sweep", "--config", str(file_cfg), "--out", str(by_file)]) == 0
    flag_doc = json.loads((tmp_path / "flag.csv.json").read_text())
    file_doc = json.loads((tmp_path / "file.csv.json").read_text())
    assert flag_doc["estimates"] == file_doc["estimates"]
    assert flag_doc["config_hash"] == file_doc["config_hash"]
    assert by_flag.read_bytes() == by_file.read_bytes()


def test_cli_verify_exit_code_reflects_battery(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "verify.json"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr().out
    assert "richardson_equivalence_n8" in captured
    doc = json.loads(out.read_text())
    failing = {c["name"] for c in doc["checks"] if not c["passed"]}
    assert failing == {"kstar_route_vs_lambda_max_n4"}
    assert code == 4


def test_cli_dump_matrices(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    dump = tmp_path / "ops"
    code = main(
        ["estimate", "--config", str(cfg), "--dump-matrices", str(dump),
         "--out", str(tmp_path / "est.json")]
    )
    assert code == 0
    a = scipy.io.mmread(dump / "n4" / "A.mtx").tocsr()
    prob = bf.build_problem(4, parse_config(SMALL_CFG).material, sources=None)
    assert abs(a - prob.system.A).max() <= 1e-12 * abs(prob.system.A).max()
    d = scipy.io.mmread(dump / "n4" / "Ddiv.mtx").tocsr()
    ddiv = reduced_divdiv(prob.dofs)
    assert abs(d - ddiv).max() <= 1e-12 * abs(ddiv).max()
    assert (dump / "n4" / "mesh.txt").exists()


@pytest.mark.parametrize(
    "argv, meshes",
    [
        (["estimate", "--mesh-n", "4"], [4]),
        (["solve", "--mesh-n", "4"], [4]),
        (["sweep", "--mesh-n", "4"], [4]),
        (["verify"], [4, 8]),
    ],
)
def test_cli_dumps_exactly_the_meshes_it_runs(tmp_path, monkeypatch, capsys, argv, meshes):
    # main writes the dumps once for every command; the reports are stubbed
    # and record the meshes they are asked to run.
    import biotfs.cli

    ran = []
    check = {"name": "stub", "measured": 0.0, "bound": 1.0, "op": "<=", "passed": True}
    stubs = {
        "estimate_report": lambda cfg, mesh_ns: ran.extend(mesh_ns) or {},
        "solve_report": lambda cfg, n: ran.append(n) or {"diverged": False},
        "sweep_report": lambda cfg, mesh_ns: ran.extend(mesh_ns) or {"rows": []},
        "verify_report": lambda cfg: ran.extend([4, 8]) or {"passed": True, "checks": [check]},
    }
    for name, stub in stubs.items():
        monkeypatch.setattr(biotfs.cli, name, stub)
    dump = tmp_path / "ops"
    assert main(argv + ["--dump-matrices", str(dump)]) == 0
    assert ran == meshes
    assert sorted(p.name for p in dump.iterdir()) == [f"n{n}" for n in meshes]


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["estimate", "--mesh-n", "4"], 0),
        (["solve", "--mesh-n", "4", "--L", "8.5e-12"], 0),
        (["estimate", "--mesh-n", "4", "--dump-matrices", "{dump}"], 1),
        (["verify", "--dump-matrices", "{dump}"], 3),
    ],
)
def test_divdiv_assembled_only_where_read(tmp_path, monkeypatch, capsys, argv, expected):
    # No solve reads Ddiv: it is assembled once per dumped mesh and once by
    # verify's k_star side check, never by estimate or solve.
    import biotfs.assembly

    calls = _count_calls(monkeypatch, biotfs.assembly, "assemble_divdiv")
    argv = [a.format(dump=tmp_path / "ops") for a in argv]
    code = main(argv + ["--out", str(tmp_path / "out.json")])
    assert code in (0, 4)
    assert len(calls) == expected


def test_sweep_copies_share_two_factors(monkeypatch):
    # Every row of the sweep marches on the one system that build_problem
    # factored, with each step's loads passed as arguments, so A and Mp
    # are factored once each.
    import biotfs.assembly

    calls = _count_calls(monkeypatch, biotfs.assembly, "factorize")
    report = sweep_report(bf.default_config(), mesh_ns=(4,))
    assert len(report["rows"]) == 31
    assert len(calls) == 2


@pytest.mark.parametrize("report", [estimate_report, sweep_report])
def test_multi_mesh_reports_hold_one_problem_at_a_time(monkeypatch, small_cfg, report):
    # A mesh's problem, with its factors of A and Mp, is dead before the
    # next mesh is built, so a refinement study peaks at its largest mesh
    # alone; once the n = 64 problem was alive while n = 128's was factored.
    import gc
    import weakref

    import biotfs.experiment

    built = []
    original = biotfs.experiment.build_problem

    def tracked(*args, **kwargs):
        gc.collect()
        assert all(ref() is None for ref in built)
        problem = original(*args, **kwargs)
        built.append(weakref.ref(problem))
        return problem

    monkeypatch.setattr(biotfs.experiment, "build_problem", tracked)
    cfg = dataclasses.replace(small_cfg, sweep=SweepGrid(0.9e11, 1.5e11, 2))
    report(cfg, mesh_ns=(2, 3))
    assert len(built) == 2


def test_dump_matrices_factors_nothing(tmp_path, monkeypatch, capsys):
    # --dump-matrices writes the reduced operators that build_system
    # factors, but factors none of them; the report is stubbed so that only
    # the dump runs.
    import biotfs.assembly
    import biotfs.cli

    calls = _count_calls(monkeypatch, biotfs.assembly, "factorize")
    monkeypatch.setattr(biotfs.cli, "estimate_report", lambda cfg, mesh_ns: {})
    dump = tmp_path / "ops"
    assert main(["estimate", "--mesh-n", "4", "--dump-matrices", str(dump)]) == 0
    assert (dump / "n4" / "A.mtx").exists()
    assert calls == []
