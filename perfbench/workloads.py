"""Benchmark workloads: the CLI arguments each operation gets and the
correctness check of its output against perfbench/reference.json.

Every check returns the problems it found (empty when the output is
correct) and facts read from the output: the accuracy in correct
significant digits of the headline number (`answer_digits`) and, where the
program reports it, the estimator's `power_steps`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

MARCH_L = 8.5e-12  # fixed stabilization near L_opt(n=64) = 8.539e-12
LOPT_TOL = 1e-3  # relative, estimate-n64 against the eigsh reference
NORM_TOL = 1e-4  # relative, final march norms against the exact march
DIGITS_CAP = 12.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # biotfs subcommand: estimate, solve or sweep
    n: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "estimate-n64", "estimate", 64,
            "spectral-heavy: a priori L_opt from ~385 matrix-free Schur applies on one factor "
            "of A; no splitting, sweep batching bypassed",
        ),
        Workload(
            "march-n64", "solve", 64,
            "solver-heavy: 10 fixed-stress steps (263 iterations) at a fixed L near L_opt "
            "on a large factor; estimator bypassed",
        ),
        Workload(
            "sweep-n16", "sweep", 16,
            "31-row D sweep: ~50k tiny factor solves; Python loop, m_norm and step loads "
            "weigh; one near-critical and one diverging row",
        ),
    )
}


def cli_args(workload: Workload, seed: int, work: Path) -> list:
    """Arguments of one CLI operation; `seed` is the spectral seed."""
    n = str(workload.n)
    if workload.command == "estimate":
        return ["estimate", "--mesh-n", n, "--mode", "fine", "--seed", str(seed),
                "--out", str(work / "estimate.json")]
    if workload.command == "solve":
        return ["solve", "--mesh-n", n, "--L", repr(MARCH_L), "--seed", str(seed),
                "--out", str(work / "solve.json")]
    # `sweep` reads its spectral seed from the configuration file only.
    ini = work / "sweep.ini"
    ini.write_text(f"[spectral]\nseed = {seed}\n", encoding="utf-8")
    return ["sweep", "--mesh-n", n, "--config", str(ini),
            "--out", str(work / "sweep.csv")]


def digits(value: float, ref: float) -> float:
    """min(12, -log10(|value - ref| / |ref|))."""
    rel = _rel(value, ref)
    return DIGITS_CAP if rel <= 10.0 ** -DIGITS_CAP else min(DIGITS_CAP, -math.log10(rel))


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def check(workload: Workload, exit_code: int, work: Path, reference: dict,
          state: dict) -> tuple:
    """(problems, facts) of one finished operation.

    `state` carries what must repeat across the operations of one run (the
    sweep CSV bytes); pass the same dict to every call of a run.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    try:
        return CHECKS[workload.command](workload, work, reference, state)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"], {}


def _check_estimate(workload, work, reference, state):
    report = json.loads((work / "estimate.json").read_text(encoding="utf-8"))
    (mesh,) = report["meshes"]
    problems = invariant_problems(mesh, reference["material"])
    if mesh["n"] != workload.n:
        problems.append(f"mesh n={mesh['n']}, expected {workload.n}")
    ref = reference["spectral"][str(workload.n)]["l_opt"]
    if not _rel(mesh["l_opt"], ref) <= LOPT_TOL:
        problems.append(f"l_opt {mesh['l_opt']!r} off the reference {ref!r} by more than {LOPT_TOL}")
    return problems, {"answer_digits": digits(mesh["l_opt"], ref),
                      "power_steps": sum(mesh["iterations_used"])}


def invariant_problems(mesh: dict, material: dict) -> list:
    """SpectralEstimates invariants of one estimate-report mesh entry."""
    alpha2 = material["alpha"] ** 2
    lmin, lmax = mesh["lambda_min"], mesh["lambda_max"]
    k_star, beta, l_opt = mesh["k_star"], mesh["beta"], mesh["l_opt"]
    slack = 1.0 + 1e-12
    conditions = {
        "converged": mesh["converged"] is True,
        "0 < lambda_min <= lambda_max": 0.0 < lmin <= lmax,
        "beta >= k_star": beta * slack >= k_star,
        "k_star >= K_dr": k_star * slack >= material["k_dr"],
        "l_opt >= alpha^2/(2 k_star)": l_opt * slack >= alpha2 / (2.0 * k_star),
        "l_opt <= alpha^2/k_star": l_opt <= slack * alpha2 / k_star,
        "rho_opt < 1": mesh["rho_opt"] < 1.0,
    }
    return [f"invariant violated: {name}" for name, ok in conditions.items() if not ok]


def _check_solve(workload, work, reference, state):
    report = json.loads((work / "solve.json").read_text(encoding="utf-8"))
    ref = reference["march"][str(workload.n)]
    problems = []
    steps = report["steps"]
    if len(steps) != ref["steps"] or not all(s["converged"] for s in steps):
        problems.append(
            f"{sum(s['converged'] for s in steps)} of {len(steps)} steps converged, "
            f"expected {ref['steps']} converged steps"
        )
    answer = math.inf
    for key in ("final_pressure_norm", "final_displacement_norm"):
        if not _rel(report[key], ref[key]) <= NORM_TOL:
            problems.append(f"{key} {report[key]!r} off the exact march {ref[key]!r}")
        answer = min(answer, digits(report[key], ref[key]))
    return problems, {"answer_digits": answer}


SWEEP_EXACT = ("n", "h", "D", "L", "diverged")


def _check_sweep(workload, work, reference, state):
    csv_bytes = (work / "sweep.csv").read_bytes()
    problems = []
    first = state.setdefault("sweep_csv", csv_bytes)
    if csv_bytes != first:
        problems.append("sweep CSV bytes differ from the first operation of this run")
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
    ref_rows = list(csv.DictReader(io.StringIO(reference["sweep"][str(workload.n)]["csv"])))
    if len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} sweep rows, expected {len(ref_rows)}")
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if any(row[c] != ref[c] for c in SWEEP_EXACT):
            problems.append(f"row {i}: {row} differs from the reference {ref}")
        elif abs(float(row["avg_iterations"]) - float(ref["avg_iterations"])) > 1.0:
            problems.append(f"row {i}: avg_iterations {row['avg_iterations']} "
                            f"vs reference {ref['avg_iterations']}")
    if argmin_row(rows) != argmin_row(ref_rows):
        problems.append(f"argmin row {argmin_row(rows)}, expected {argmin_row(ref_rows)}")
    sidecar = json.loads((work / "sweep.csv.json").read_text(encoding="utf-8"))
    estimate = sidecar["estimates"][str(workload.n)]
    return problems, {
        "answer_digits": digits(estimate["l_opt"], reference["spectral"][str(workload.n)]["l_opt"]),
        "power_steps": sum(estimate["iterations_used"]),
    }


def argmin_row(rows) -> int:
    values = [float(r["avg_iterations"]) for r in rows]
    return values.index(min(values)) if values else -1


CHECKS = {"estimate": _check_estimate, "solve": _check_solve, "sweep": _check_sweep}
