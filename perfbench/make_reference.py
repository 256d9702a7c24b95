"""Regenerate perfbench/reference.json, the data the correctness checks use.

    PYTHONPATH=src python3 perfbench/make_reference.py    # from the repo root

Method (recorded in the file under "method"):

* spectral: both extreme eigenvalues of the pencil (S, Mp), S = B inv(A) B'
  applied matrix-free through one factorization of A, by ARPACK
  (`scipy.sparse.linalg.eigsh`, which="BE", k=2, tol=1e-12, M=Mp,
  Minv=Mp solve), then l_opt by `biotfs.optimal_parameters`. The
  Mp^-1-norm eigen-residuals are stored as the certificate. Pressure
  spaces too small for ARPACK use the dense oracle directly; at n=16 the
  eigsh values are cross-checked against
  `dense_generalized_symmetric_eigen(dense_schur(...), Mp)`.
* march: the implicit-Euler march of `biotfs solve` with every step solved
  exactly (`monolithic_solve`: Schur CG to 1e-13, or dense Cholesky on small
  pressure spaces) instead of by splitting; the final pressure (Mp) and
  displacement (A) energy norms are the reference. The splitting march of
  the program at that L is stored next to it for information.
* sweep: the CSV text `biotfs sweep` writes at this commit (regression
  reference; its rows are iteration counts, which have no exact oracle).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

import biotfs as bf
from biotfs.config import default_config
from workloads import MARCH_L

HERE = Path(__file__).resolve().parent
SPECTRAL_NS = (16, 64)
MARCH_NS = (64,)
SWEEP_NS = (16,)
EIGSH_TOL = 1e-12
DENSE_BELOW = 100  # pressure dofs under which the dense oracle is used
DENSE_CROSS_CHECK_N = 16


def _system(n: int):
    return bf.build_problem(n, default_config().material).system.prepare()


def _m_inv_norm(system, r):
    return float(np.sqrt(max(float(r @ system.m_solve(r)), 0.0)))


def spectral_reference(n: int, seed: int = 1) -> dict:
    """Extreme eigenvalues of (S, Mp) and the optimal parameters at mesh n."""
    system = _system(n)
    size = system.n_p
    if size < DENSE_BELOW:
        w, vecs = bf.dense_generalized_symmetric_eigen(bf.dense_schur(system), system.Mp)
        values, vecs, method = w[[0, -1]], vecs[:, [0, -1]], "dense"
    else:
        schur = spla.LinearOperator((size, size), dtype=float,
                                    matvec=lambda x: bf.schur_apply(system, x))
        m_inv = spla.LinearOperator((size, size), dtype=float, matvec=system.m_solve)
        v0 = np.random.default_rng(seed).standard_normal(size)
        values, vecs = spla.eigsh(schur, k=2, M=system.Mp, Minv=m_inv,
                                  which="BE", tol=EIGSH_TOL, v0=v0)
        method = "eigsh"
    residuals = []
    for lam, v in zip(values, vecs.T):
        r = bf.schur_apply(system, v) - lam * (system.Mp @ v)
        residuals.append(_m_inv_norm(system, r) / (abs(lam) * bf.m_norm(system.Mp, v)))
    lmin, lmax = float(min(values)), float(max(values))
    est = bf.optimal_parameters(lmax, lmin, system.params)
    out = {
        "method": method,
        "lambda_min": lmin,
        "lambda_max": lmax,
        "l_opt": est.l_opt,
        "rho_opt": est.rho_opt,
        "max_relative_residual": max(residuals),
    }
    if method == "eigsh" and n == DENSE_CROSS_CHECK_N:
        w, _ = bf.dense_generalized_symmetric_eigen(bf.dense_schur(system), system.Mp)
        dense = bf.optimal_parameters(float(w[-1]), float(w[0]), system.params)
        out["dense_relative_difference"] = {
            "lambda_min": abs(lmin - w[0]) / w[0],
            "lambda_max": abs(lmax - w[-1]) / w[-1],
            "l_opt": abs(est.l_opt - dense.l_opt) / dense.l_opt,
        }
    return out


def march_reference(n: int, L: float) -> dict:
    """Final norms of the exactly solved implicit-Euler march at mesh n."""
    cfg = default_config()
    problem = bf.build_problem(n, cfg.material)
    base = problem.system.prepare()
    step = dataclasses.replace(base)
    mesh, dofs, tau = problem.mesh, problem.dofs, cfg.temporal.tau
    u, p = np.zeros(base.n_u), np.zeros(base.n_p)
    times = cfg.temporal.times()
    for t in times:
        step.f = bf.assemble_momentum_load(mesh, dofs, problem.body_force, t)[dofs.free_u]
        g = base.B @ u
        if cfg.material.inv_m != 0.0:
            g = g + cfg.material.inv_m * (base.Mp @ p)
        step.g = g + tau * bf.assemble_source_moment(mesh, dofs, problem.fluid_source, t)[dofs.free_p]
        u, p = bf.monolithic_solve(step)
    program = bf.time_march(
        problem, bf.SolverConfig(L=L, eps_r=cfg.eps_r, max_iter=cfg.max_iter), cfg.temporal
    )
    return {
        "L": L,
        "steps": len(times),
        "final_pressure_norm": bf.m_norm(base.Mp, p),
        "final_displacement_norm": bf.m_norm(base.A, u),
        "program_final_pressure_norm": bf.m_norm(base.Mp, program.p),
        "program_final_displacement_norm": bf.m_norm(base.A, program.u),
        "program_iterations": [int(c) for c in program.counts],
    }


def sweep_reference(n: int, seed: int = 1) -> dict:
    cfg = dataclasses.replace(
        default_config(), spectral=dataclasses.replace(default_config().spectral, seed=seed)
    )
    return {"csv": bf.sweep_report(cfg, mesh_ns=(n,)).to_csv_text()}


def build_reference(spectral_ns=SPECTRAL_NS, march_ns=MARCH_NS, sweep_ns=SWEEP_NS) -> dict:
    material = default_config().material
    return {
        "method": __doc__.split("Method (recorded in the file under \"method\"):")[1].strip(),
        "material": {"alpha": material.alpha, "k_dr": material.drained_bulk_modulus},
        "spectral": {str(n): spectral_reference(n) for n in spectral_ns},
        "march": {str(n): march_reference(n, MARCH_L) for n in march_ns},
        "sweep": {str(n): sweep_reference(n) for n in sweep_ns},
    }


def main() -> int:
    reference = build_reference()
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
