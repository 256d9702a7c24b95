"""Experiment drivers: estimates, single solves, stabilization sweeps and a
verification battery. Each report is the plain dict its JSON prints; the
sweep's CSV is a view of its rows. A multi-mesh report holds one mesh's
problem, and so its factors, at a time.

Report schemas (stable within a major version):

* estimate: {"schema": "biotfs.estimate/1", "version", "config_hash",
  "mode", "meshes": [{"n", "h", "lambda_max", "lambda_min", "k_star",
  "beta", "omega_opt", "l_opt", "rho_opt", "d_opt", "iterations_used",
  "converged", "residuals"}]}
* solve: {"schema": "biotfs.solve/1", ..., "n", "h", "L", "L_mode",
  "steps": [{"index", "t", "iterations", "converged"}],
  "average_iterations", "diverged", "final_pressure_norm",
  "final_displacement_norm", "estimate"}, where "estimate" (an estimate
  mesh entry, the L marched at) is present only when L_mode is "optimal"
* sweep: the JSON sidecar {"schema": "biotfs.sweep/1", ..., "rows":
  [{"n", "h", "D", "L", "avg_iterations", "diverged"}] (sorted by (n, D)),
  "estimates": {str(n): {...}}, "predicted_d_opt": {str(n): float}}; its
  CSV view `sweep_csv` has the columns n,h,D,L,avg_iterations,diverged
* verify: {"schema": "biotfs.verify/1", ..., "passed", "checks":
  [{"name", "measured", "bound", "op", "passed"}]}
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from . import __version__
from .assembly import BiotSystem, MaterialParams, build_system, reduced_divdiv
from .config import ExperimentConfig, config_hash, default_config
from .linalg import dense_generalized_symmetric_eigen, m_norm, save_matrix_market
from .mesh import build_structured_mesh, build_taylor_hood_dofs, mesh_to_text
from .solver import (
    MANUFACTURED_SOURCES,
    SolverConfig,
    TransientProblem,
    build_problem,
    dense_schur,
    fixed_stress_step,
    richardson_step,
    schur_rhs,
    step_loads,
    time_march,
)
from .spectral import (
    SpectralEstimates,
    estimate_k_star,
    estimate_spectrum,
    optimal_parameters,
    schur_apply,
)


def _problem(cfg: ExperimentConfig, n: int) -> TransientProblem:
    sources = MANUFACTURED_SOURCES if cfg.sources == "manufactured" else None
    return build_problem(n, cfg.material, sources=sources)


def _estimates(cfg: ExperimentConfig, problem: TransientProblem) -> SpectralEstimates:
    spc = cfg.spectral
    return estimate_spectrum(
        problem.system, tol=spc.resolved_tol, maxit=spc.maxit, seed=spc.seed
    )


def _report(kind: str, cfg_hash: str, **fields) -> dict:
    """The report envelope of `kind` followed by its fields."""
    return {"schema": f"biotfs.{kind}/1", "version": __version__, "config_hash": cfg_hash,
            **fields}


def estimates_to_dict(n: int, est: SpectralEstimates) -> dict:
    return {
        "n": n,
        "h": 1.0 / n,
        "lambda_max": est.lambda_max,
        "lambda_min": est.lambda_min,
        "k_star": est.k_star,
        "beta": est.beta,
        "omega_opt": est.omega_opt,
        "l_opt": est.l_opt,
        "rho_opt": est.rho_opt,
        "d_opt": est.d_opt,
        "iterations_used": list(est.iterations_used) if est.iterations_used else None,
        "converged": est.converged,
        "residuals": list(est.residuals) if est.residuals else None,
    }


def estimate_report(cfg: ExperimentConfig, mesh_ns=None) -> dict:
    """Spectral estimates and derived parameters for every requested mesh."""
    ns = tuple(mesh_ns) if mesh_ns else cfg.mesh_ns
    meshes = [estimates_to_dict(n, _estimates(cfg, _problem(cfg, n))) for n in ns]
    return _report("estimate", config_hash(cfg), mode=cfg.spectral.mode, meshes=meshes)


def solve_report(cfg: ExperimentConfig, n: int) -> dict:
    """Time-march one mesh at cfg.L, a fixed value or "optimal" (estimated)."""
    problem = _problem(cfg, n)
    if cfg.L == "optimal":
        est = _estimates(cfg, problem)
        L, l_mode = est.l_opt, "optimal"
        extra = {"estimate": estimates_to_dict(n, est)}  # the estimate L comes from
    else:
        L, l_mode, extra = float(cfg.L), "fixed", {}
    solver = SolverConfig(L=L, eps_r=cfg.eps_r, max_iter=cfg.max_iter)
    result = time_march(problem, solver, cfg.temporal)
    steps = [
        {"index": i + 1, "t": float(t), "iterations": int(c), "converged": bool(ok)}
        for i, (t, c, ok) in enumerate(
            zip(result.times, result.counts, result.converged_flags)
        )
    ]
    return _report(
        "solve",
        config_hash(cfg),
        n=n,
        h=1.0 / n,
        L=L,
        L_mode=l_mode,
        steps=steps,
        average_iterations=result.average,
        diverged=result.diverged,
        final_pressure_norm=m_norm(problem.system.Mp, result.p),
        final_displacement_norm=m_norm(problem.system.A, result.u),
        **extra,
    )


def _sweep_mesh(cfg: ExperimentConfig, n: int):
    """Mesh n's estimate entry and sweep rows; its problem dies with the call."""
    problem = _problem(cfg, n)
    est = _estimates(cfg, problem)
    rows = []
    for d_value in cfg.sweep.values():
        L = float(cfg.material.alpha**2 / d_value)
        solver = SolverConfig(L=L, eps_r=cfg.eps_r, max_iter=cfg.max_iter)
        result = time_march(problem, solver, cfg.temporal)
        rows.append({"n": n, "h": 1.0 / n, "D": float(d_value), "L": L,
                     "avg_iterations": result.average, "diverged": result.diverged})
    return estimates_to_dict(n, est), rows


def sweep_report(cfg: ExperimentConfig, mesh_ns=None) -> dict:
    """Run the stabilization sweep over every (mesh, D) pair; the result is
    the JSON sidecar document, and `sweep_csv` renders its rows.

    A non-convergent row is recorded with the iteration cap as its average
    and the divergence flag set; an exception from a row propagates.
    """
    ns = tuple(mesh_ns) if mesh_ns else cfg.mesh_ns
    per_mesh = {str(n): _sweep_mesh(cfg, n) for n in sorted(ns)}
    return _report(
        "sweep",
        config_hash(cfg),
        rows=[row for _, rows in per_mesh.values() for row in rows],
        estimates={key: est for key, (est, _) in per_mesh.items()},
        predicted_d_opt={key: est["d_opt"] for key, (est, _) in per_mesh.items()},
    )


def sweep_csv(report: dict) -> str:
    """The CSV view of a sweep report: one line per row, floats by repr."""
    lines = ["n,h,D,L,avg_iterations,diverged"]
    for r in report["rows"]:
        lines.append(
            f"{r['n']},{r['h']!r},{r['D']!r},{r['L']!r},{r['avg_iterations']!r},"
            f"{'true' if r['diverged'] else 'false'}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verification battery


def _le(name: str, measured, bound) -> dict:
    return {"name": name, "measured": float(measured), "bound": float(bound), "op": "<=",
            "passed": bool(measured <= bound)}


def _gt(name: str, measured, bound) -> dict:
    return {"name": name, "measured": float(measured), "bound": float(bound), "op": ">",
            "passed": bool(measured > bound)}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _dense_pencil(system: BiotSystem):
    """Dense oracle of the pencil (S, Mp): (Mp, w, v), with w the
    eigenvalues in ascending order and v the Mp-orthonormal eigenvectors."""
    mp = system.Mp.toarray()
    w, v = dense_generalized_symmetric_eigen(dense_schur(system), mp)
    return mp, w, v


def _error_ratios(system: BiotSystem, err: np.ndarray, omega: float, steps: int) -> list:
    """Mp-norm ratios ||e_k+1|| / ||e_k|| of `steps` steps of the Richardson
    error equation e <- e - omega inv(Mp) S e started from err. Each iterate
    is rescaled to unit norm, so no ratio under- or overflows."""
    zero = np.zeros(system.n_p)
    e = err / m_norm(system.Mp, err)
    ratios = []
    for _ in range(steps):
        e = richardson_step(system, e, omega, g_tilde=zero)
        ratios.append(m_norm(system.Mp, e))
        e /= ratios[-1]
    return ratios


def verify_report(cfg: ExperimentConfig) -> dict:
    """Dense-oracle verification battery on small meshes.

    Checks the Richardson equivalence of the splitting scheme, the spectral
    identifications of both bulk-type constants, the contraction bound, the
    parameter ordering chain and the estimator accuracy, each against an
    explicit numeric bound. The contraction and divergence checks iterate
    the error equation, with no exact solve, so they hold for every inv_m.
    It reads the material, tau and the spectral seed of cfg, and hashes only
    those and the time grid; its estimator tolerances are fixed here.
    """
    params = cfg.material
    alpha2 = params.alpha**2
    seed = cfg.spectral.seed

    # Small dense oracle mesh.
    prob4 = build_problem(4, params)
    sys4 = prob4.system
    mp4, w, _ = _dense_pencil(sys4)
    lam_min_d, lam_max_d = float(w[0]), float(w[-1])
    k_star_div = estimate_k_star(prob4, tol=1e-10, seed=seed)
    # The nonzero eigenvalues of the projected pencil (B' inv(Mp) B, A) are
    # those of (S0, Mp); B has full row rank, so the smallest is w_proj[-n_p].
    b4 = sys4.B.toarray()
    w_proj, _ = dense_generalized_symmetric_eigen(b4.T @ np.linalg.solve(mp4, b4), sys4.A)
    beta_ident = alpha2 / (lam_min_d - params.inv_m)
    est4 = estimate_spectrum(sys4, tol=1e-8, seed=seed)
    checks = [
        _le("kstar_route_vs_lambda_max_n4",
                 _rel(alpha2 / k_star_div + params.inv_m, lam_max_d), 1e-6),
        _le("beta_route_vs_lambda_min_n4",
            _rel(alpha2 / float(w_proj[-sys4.n_p]), beta_ident), 1e-6),
        _le("power_max_vs_dense_n4", _rel(est4.lambda_max, lam_max_d), 1e-6),
        _le("power_min_vs_dense_n4", _rel(est4.lambda_min, lam_min_d), 1e-6),
    ]

    rng = np.random.default_rng(seed)
    sym_err = 0.0
    scale = abs(w).max() * float(np.linalg.norm(mp4, 2))
    for _ in range(20):
        pv = rng.standard_normal(sys4.n_p)
        qv = rng.standard_normal(sys4.n_p)
        sym_err = max(
            sym_err,
            abs(float(qv @ schur_apply(sys4, pv)) - float(pv @ schur_apply(sys4, qv))),
        )
    checks.append(_le("schur_symmetry_n4", sym_err / scale, 1e-10))

    # Richardson equivalence and contraction on a slightly larger mesh,
    # under the first-step loads of the built-in sources.
    prob8 = build_problem(8, params)
    sys8, tau = prob8.system, cfg.temporal.tau
    f8, g8 = step_loads(prob8, tau, tau, np.zeros(sys8.n_u), np.zeros(sys8.n_p))
    _, w8, v8 = _dense_pencil(sys8)
    lmax8 = float(w8[-1])
    est8 = optimal_parameters(lmax8, float(w8[0]), params)

    L_phys = alpha2 / params.drained_bulk_modulus
    omega = 1.0 / (L_phys + params.inv_m)
    gt = schur_rhs(sys8, f8, g8)
    p_fs = np.zeros(sys8.n_p)
    u_fs = sys8.a_solve(f8 + sys8.B.T @ p_fs)
    p_ri = p_fs.copy()
    eq_err = 0.0
    for _ in range(20):
        u_fs, p_fs, _ = fixed_stress_step(sys8, f8, g8, u_fs, p_fs, L_phys)
        p_ri = richardson_step(sys8, p_ri, omega, g_tilde=gt)
        eq_err = max(
            eq_err,
            float(np.linalg.norm(p_fs - p_ri)) / max(float(np.linalg.norm(p_ri)), 1e-300),
        )
    checks.append(_le("richardson_equivalence_n8", eq_err, 1e-8))

    # Random errors: every step's ratio, then the mean rate over steps 26-50.
    worst = max(max(_error_ratios(sys8, rng.standard_normal(sys8.n_p), om, 50)) - est8.rho(om)
                for om in (0.5 * est8.omega_opt, est8.omega_opt, 0.9 * (2.0 / lmax8)))
    tail = _error_ratios(sys8, rng.standard_normal(sys8.n_p), est8.omega_opt, 50)[25:]
    tail_ratio = float(np.exp(np.mean(np.log(tail))))
    in_lo = est8.l_opt >= alpha2 / (2.0 * est8.k_star) * (1.0 - 1e-12)
    in_hi = est8.l_opt <= alpha2 / est8.k_star * (1.0 + 1e-12)
    checks += [
        _le("contraction_bound_n8", worst, 1e-8),
        _le("contraction_asymptote_n8", abs(tail_ratio / est8.rho_opt - 1.0), 0.05),
        _gt("ordering_beta_over_kstar_n8", est8.beta / est8.k_star, 1.0 - 1e-12),
        _gt("ordering_kstar_over_kdr_n8",
                 est8.k_star / params.drained_bulk_modulus, 1.0 - 1e-12),
        _gt("lopt_within_interval_n8", float(in_lo and in_hi), 0.0),
    ]

    # Relaxation past 2 / lambda_max grows the error along the top eigenvector.
    ratios = _error_ratios(sys8, v8[:, -1], 2.0 / (0.9 * lmax8), 10)
    checks.append(_gt("divergence_growth_n8", float(np.prod(ratios)), 1.0))

    est_fine = estimate_spectrum(sys8, tol=1e-8, seed=seed)
    est_coarse = estimate_spectrum(sys8, tol=1e-3, seed=seed)
    checks.append(
        _le("coarse_vs_fine_lopt_n8", _rel(est_coarse.l_opt, est_fine.l_opt), 0.02)
    )

    # Hash only what the battery reads: the material, time grid and seed.
    defaults = default_config()
    read = dataclasses.replace(defaults, material=params, temporal=cfg.temporal,
                               spectral=dataclasses.replace(defaults.spectral, seed=seed))
    return _report("verify", config_hash(read),
                   passed=all(c["passed"] for c in checks), checks=checks)


def dump_system(n: int, params: MaterialParams, directory) -> None:
    """Write the reduced operators of the n x n mesh (Matrix Market) and the
    mesh dump. It assembles them with `build_system`, so nothing is factored."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    mesh = build_structured_mesh(n)
    dofs = build_taylor_hood_dofs(mesh)
    sys_red = build_system(dofs, params)
    save_matrix_market(directory / "A.mtx", sys_red.A)
    save_matrix_market(directory / "B.mtx", sys_red.B)
    save_matrix_market(directory / "Mp.mtx", sys_red.Mp)
    save_matrix_market(directory / "Ddiv.mtx", reduced_divdiv(dofs))
    (directory / "mesh.txt").write_text(mesh_to_text(mesh), encoding="ascii")
