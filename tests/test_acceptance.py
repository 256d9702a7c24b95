"""Acceptance battery.

Each test prints one PASS/FAIL line (visible with pytest -s or on failure)
and then asserts. The div-div route identity in criterion 2 is known to be
loose for this element pair; it is asserted as specified and its failure is
documented in the README.

Set BIOTFS_ACCEPTANCE_FULL=1 to extend the mesh-trend criterion to n = 128
(roughly an extra minute).
"""

import dataclasses
import os

import numpy as np
import pytest

import biotfs as bf
from biotfs.config import default_config
from biotfs.experiment import sweep_report
from biotfs.solver import fixed_stress_step, richardson_step, schur_rhs
from biotfs.spectral import SpectralEstimates

SEED = 1


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def cfg():
    return dataclasses.replace(default_config(), mesh_ns=(16,))


def test_criterion_1_richardson_equivalence(problem8, params):
    system, f, g = problem8.system, problem8.f, problem8.g
    L = params.alpha**2 / params.drained_bulk_modulus
    omega = 1.0 / (L + params.inv_m)
    gt = schur_rhs(system, f, g)
    p_fs = np.zeros(system.n_p)
    u_fs = system.a_solve(f + system.B.T @ p_fs)
    p_ri = p_fs.copy()
    worst = 0.0
    for _ in range(20):
        u_fs, p_fs, _ = fixed_stress_step(system, f, g, u_fs, p_fs, L)
        p_ri = richardson_step(system, p_ri, omega, g_tilde=gt)
        worst = max(
            worst,
            float(np.linalg.norm(p_fs - p_ri))
            / max(float(np.linalg.norm(p_ri)), 1e-300),
        )
    ok = worst <= 1e-8
    assert _report(
        "1 splitting/Richardson equivalence", ok, f"max rel diff {worst:.3e} <= 1e-8"
    )


def test_criterion_2_eigenvalue_identifications(problem4, dense_eigen4, params):
    system = problem4.system
    w, _ = dense_eigen4
    mu_min, mu_max = w[0], w[-1]

    k_star_div = bf.estimate_k_star(problem4, tol=1e-10, maxit=200000, seed=SEED)
    lam_max = mu_max + params.inv_m
    gap_max = abs(params.alpha**2 / k_star_div + params.inv_m - lam_max) / lam_max

    # Coupled route, independent of (S, Mp): the smallest nonzero eigenvalue
    # of the projected pencil (B' inv(Mp) B, A). B has full row rank, so the
    # kernel has dimension n_u - n_p and that eigenvalue is w_proj[-n_p].
    mp, b = system.Mp.toarray(), system.B.toarray()
    w_proj, _ = bf.dense_generalized_symmetric_eigen(b.T @ np.linalg.solve(mp, b), system.A)
    beta_dense = params.alpha**2 / w_proj[-system.n_p]
    beta_ident = params.alpha**2 / mu_min
    gap_min = abs(beta_dense - beta_ident) / beta_ident

    ok_max = gap_max <= 1e-6
    ok_min = gap_min <= 1e-6
    _report(
        "2 eigenvalue identifications",
        ok_max and ok_min,
        f"div-div route gap {gap_max:.3e} (<=1e-6), coupled route gap "
        f"{gap_min:.3e} (<=1e-6)",
    )
    assert ok_min, f"coupled-pencil identification gap {gap_min:.3e} exceeds 1e-6"
    assert ok_max, (
        f"div-div route identification gap {gap_max:.3e} exceeds 1e-6; the "
        "quadratic-form constant from the (Ddiv, A) pencil is provably only a "
        "one-sided bound for this element pair (see README)"
    )


def test_criterion_3_contraction_bound(problem8, dense_eigen8, params):
    system, f, g = problem8.system, problem8.f, problem8.g
    w, _ = dense_eigen8
    est = SpectralEstimates(w[-1], w[0], params)
    lam_max = est.lambda_max
    _, p_star = bf.monolithic_solve(system, f, g)
    gt = schur_rhs(system, f, g)
    rng = np.random.default_rng(SEED)
    p_scale = bf.m_norm(system.Mp, p_star)

    worst = -np.inf
    for omega in (0.5 * est.omega_opt, est.omega_opt, 0.9 * (2.0 / lam_max)):
        rho = est.rho(omega)
        err = rng.standard_normal(system.n_p)
        err *= 1e8 * p_scale / bf.m_norm(system.Mp, err)
        p_it = p_star + err
        prev = bf.m_norm(system.Mp, err)
        for _ in range(50):
            p_it = richardson_step(system, p_it, omega, g_tilde=gt)
            cur = bf.m_norm(system.Mp, p_it - p_star)
            worst = max(worst, cur / prev - rho)
            prev = cur
    ok_bound = worst <= 1e-8

    err = rng.standard_normal(system.n_p)
    err *= 1e8 * p_scale / bf.m_norm(system.Mp, err)
    p_it = p_star + err
    norms = [bf.m_norm(system.Mp, err)]
    for _ in range(50):
        p_it = richardson_step(system, p_it, est.omega_opt, g_tilde=gt)
        norms.append(bf.m_norm(system.Mp, p_it - p_star))
    tail = (norms[50] / norms[25]) ** (1.0 / 25.0)
    ok_asym = abs(tail / est.rho_opt - 1.0) <= 0.05

    ok = ok_bound and ok_asym
    assert _report(
        "3 contraction bound",
        ok,
        f"max ratio excess {worst:.3e} (<=1e-8), asymptotic ratio {tail:.4f} "
        f"vs rho_opt {est.rho_opt:.4f}",
    )


def test_criterion_4_sweep_optimality(cfg, params):
    report = sweep_report(cfg, mesh_ns=(16,))
    rows = report["rows"]
    d_opt = report["predicted_d_opt"]["16"]
    step = (cfg.sweep.d_max - cfg.sweep.d_min) / (cfg.sweep.count - 1)
    best = min(rows, key=lambda r: r["avg_iterations"])
    ok_argmin = abs(best["D"] - d_opt) <= step * (1.0 + 1e-12)

    prob = bf.build_problem(16, params)
    left = bf.time_march(
        prob,
        bf.SolverConfig(L=params.alpha**2 / 0.690e11, eps_r=cfg.eps_r,
                        max_iter=cfg.max_iter),
        cfg.temporal,
    ).average
    ok_ratio = left >= 1.3 * best["avg_iterations"]

    ok = ok_argmin and ok_ratio
    assert _report(
        "4 sweep optimality",
        ok,
        f"argmin D {best['D']:.4e} vs predicted {d_opt:.4e} (step {step:.3e}), "
        f"counts {left:.1f} at D=0.69e11 vs min {best['avg_iterations']:.1f} "
        f"(ratio {left / best['avg_iterations']:.2f} >= 1.3)",
    )


def test_criterion_5_divergence_threshold(problem8, dense_eigen8, params):
    system, f, g = problem8.system, problem8.f, problem8.g
    w, v = dense_eigen8
    k_star = params.alpha**2 / w[-1]
    L_bad = 0.9 * params.alpha**2 / (2.0 * k_star)
    omega = 1.0 / (L_bad + params.inv_m)
    assert omega > 2.0 / (w[-1] + params.inv_m)

    _, p_star = bf.monolithic_solve(system, f, g)
    gt = schur_rhs(system, f, g)
    top = v[:, -1]
    p_it = p_star + top * (
        bf.m_norm(system.Mp, p_star) / bf.m_norm(system.Mp, top)
    )
    e0 = bf.m_norm(system.Mp, p_it - p_star)
    for _ in range(10):
        p_it = richardson_step(system, p_it, omega, g_tilde=gt)
    e10 = bf.m_norm(system.Mp, p_it - p_star)
    ok = e10 > e0
    assert _report(
        "5 divergence threshold", ok, f"error growth {e10 / e0:.2f}x over 10 iterations"
    )


def test_criterion_6_ordering_chain(problem8, params):
    est = bf.estimate_spectrum(problem8.system, tol=1e-10, maxit=200000, seed=SEED)
    k_dr = params.drained_bulk_modulus
    k_star_div = bf.estimate_k_star(problem8, tol=1e-10, maxit=200000, seed=SEED)
    alpha2 = params.alpha**2
    ok = (
        est.beta >= est.k_star * (1.0 - 1e-12)
        and est.k_star >= k_dr * (1.0 - 1e-12)
        and k_star_div >= k_dr * (1.0 - 1e-12)
        and alpha2 / (2.0 * est.k_star) * (1.0 - 1e-12) <= est.l_opt
        and est.l_opt <= alpha2 / est.k_star * (1.0 + 1e-12)
    )
    assert _report(
        "6 ordering chain",
        ok,
        f"beta {est.beta:.4e} >= k_star {est.k_star:.4e} >= K_dr {k_dr:.4e}; "
        f"l_opt {est.l_opt:.4e} in [{alpha2 / (2 * est.k_star):.4e}, "
        f"{alpha2 / est.k_star:.4e}]",
    )


def test_criterion_7_power_iteration_vs_dense(problem4, dense_eigen4):
    system = problem4.system
    w, _ = dense_eigen4
    fine = bf.estimate_spectrum(system, tol=1e-8, maxit=200000, seed=SEED)
    gap_max = abs(fine.mu_max - w[-1]) / w[-1]
    gap_min = abs(fine.mu_min - w[0]) / w[0]
    coarse = bf.estimate_spectrum(system, tol=1e-3, maxit=200000, seed=SEED)
    gap_lopt = abs(coarse.l_opt - fine.l_opt) / fine.l_opt

    ok = gap_max <= 1e-6 and gap_min <= 1e-6 and gap_lopt <= 0.02
    assert _report(
        "7 spectral estimator vs dense oracle",
        ok,
        f"mu_max gap {gap_max:.3e}, mu_min gap {gap_min:.3e} (<=1e-6); "
        f"coarse-vs-fine l_opt gap {gap_lopt:.3e} (<=0.02)",
    )


def test_criterion_8_mesh_trend(params):
    ns = [16, 32, 64]
    if os.environ.get("BIOTFS_ACCEPTANCE_FULL") == "1":
        ns.append(128)
    d_opts = []
    for n in ns:
        prob = bf.build_problem(n, params, sources=None)
        est = bf.estimate_spectrum(prob.system, tol=1e-8, maxit=50000, seed=SEED)
        d_opts.append(params.alpha**2 / est.l_opt)
    ok = all(
        d_next <= d_prev * (1.0 + 1e-3)
        for d_prev, d_next in zip(d_opts, d_opts[1:])
    )
    detail = ", ".join(f"n={n}: {d:.4e}" for n, d in zip(ns, d_opts))
    assert _report("8 mesh trend of predicted optimum", ok, detail)
