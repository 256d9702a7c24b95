"""Property tests of the spectral estimates over the admissible material space.

Each example builds a small mesh (n = 2 gives a single pressure dof, where
one Lanczos step is exact) and checks the SpectralEstimates
invariants, the agreement with the dense oracles of (S, Mp) and of the
unshifted (S0, Mp), and that the Richardson error contracts at the
estimated optimum by no more than rho_opt per step. Two invariants of the
operators themselves hold there too: the splitting scheme's pressures are
the Richardson iterates, and S is symmetric.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import biotfs as bf
from biotfs.solver import fixed_stress_step, richardson_step, schur_rhs

SLACK = 1e-12
# Over the 50 examples below the largest step ratio exceeded rho_opt by
# 1.9e-16, a rounding; 1e-12 leaves room for other platforms' rounding and
# stays far below the 1e-8 eigenvalue tolerance that bounds rho_opt.
CONTRACTION_SLACK = 1e-12
# Over 500 random examples of the strategies below the largest relative
# gaps were 2.8e-13 (splitting against Richardson, 20 steps) and 6.2e-16
# (q.Sp against p.Sq). The bounds leave two orders of magnitude for
# rounding on other platforms; the equivalence bound stays 100x below the
# 1e-8 of the granite-default check.
EQUIVALENCE_BOUND = 1e-10
SYMMETRY_BOUND = 1e-13


@st.composite
def materials(draw):
    mu = 10.0 ** draw(st.floats(6.0, 11.0))
    # lam/mu from zero up to the near-incompressible 1e4, log-spaced.
    lam = mu * draw(st.just(0.0) | st.floats(-3.0, 4.0).map(lambda e: 10.0**e))
    alpha = draw(st.floats(0.05, 1.0))
    # inv_m from zero up to ten times the drained scale alpha^2 / K_dr.
    inv_m = draw(st.floats(0.0, 10.0)) * alpha**2 / (mu + lam)
    return bf.MaterialParams(mu=mu, lam=lam, alpha=alpha, inv_m=inv_m)


@st.composite
def gas_saturated(draw):
    # inv_m from the drained scale up to 1e6 times it, log-spaced: the fluid
    # term then dominates the pencil's spectrum by up to six digits.
    params = draw(materials())
    scale = params.alpha**2 / params.drained_bulk_modulus
    return dataclasses.replace(params, inv_m=10.0 ** draw(st.floats(0.0, 6.0)) * scale)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(params=materials(), n=st.integers(2, 10), seed=st.integers(0, 2**31))
def test_estimates_hold_invariants_and_match_dense(params, n, seed):
    system = bf.build_problem(n, params, sources=None).system
    est = bf.estimate_spectrum(system, tol=1e-8, seed=seed)

    assert est.converged
    assert max(est.residuals) <= 1e-8
    assert 0.0 < est.lambda_min <= est.lambda_max
    assert est.beta >= est.k_star * (1.0 - SLACK)
    assert est.k_star >= params.drained_bulk_modulus * (1.0 - SLACK)
    alpha2 = params.alpha**2
    assert alpha2 / (2.0 * est.k_star) * (1.0 - SLACK) <= est.l_opt
    assert est.l_opt <= alpha2 / est.k_star * (1.0 + SLACK)
    assert est.rho_opt < 1.0

    mu, _ = bf.dense_generalized_symmetric_eigen(bf.dense_schur(system), system.Mp)
    w = mu + params.inv_m  # the eigenvalues of (S, Mp)
    assert abs(est.lambda_max - w[-1]) <= 1e-8 * w[-1]
    assert abs(est.lambda_min - w[0]) <= 1e-8 * w[0]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(params=materials(), n=st.integers(2, 10), seed=st.integers(0, 2**31))
def test_richardson_error_contracts_by_rho_opt(params, n, seed):
    system = bf.build_problem(n, params, sources=None).system
    est = bf.estimate_spectrum(system, tol=1e-8, seed=seed)
    zero = np.zeros(system.n_p)
    e = np.random.default_rng(seed).standard_normal(system.n_p)
    for _ in range(30):
        norm = bf.m_norm(system.Mp, e)
        if norm == 0.0:  # n = 2: one step solves the 1x1 pencil exactly
            break
        e = richardson_step(system, e / norm, est.omega_opt, g_tilde=zero)
        assert bf.m_norm(system.Mp, e) <= est.rho_opt + CONTRACTION_SLACK


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(params=materials() | gas_saturated(), n=st.integers(2, 16), seed=st.integers(0, 2**31))
def test_tuning_parameters_match_dense_unshifted_pencil(params, n, seed):
    # l_opt, k_star and beta depend only on the extreme eigenvalues of
    # (S0, Mp), S0 = B inv(A) B', whatever inv_m is.
    system = bf.build_problem(n, params, sources=None).system
    est = bf.estimate_spectrum(system, tol=1e-8, seed=seed)
    w, _ = bf.dense_generalized_symmetric_eigen(bf.dense_schur(system), system.Mp)
    alpha2 = params.alpha**2
    for value, exact in ((est.l_opt, 0.5 * (w[-1] + w[0])),
                         (est.k_star, alpha2 / w[-1]),
                         (est.beta, alpha2 / w[0])):
        assert abs(value - exact) <= 1e-8 * exact


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(params=materials(), n=st.integers(2, 10))
def test_splitting_pressures_are_richardson_iterates(params, n):
    # 20 fixed-stress steps at L = alpha^2 / K_dr under the first-step loads
    # give the Richardson iterates at omega = 1/(L + inv_m), for inv_m = 0
    # and inv_m > 0 alike.
    problem = bf.build_problem(n, params)
    system = problem.system
    f, g = bf.step_loads(problem, 0.1, 0.1, np.zeros(system.n_u), np.zeros(system.n_p))
    L = params.alpha**2 / params.drained_bulk_modulus
    g_tilde = schur_rhs(system, f, g)
    u, p_fs = system.a_solve(f), np.zeros(system.n_p)
    p_ri = p_fs.copy()
    for _ in range(20):
        u, p_fs, _ = fixed_stress_step(system, f, g, u, p_fs, L)
        p_ri = richardson_step(system, p_ri, 1.0 / (L + params.inv_m), g_tilde=g_tilde)
        gap = np.linalg.norm(p_fs - p_ri) / max(np.linalg.norm(p_ri), 1e-300)
        assert gap <= EQUIVALENCE_BOUND


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(params=materials(), n=st.integers(2, 10), seed=st.integers(0, 2**31))
def test_schur_complement_is_symmetric(params, n, seed):
    # |q.Sp - p.Sq| relative to the Cauchy-Schwarz scale of the two products.
    system = bf.build_problem(n, params, sources=None).system
    p, q = np.random.default_rng(seed).standard_normal((2, system.n_p))
    sp, sq = bf.schur_apply(system, p), bf.schur_apply(system, q)
    scale = max(np.linalg.norm(q) * np.linalg.norm(sp), np.linalg.norm(p) * np.linalg.norm(sq))
    assert abs(q @ sp - p @ sq) <= SYMMETRY_BOUND * scale
