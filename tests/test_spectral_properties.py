"""Property tests of the spectral estimates over the admissible material space.

Each example builds a small mesh (n = 2 gives a single pressure dof, where
one Lanczos step is exact) and checks the SpectralEstimates
invariants, the agreement with the dense oracle, and that the Richardson
error contracts at the estimated optimum by no more than rho_opt per step.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import biotfs as bf

SLACK = 1e-12
# Over the 50 examples below the largest step ratio exceeded rho_opt by
# 1.9e-16, a rounding; 1e-12 leaves room for other platforms' rounding and
# stays far below the 1e-8 eigenvalue tolerance that bounds rho_opt.
CONTRACTION_SLACK = 1e-12


@st.composite
def materials(draw):
    mu = 10.0 ** draw(st.floats(6.0, 11.0))
    # lam/mu from zero up to the near-incompressible 1e4, log-spaced.
    lam = mu * draw(st.just(0.0) | st.floats(-3.0, 4.0).map(lambda e: 10.0**e))
    alpha = draw(st.floats(0.05, 1.0))
    # inv_m from zero up to ten times the drained scale alpha^2 / K_dr.
    inv_m = draw(st.floats(0.0, 10.0)) * alpha**2 / (mu + lam)
    return bf.MaterialParams(mu=mu, lam=lam, alpha=alpha, inv_m=inv_m)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(params=materials(), n=st.integers(2, 10), seed=st.integers(0, 2**31))
def test_estimates_hold_invariants_and_match_dense(params, n, seed):
    system = bf.build_problem(n, params, sources=None).system.prepare()
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

    w, _ = bf.dense_generalized_symmetric_eigen(bf.dense_schur(system), system.Mp)
    assert abs(est.lambda_max - w[-1]) <= 1e-8 * w[-1]
    assert abs(est.lambda_min - w[0]) <= 1e-8 * w[0]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(params=materials(), n=st.integers(2, 10), seed=st.integers(0, 2**31))
def test_richardson_error_contracts_by_rho_opt(params, n, seed):
    system = bf.build_problem(n, params, sources=None).system.prepare()
    est = bf.estimate_spectrum(system, tol=1e-8, seed=seed)
    zero = np.zeros(system.n_p)
    e = np.random.default_rng(seed).standard_normal(system.n_p)
    for _ in range(30):
        norm = bf.m_norm(system.Mp, e)
        if norm == 0.0:  # n = 2: one step solves the 1x1 pencil exactly
            break
        e = bf.richardson_step(system, e / norm, est.omega_opt, g_tilde=zero)
        assert bf.m_norm(system.Mp, e) <= est.rho_opt + CONTRACTION_SLACK
