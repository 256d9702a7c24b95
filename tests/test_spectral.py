import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import biotfs as bf
from biotfs.assembly import reduced_divdiv
from biotfs.linalg import factorize
from biotfs.spectral import EstimationError, SpectralEstimates, _extreme_eigs


def _identity(x):
    return x


def _explicit_pencil(K, M):
    """The operators (K, M, Minv) that _extreme_eigs takes for explicit K, M."""
    return K.__matmul__, M, factorize(M).solve


@pytest.fixture(scope="module")
def system16(params):
    return bf.build_problem(16, params, sources=None).system


def test_schur_apply_zero(problem4):
    system = problem4.system
    out = bf.schur_apply(system, np.zeros(system.n_p))
    assert np.all(out == 0.0)


def test_schur_apply_decoupled_fixture(problem4, params):
    # With the coupling zeroed out and no compressibility the operator is 0.
    system = problem4.system
    empty = sp.csr_matrix(system.B.shape)
    decoupled = dataclasses.replace(system, B=empty)
    out = bf.schur_apply(decoupled, np.ones(system.n_p))
    assert np.all(out == 0.0)


def test_schur_apply_matches_dense(problem4):
    system = problem4.system
    s_dense = bf.dense_schur(system)
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = rng.standard_normal(system.n_p)
        ref = s_dense @ p
        out = bf.schur_apply(system, p)
        assert np.abs(out - ref).max() <= 1e-10 * np.abs(ref).max()


def test_schur_apply_dimension_check(problem4):
    with pytest.raises(ValueError):
        bf.schur_apply(problem4.system, np.zeros(3))


def test_schur_symmetry_and_definiteness(problem4):
    system = problem4.system
    rng = np.random.default_rng(18)
    scale = None
    for _ in range(50):
        p = rng.standard_normal(system.n_p)
        q = rng.standard_normal(system.n_p)
        sp_ = bf.schur_apply(system, p)
        sq = bf.schur_apply(system, q)
        if scale is None:
            scale = np.linalg.norm(sp_) * np.linalg.norm(q)
        assert abs(float(q @ sp_) - float(p @ sq)) <= 1e-10 * scale
        assert float(p @ sp_) > 0.0


def test_power_max_diag_fixture():
    K = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
    (value,), _, _, converged = _extreme_eigs(
        K.__matmul__, sp.identity(3), _identity, "LA", 1e-10, 10000, 0)
    assert converged
    assert value == pytest.approx(3.0, rel=1e-8)


def test_power_max_proportional_pencil_one_step():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((6, 6))
    M = a @ a.T + 6 * np.eye(6)
    c = 2.5
    pen = _explicit_pencil(sp.csr_matrix(c * M), sp.csr_matrix(M))
    (value,), _, applies, converged = _extreme_eigs(*pen, "LA", 1e-12, 100, 0)
    assert value == pytest.approx(c, rel=1e-12)
    # A flat spectrum is exact after one Lanczos step; the bound allows
    # the size of the pencil plus one.
    assert converged
    assert applies <= 1 + (6 + 1)


def test_power_max_vs_dense(problem4, dense_eigen4):
    w, _ = dense_eigen4
    est = bf.estimate_spectrum(problem4.system, tol=1e-8, maxit=100000, seed=1)
    assert est.converged
    assert abs(est.mu_max - w[-1]) <= 1e-6 * w[-1]


def test_power_max_cap_flags_inexact(system16):
    # One Lanczos step at n=16 leaves lambda_max unconverged.
    est = bf.estimate_spectrum(system16, tol=1e-12, maxit=1, seed=1)
    assert not est.converged
    assert est.iterations_used[0] > 0
    assert 0.0 < est.lambda_min <= est.lambda_max < np.inf


def test_step_cap_counts_schur_applies(system16):
    est = bf.estimate_spectrum(system16, tol=1e-12, maxit=5, seed=1)
    assert est.iterations_used == (5, 0)
    assert est.converged is False
    assert 0.0 < est.lambda_min <= est.lambda_max


def test_step_cap_sizes_no_allocation(system16):
    # The basis grows with the steps taken, so a huge cap costs nothing.
    est = bf.estimate_spectrum(system16, tol=1e-8, maxit=10**9, seed=1)
    assert est.converged
    assert max(est.residuals) <= 1e-8


def test_basis_growth_leaves_the_estimate_bit_identical(system16, monkeypatch):
    # A first block of 2 rows doubles four times before the run stops;
    # growth only copies rows, so every estimate keeps its bits.
    import biotfs.spectral

    want = bf.estimate_spectrum(system16, tol=1e-8, seed=1)
    assert want.iterations_used[0] > 2 * 2**3
    monkeypatch.setattr(biotfs.spectral, "BASIS_ROWS", 2)
    assert bf.estimate_spectrum(system16, tol=1e-8, seed=1) == want


def test_estimate_scales_with_the_moduli(params):
    # S0 = B inv(A) B' scales as 1/mu when mu and lambda scale together, so
    # l_opt does and rho_opt does not. At 1e289 the Lanczos energy norms
    # fall below 1e-160, where x' M x underflows; the run once stopped after
    # one step, certified, with rho_opt 0 and l_opt 12.5% off.
    scale = 1e289
    base = bf.estimate_spectrum(bf.build_problem(4, params).system, tol=1e-8, seed=1)
    big = dataclasses.replace(params, mu=params.mu * scale, lam=params.lam * scale)
    est = bf.estimate_spectrum(bf.build_problem(4, big).system, tol=1e-8, seed=1)
    assert est.converged
    assert est.iterations_used == base.iterations_used
    assert est.l_opt * scale == pytest.approx(base.l_opt, rel=1e-12, abs=0)
    assert est.rho_opt == pytest.approx(base.rho_opt, rel=1e-12, abs=0)


def test_power_min_diag_fixture():
    K = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
    (low, _), _, _, _ = _extreme_eigs(
        K.__matmul__, sp.identity(3), _identity, "BE", 1e-10, 10000, 0)
    assert low == pytest.approx(1.0, rel=1e-8)


def test_power_min_proportional_pencil():
    rng = np.random.default_rng(20)
    a = rng.standard_normal((5, 5))
    M = a @ a.T + 5 * np.eye(5)
    c = 0.75
    pen = _explicit_pencil(sp.csr_matrix(c * M), sp.csr_matrix(M))
    (low, _), _, _, _ = _extreme_eigs(*pen, "BE", 1e-12, 100, 0)
    assert low == pytest.approx(c, rel=1e-10)


def test_power_min_vs_dense(problem4, dense_eigen4):
    w, _ = dense_eigen4
    est = bf.estimate_spectrum(problem4.system, tol=1e-8, maxit=100000, seed=1)
    assert abs(est.mu_min - w[0]) <= 1e-6 * w[0]


def test_fine_estimate_certified_against_dense_n16(system16):
    # Stopping on a stalled Rayleigh quotient left lambda_max low by 4.8e-6
    # here while still reporting convergence.
    w, _ = bf.dense_generalized_symmetric_eigen(bf.dense_schur(system16), system16.Mp)
    est = bf.estimate_spectrum(system16, tol=1e-8, seed=1)
    assert est.converged
    assert max(est.residuals) <= 1e-8
    assert abs(est.mu_max - w[-1]) <= 1e-9 * w[-1]
    assert abs(est.mu_min - w[0]) <= 1e-9 * w[0]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fine_estimate_stops_at_first_certified_step_n16(system16, seed):
    # Checking both ends after every step certifies in 23-25 Schur applies
    # here; checking once per 20-vector restart cycle takes 39.
    est = bf.estimate_spectrum(system16, tol=1e-8, seed=seed)
    assert est.converged
    assert max(est.residuals) <= 1e-8
    assert est.iterations_used[0] <= 30


def test_failed_certificate_not_retried_at_rounding_floor(problem16, monkeypatch):
    # Below the rounding floor every certificate fails; recomputing it at
    # each later step took 613 Schur applies for 225 Lanczos steps here.
    import biotfs.spectral

    calls = []
    original = biotfs.spectral.schur_apply

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(biotfs.spectral, "schur_apply", counted)
    est = bf.estimate_spectrum(problem16.system, tol=1e-15, seed=1)
    assert len(calls) - est.iterations_used[0] <= 4
    assert est.converged is False
    assert 0.0 < est.lambda_min <= est.lambda_max


def test_estimate_spectrum_is_deterministic(system16):
    first = bf.estimate_spectrum(system16, tol=1e-8, seed=1)
    assert bf.estimate_spectrum(system16, tol=1e-8, seed=1) == first


def test_inv_m_free_quantities_are_bitwise_free_of_inv_m(params):
    # mu_max and mu_min come from the unshifted pencil, so l_opt, d_opt,
    # k_star and beta never add inv_m and subtract it again.
    derived = set()
    for inv_m in (0.0, 1e-9, 1.4e-5):
        material = dataclasses.replace(params, inv_m=inv_m)
        system = bf.build_problem(8, material, sources=None).system
        est = bf.estimate_spectrum(system, tol=1e-8, seed=1)
        derived.add((est.l_opt, est.d_opt, est.k_star, est.beta))
    assert len(derived) == 1


def _reduced_divdiv(problem):
    return reduced_divdiv(problem.dofs)


def test_estimate_k_star_vs_dense_n8(problem8):
    k_star = bf.estimate_k_star(problem8, tol=1e-10, seed=1)
    w, _ = bf.dense_generalized_symmetric_eigen(_reduced_divdiv(problem8), problem8.system.A)
    assert abs(1.0 / k_star - w[-1]) <= 1e-9 * w[-1]


def test_rayleigh_quotients_bracketed(problem4, dense_eigen4):
    system = problem4.system
    w, _ = dense_eigen4
    rng = np.random.default_rng(22)
    for _ in range(100):
        p = rng.standard_normal(system.n_p)
        rq = float(p @ bf.schur_apply(system, p)) / float(p @ (system.Mp @ p))
        assert w[0] * (1 - 1e-10) <= rq <= w[-1] * (1 + 1e-10)


def test_estimate_k_star_exceeds_physical_modulus(problem4, params):
    k_star = bf.estimate_k_star(problem4, tol=1e-8, maxit=100000, seed=1)
    assert k_star >= params.drained_bulk_modulus


def test_estimate_k_star_vs_dense_same_pencil(problem4):
    k_star = bf.estimate_k_star(problem4, tol=1e-10, maxit=200000, seed=1)
    w, _ = bf.dense_generalized_symmetric_eigen(
        _reduced_divdiv(problem4).toarray(), problem4.system.A.toarray()
    )
    assert abs(1.0 / k_star - w[-1]) <= 1e-6 * w[-1]


def test_estimate_k_star_proportional_fixture():
    # One-dimensional analogue: stiffness T plays the div-div form and the
    # elastic operator is the same form scaled by (2*mu + lam).
    c = 2.0 * 3.0e9 + 1.5e9
    T = sp.csr_matrix(
        np.diag(2.0 * np.ones(9)) - np.diag(np.ones(8), 1) - np.diag(np.ones(8), -1)
    )
    # estimate_k_star takes a problem, so the explicit pencil goes straight
    # to the Lanczos routine it calls; k_star is the reciprocal of the top.
    pen = _explicit_pencil(T, sp.csr_matrix(c * T.toarray()))
    (value,), _, _, _ = _extreme_eigs(*pen, "LA", 1e-12, 1000, 0)
    assert 1.0 / value == pytest.approx(c, rel=1e-10)


def test_estimate_k_star_degenerate_signal(problem4):
    system = problem4.system
    zero = sp.csr_matrix(system.A.shape)
    with pytest.raises(EstimationError):
        _extreme_eigs(zero.__matmul__, system.A, system.a_solve, "LA", 1e-8, 100, 1)


def test_estimate_k_star_rejects_an_uncertified_value(problem4):
    # Three Lanczos steps leave the top eigenvalue's residual far above tol;
    # the estimate must fail instead of returning the uncertified value.
    with pytest.raises(EstimationError, match="not certified"):
        bf.estimate_k_star(problem4, tol=1e-10, maxit=3)


@pytest.mark.parametrize("kwargs", [{"maxit": 0}, {"maxit": 2.5}, {"tol": np.nan},
                                    {"tol": np.inf}, {"tol": 0.0}, {"tol": 1.0}],
                         ids=["maxit0", "maxit2.5", "tol_nan", "tol_inf", "tol0", "tol1"])
@pytest.mark.parametrize("estimator", ["spectrum", "k_star"])
def test_estimators_reject_bad_arguments(problem4, estimator, kwargs):
    # maxit = 0 used to fall off the Lanczos loop, maxit = 2.5 failed inside
    # range(), tol = nan used to run to the step cap and tol = 1 stopped
    # after one step, "converged"; each must fail before the first step.
    with pytest.raises(ValueError, match="finite tol > 0 and maxit >= 1"):
        if estimator == "spectrum":
            bf.estimate_spectrum(problem4.system, **kwargs)
        else:
            bf.estimate_k_star(problem4, **kwargs)


def test_estimate_beta_algebraic_inversion(params):
    c = 3.7e11
    lam_min = params.alpha**2 / c
    beta = bf.optimal_parameters(2.0 * lam_min, lam_min, params).beta
    assert beta == pytest.approx(c, rel=1e-12)


def test_estimate_beta_infsup_signal(params):
    # lambda_min no larger than inv_m signals a loss of inf-sup stability:
    # mu_min = lambda_min - inv_m is not positive.
    compressible = dataclasses.replace(params, inv_m=1.0e-11)
    with pytest.raises(ValueError, match="mu_min"):
        bf.optimal_parameters(2.0e-11, compressible.inv_m, compressible)


@pytest.mark.parametrize("inv_m", [0.0, 1.0e-11])
def test_estimate_beta_dense_proof_identity(params, inv_m):
    # beta from the shifted pencil (S, Mp) by optimal_parameters equals
    # alpha^2 over the smallest eigenvalue of the coupled pencil
    # (B inv(A) B', Mp), and over the smallest nonzero eigenvalue of the
    # projected pencil (B' inv(Mp) B, A): B has full row rank, so the kernel
    # has dimension n_u - n_p and that eigenvalue is w_proj[-n_p].
    material = dataclasses.replace(params, inv_m=inv_m)
    system = bf.build_problem(4, material, sources=None).system
    mp, b = system.Mp.toarray(), system.B.toarray()
    w, _ = bf.dense_generalized_symmetric_eigen(bf.dense_schur(system) + inv_m * mp, mp)
    beta_ident = bf.optimal_parameters(w[-1], w[0], material).beta
    wb, _ = bf.dense_generalized_symmetric_eigen(bf.dense_schur(system), mp)
    assert abs(material.alpha**2 / wb[0] - beta_ident) <= 1e-6 * beta_ident
    w_proj, _ = bf.dense_generalized_symmetric_eigen(b.T @ np.linalg.solve(mp, b), system.A)
    assert abs(material.alpha**2 / w_proj[-system.n_p] - beta_ident) <= 1e-6 * beta_ident


def test_beta_dominates_k_star(problem8, params):
    est = bf.estimate_spectrum(problem8.system, tol=1e-8, maxit=100000, seed=1)
    assert est.beta >= est.k_star


def test_optimal_parameters_degenerate_spectrum(params):
    lam = 2.0e-11
    est = bf.optimal_parameters(lam, lam, params)
    assert est.omega_opt == pytest.approx(1.0 / lam, rel=1e-14)
    assert est.rho_opt == 0.0
    assert est.l_opt == pytest.approx(params.alpha**2 / est.k_star, rel=1e-12)


def test_optimal_parameters_reduction_incompressible(params):
    # With inv_m = 0 and a flat spectrum, l_opt = alpha^2 / k.
    k = 8.0e10
    lam = params.alpha**2 / k
    est = bf.optimal_parameters(lam, lam, params)
    assert est.l_opt == pytest.approx(params.alpha**2 / k, rel=1e-12)


def test_optimal_parameters_ordering_violation(params):
    with pytest.raises(ValueError, match="mu_min"):
        bf.optimal_parameters(1.0e-11, 2.0e-11, params)


def test_identification_chain_closes(problem8, params):
    est = bf.estimate_spectrum(problem8.system, tol=1e-8, maxit=100000, seed=1)
    from_moduli = 0.5 * params.alpha**2 * (1.0 / est.k_star + 1.0 / est.beta)
    from_eigen = 0.5 * (est.lambda_max + est.lambda_min) - params.inv_m
    assert abs(from_moduli - est.l_opt) <= 1e-10 * est.l_opt
    assert abs(from_eigen - est.l_opt) <= 1e-10 * est.l_opt


def test_rho_factor(params):
    est = bf.optimal_parameters(4.0e-11, 1.0e-11, params)
    assert est.rho_opt == pytest.approx(0.6, rel=1e-14)
    assert est.rho(est.omega_opt) == pytest.approx(est.rho_opt, rel=1e-12)
    assert est.rho(0.0) == 1.0


def test_scaling_covariance(params):
    # Scaling the Lame parameters by c scales both moduli by c, both
    # eigenvalues by 1/c and the optimal stabilization by 1/c.
    c = 3.7
    scaled = bf.MaterialParams(
        mu=c * params.mu, lam=c * params.lam, alpha=params.alpha, inv_m=params.inv_m
    )
    est_base = _dense_estimates(bf.build_problem(4, params, sources=None).system, params)
    est_scaled = _dense_estimates(bf.build_problem(4, scaled, sources=None).system, scaled)
    assert est_scaled.k_star == pytest.approx(c * est_base.k_star, rel=1e-10)
    assert est_scaled.beta == pytest.approx(c * est_base.beta, rel=1e-10)
    assert est_scaled.lambda_max == pytest.approx(est_base.lambda_max / c, rel=1e-10)
    assert est_scaled.lambda_min == pytest.approx(est_base.lambda_min / c, rel=1e-10)
    assert est_scaled.l_opt == pytest.approx(est_base.l_opt / c, rel=1e-10)


def _dense_estimates(system, mats):
    w, _ = bf.dense_generalized_symmetric_eigen(
        bf.dense_schur(system), system.Mp.toarray()
    )
    return SpectralEstimates(w[-1], w[0], mats)
