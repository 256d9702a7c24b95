import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

import biotfs as bf
from biotfs.solver import fixed_stress_step, richardson_step, schur_rhs
from biotfs.spectral import SpectralEstimates
from oracles import dense_block_solve, dense_fixed_stress_step


def l_physical(params):
    return params.alpha**2 / params.drained_bulk_modulus


def test_solver_config_validation():
    with pytest.raises(ValueError):
        bf.SolverConfig(L=-1.0)
    with pytest.raises(ValueError):
        bf.SolverConfig(L=1.0, eps_r=0.0)
    with pytest.raises(ValueError, match="eps_r must be positive"):
        bf.SolverConfig(L=1.0, eps_r=1.0)  # a relative tolerance of 1 stops every step at once
    with pytest.raises(ValueError):
        bf.SolverConfig(L=1.0, max_iter=0)


def test_time_grid_validation_and_step_count():
    grid = bf.TimeGrid(t0=0.0, tau=0.1, t_end=1.0)
    assert grid.n_steps == 10
    assert np.allclose(grid.times(), 0.1 * np.arange(1, 11))
    with pytest.raises(ValueError):
        bf.TimeGrid(t0=0.0, tau=0.3, t_end=1.0)
    with pytest.raises(ValueError):
        bf.TimeGrid(t0=0.0, tau=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        bf.TimeGrid(t0=1.0, tau=0.1, t_end=0.5)
    # A step count below one once gave a grid of 0 steps, and one that
    # overflows an OverflowError from round().
    for tau in (1e10, 5e-324):
        with pytest.raises(ValueError, match="positive integer"):
            bf.TimeGrid(t0=0.0, tau=tau, t_end=1.0)


def test_fixed_stress_step_zero_data_fixed_point(params):
    system = bf.build_problem(4, params, sources=None).system
    zu, zp = np.zeros(system.n_u), np.zeros(system.n_p)
    u, p, _ = fixed_stress_step(system, zu, zp, zu, zp, l_physical(params))
    assert np.all(u == 0.0)
    assert np.all(p == 0.0)


def test_fixed_stress_step_requires_positive_scale(params):
    system = bf.build_problem(4, params, sources=None).system
    zu, zp = np.zeros(system.n_u), np.zeros(system.n_p)
    with pytest.raises(ValueError):
        fixed_stress_step(system, zu, zp, zu, zp, 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_step_functions_reject_non_finite_stabilization(problem4, value):
    # A NaN stabilization once gave an all-NaN pressure, an infinite one
    # returned p_prev unchanged, and omega = NaN or inf gave NaN or -inf.
    system = problem4.system
    zu, zp, ones = np.zeros(system.n_u), np.zeros(system.n_p), np.ones(system.n_p)
    with pytest.raises(ValueError):
        fixed_stress_step(system, zu, zp, zu, ones, value)
    with pytest.raises(ValueError):
        richardson_step(system, ones, value, g_tilde=zp)


def test_fixed_stress_step_at_exact_solution(problem8, params):
    system, f, g = problem8.system, problem8.f, problem8.g
    u_star, p_star = bf.monolithic_solve(system, f, g)
    u1, p1, _ = fixed_stress_step(system, f, g, u_star, p_star, l_physical(params))
    p_scale = bf.m_norm(system.Mp, p_star)
    u_scale = bf.m_norm(system.A, u_star)
    assert bf.m_norm(system.Mp, p1 - p_star) <= 1e-9 * p_scale
    assert bf.m_norm(system.A, u1 - u_star) <= 1e-9 * u_scale


def test_fixed_stress_step_vs_dense_oracle(problem8, params):
    system, f = problem8.system, problem8.f
    rng = np.random.default_rng(21)
    g = rng.standard_normal(system.n_p)
    L = l_physical(params)
    p_prev = rng.standard_normal(system.n_p)
    u_prev = system.a_solve(f + system.B.T @ p_prev)
    u1, p1, _ = fixed_stress_step(system, f, g, u_prev, p_prev, L)
    u1_o, p1_o = dense_fixed_stress_step(system, f, g, u_prev, p_prev, L)
    assert np.abs(p1 - p1_o).max() <= 1e-10 * np.abs(p1_o).max()
    assert np.abs(u1 - u1_o).max() <= 1e-10 * np.abs(u1_o).max()


def test_fixed_stress_solve_zero_data_one_iteration(params):
    system = bf.build_problem(4, params, sources=None).system
    cfg = bf.SolverConfig(L=l_physical(params))
    u, p, trace = bf.fixed_stress_solve(system, np.zeros(system.n_u), np.zeros(system.n_p), cfg)
    assert trace.converged
    assert trace.iterations == 1
    assert np.all(u == 0.0) and np.all(p == 0.0)


def test_fixed_stress_solve_warm_start_count_is_one(problem8, params):
    system, f, g = problem8.system, problem8.f, problem8.g
    u_star, p_star = bf.monolithic_solve(system, f, g)
    cfg = bf.SolverConfig(L=l_physical(params))
    _, _, trace = bf.fixed_stress_solve(system, f, g, cfg, u_init=u_star, p_init=p_star)
    assert trace.converged
    assert trace.iterations == 1


def test_fixed_stress_solve_matches_monolithic(problem8, params):
    system, f, g = problem8.system, problem8.f, problem8.g
    cfg = bf.SolverConfig(L=l_physical(params), eps_r=1e-6)
    u, p, trace = bf.fixed_stress_solve(system, f, g, cfg)
    assert trace.converged
    u_star, p_star = bf.monolithic_solve(system, f, g)
    p_err = bf.m_norm(system.Mp, p - p_star) / bf.m_norm(system.Mp, p_star)
    u_err = bf.m_norm(system.A, u - u_star) / bf.m_norm(system.A, u_star)
    assert p_err <= 10 * cfg.eps_r
    assert u_err <= 10 * cfg.eps_r


def test_fixed_stress_solve_diverges_below_threshold(problem8, dense_eigen8, params):
    # Stabilizations below half the optimal band make the relaxation
    # overshoot (omega > 2/lambda_max) and the iteration grow.
    system, f, g = problem8.system, problem8.f, problem8.g
    w, v = dense_eigen8
    k_star = params.alpha**2 / w[-1]
    L_bad = 0.9 * params.alpha**2 / (2.0 * k_star)
    _, p_star = bf.monolithic_solve(system, f, g)
    p0 = p_star + v[:, -1] * bf.m_norm(system.Mp, p_star) / bf.m_norm(system.Mp, v[:, -1])
    u0 = system.a_solve(f + system.B.T @ p0)
    cfg = bf.SolverConfig(L=L_bad, max_iter=30)
    _, _, trace = bf.fixed_stress_solve(system, f, g, cfg, u_init=u0, p_init=p0)
    assert not trace.converged
    assert trace.iterations == 30
    dp = [rec[0] for rec in trace.increment_norms]
    assert dp[-1] > dp[5]


class CountingMatrix(sp.csr_matrix):
    """CSR matrix that counts its products."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.products = 0

    def __matmul__(self, x):
        self.products += 1
        return super().__matmul__(x)


def _two_step_states(params):
    """An n=8 system, its first-step loads, the second step's loads and
    the first step's state."""
    prob = bf.build_problem(8, params)
    system = prob.system
    cfg = bf.SolverConfig(L=l_physical(params))
    first = bf.step_loads(prob, 0.1, 0.1, np.zeros(system.n_u), np.zeros(system.n_p))
    u1, p1, _ = bf.fixed_stress_solve(system, *first, cfg)
    second = bf.step_loads(prob, 0.2, 0.1, u1, p1)
    return cfg, system, first, second, (u1, p1)


@pytest.mark.parametrize("inv_m", [0.0, 1e-11])
@pytest.mark.parametrize("start", ["cold", "warm"])
def test_free_energy_norms_match_explicit_products(params, inv_m, start):
    # The A-norms come from the elastic loads, not from products with A:
    # every load must be A u_next, in a new array on every step (the solve
    # keeps the previous one for ||du||_A), the increment norm must match
    # m_norm(A, .), and the solve must stop where a loop on explicit
    # products stops. The increment norm is a difference of nearly equal
    # loads, hence its looser bound.
    cfg, system, first, second, (u1, p1) = _two_step_states(
        dataclasses.replace(params, inv_m=inv_m))
    if start == "cold":
        loads, u, p, kwargs = first, np.zeros(system.n_u), np.zeros(system.n_p), {}
    else:
        loads, u, p, kwargs = second, u1, p1, {"u_init": u1, "p_init": p1}
    _, _, trace = bf.fixed_stress_solve(system, *loads, cfg, **kwargs)
    assert trace.converged and trace.iterations > 3
    # The solve takes exactly these steps from the same start, so the
    # rebuilt iterates are bitwise its own.
    stops, load_prev = [], np.empty(0)
    for _, du in trace.increment_norms:
        u_next, p_next, load = fixed_stress_step(system, *loads, u, p, cfg.L)
        assert np.linalg.norm(system.A @ u_next - load) <= 1e-12 * np.linalg.norm(load)
        assert not any(np.shares_memory(load, x) for x in (load_prev, u, p, *loads))
        load_prev = load
        du_ref = bf.m_norm(system.A, u_next - u)
        assert abs(du - du_ref) <= 1e-8 * du_ref
        stops.append(
            bf.m_norm(system.Mp, p_next - p) <= cfg.eps_r * bf.m_norm(system.Mp, p_next)
            and du_ref <= cfg.eps_r * bf.m_norm(system.A, u_next))
        u, p = u_next, p_next
    assert stops == [False] * (trace.iterations - 1) + [True]


def test_fixed_stress_solve_leaves_its_inputs_alone(problem8, params):
    # The start state is read, never copied or written, and the returned
    # iterates are new arrays.
    system, f, g = problem8.system, problem8.f, problem8.g
    u0 = system.a_solve(f)
    p0 = np.full(system.n_p, 1e3)
    inputs = (u0, p0, f, g)
    saved = [x.copy() for x in inputs]
    u, p, trace = bf.fixed_stress_solve(system, f, g, bf.SolverConfig(L=l_physical(params)),
                                        u_init=u0, p_init=p0)
    assert trace.converged
    for x, x_saved in zip(inputs, saved):
        assert np.array_equal(x, x_saved)
        assert not np.shares_memory(u, x) and not np.shares_memory(p, x)


def test_fixed_stress_solve_products_with_a(params):
    # A warm start costs one product with A (the load of u_init); a cold
    # start costs none, and the iterations cost none either.
    cfg, system, first, second, (u1, p1) = _two_step_states(params)
    counted = dataclasses.replace(system, A=CountingMatrix(system.A))
    for loads, kwargs, expected in ((first, {}, 0), (second, {"u_init": u1, "p_init": p1}, 1)):
        counted.A.products = 0
        u, p, trace = bf.fixed_stress_solve(counted, *loads, cfg, **kwargs)
        assert counted.A.products == expected
        u_ref, p_ref, trace_ref = bf.fixed_stress_solve(system, *loads, cfg, **kwargs)
        assert trace.iterations == trace_ref.iterations > 1
        assert np.array_equal(u, u_ref) and np.array_equal(p, p_ref)


def test_richardson_fixed_point_and_zero_relaxation(problem8):
    system, f, g = problem8.system, problem8.f, problem8.g
    _, p_star = bf.monolithic_solve(system, f, g)
    gt = schur_rhs(system, f, g)
    p1 = richardson_step(system, p_star, omega=5e10, g_tilde=gt)
    assert bf.m_norm(system.Mp, p1 - p_star) <= 1e-9 * bf.m_norm(system.Mp, p_star)
    p_same = richardson_step(system, p_star, omega=0.0, g_tilde=gt)
    assert np.array_equal(p_same, p_star)


@pytest.mark.parametrize("l_factor", [0.5, 1.0, 2.0])
def test_richardson_equals_fixed_stress_pressure_path(problem8, params, l_factor):
    # The splitting scheme's pressure iterates are exactly a relaxed
    # Richardson sequence with omega = 1/(L + inv_m), whatever L is.
    system, f, g = problem8.system, problem8.f, problem8.g
    L = l_factor * l_physical(params)
    omega = 1.0 / (L + params.inv_m)
    gt = schur_rhs(system, f, g)
    p_fs = np.zeros(system.n_p)
    u_fs = system.a_solve(f + system.B.T @ p_fs)
    p_ri = p_fs.copy()
    for _ in range(20):
        u_fs, p_fs, _ = fixed_stress_step(system, f, g, u_fs, p_fs, L)
        p_ri = richardson_step(system, p_ri, omega, g_tilde=gt)
        rel = np.linalg.norm(p_fs - p_ri) / max(np.linalg.norm(p_ri), 1e-300)
        assert rel <= 1e-8


def test_monolithic_zero_data(params):
    system = bf.build_problem(4, params, sources=None).system
    u, p = bf.monolithic_solve(system, np.zeros(system.n_u), np.zeros(system.n_p))
    assert np.abs(u).max() == 0.0
    assert np.abs(p).max() == 0.0


def test_monolithic_block_residual(problem8):
    system, f, g = problem8.system, problem8.f, problem8.g
    u, p = bf.monolithic_solve(system, f, g)
    _, _, block, rhs = dense_block_solve(system, f, g)
    sol = np.concatenate([u, p])
    resid = np.linalg.norm(block @ sol - rhs) / np.linalg.norm(rhs)
    assert resid <= 1e-10


@pytest.mark.parametrize("n", [8, 16])
def test_monolithic_matches_dense_block_oracle(request, n):
    prob = request.getfixturevalue(f"problem{n}")
    u, p = bf.monolithic_solve(prob.system, prob.f, prob.g)
    u_o, p_o, _, _ = dense_block_solve(prob.system, prob.f, prob.g)
    assert np.abs(p - p_o).max() <= 1e-9 * np.abs(p_o).max()
    assert np.abs(u - u_o).max() <= 1e-9 * np.abs(u_o).max()


@pytest.mark.parametrize("inv_m", [0.0, 1e-11])
def test_solvers_add_inv_m_to_the_one_schur_operator(params, inv_m):
    # schur_apply and dense_schur are S0 = B inv(A) B' for every inv_m; each
    # solver of the shifted S = S0 + inv_m * Mp must add inv_m * Mp itself.
    prob = bf.build_problem(8, dataclasses.replace(params, inv_m=inv_m))
    system = prob.system
    f, g = bf.step_loads(prob, 0.1, 0.1, np.zeros(system.n_u), np.zeros(system.n_p))
    s0 = bf.dense_schur(system)
    applied = np.column_stack([bf.schur_apply(system, e) for e in np.eye(system.n_p)])
    assert np.abs(applied - s0).max() <= 1e-12 * np.abs(s0).max()

    u, p = bf.monolithic_solve(system, f, g)
    u_o, p_o, _, _ = dense_block_solve(system, f, g)  # carries inv_m * Mp in its block
    assert np.abs(p - p_o).max() <= 1e-9 * np.abs(p_o).max()
    assert np.abs(u - u_o).max() <= 1e-9 * np.abs(u_o).max()

    mp = system.Mp.toarray()
    gt = schur_rhs(system, f, g)
    p0 = np.abs(p_o).max() * np.random.default_rng(5).standard_normal(system.n_p)
    omega = 1.0 / (l_physical(params) + inv_m)
    ref = p0 + omega * np.linalg.solve(mp, gt - (s0 + inv_m * mp) @ p0)
    p1 = richardson_step(system, p0, omega, g_tilde=gt)
    assert np.abs(p1 - ref).max() <= 1e-9 * np.abs(ref).max()


def test_monolithic_singular_schur_raises(problem4, params):
    # B = 0 with inv_m = 0 makes S = 0; the Schur CG must fail loudly
    # instead of returning a non-finite pressure.
    assert params.inv_m == 0.0
    system = dataclasses.replace(
        problem4.system, B=sp.csr_matrix(problem4.system.B.shape)
    )
    assert np.linalg.norm(problem4.g) > 0.0
    with np.errstate(all="ignore"), pytest.raises(bf.ConvergenceError):
        bf.monolithic_solve(system, problem4.f, problem4.g)


def test_monolithic_singular_schur_stops_at_first_nonfinite_iterate(problem8, monkeypatch):
    # On S = 0 the first CG step divides by zero; the solve must stop there
    # instead of spending its 10 * n_p iteration budget on NaN iterates.
    system = dataclasses.replace(problem8.system, B=sp.csr_matrix(problem8.system.B.shape))
    applies = []

    def counting_apply(sys_, p):
        applies.append(1)
        return bf.schur_apply(sys_, p)

    monkeypatch.setattr("biotfs.solver.schur_apply", counting_apply)
    with np.errstate(all="ignore"), pytest.raises(bf.ConvergenceError):
        bf.monolithic_solve(system, problem8.f, problem8.g)
    assert 1 <= len(applies) <= 3


def test_monolithic_pressure_solves_schur_system(problem8):
    system, f, g = problem8.system, problem8.f, problem8.g
    _, p = bf.monolithic_solve(system, f, g)
    gt = schur_rhs(system, f, g)
    resid = bf.schur_apply(system, p) - gt
    assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(gt)


def test_contraction_bound_with_dense_rates(problem8, dense_eigen8, params):
    # Error ratios in the pressure mass norm never exceed the Richardson
    # contraction factor (small allowance for the inner solves).
    system, f, g = problem8.system, problem8.f, problem8.g
    w, _ = dense_eigen8
    est = SpectralEstimates(w[-1], w[0], params)
    _, p_star = bf.monolithic_solve(system, f, g)
    gt = schur_rhs(system, f, g)
    rng = np.random.default_rng(31)
    for omega in (0.5 * est.omega_opt, est.omega_opt):
        rho = est.rho(omega)
        err = rng.standard_normal(system.n_p)
        err *= 1e8 * bf.m_norm(system.Mp, p_star) / bf.m_norm(system.Mp, err)
        p_it = p_star + err
        prev = bf.m_norm(system.Mp, err)
        for _ in range(50):
            p_it = richardson_step(system, p_it, omega, g_tilde=gt)
            cur = bf.m_norm(system.Mp, p_it - p_star)
            assert cur <= (rho + 10 * 1e-12) * prev + 1e-13 * prev
            prev = cur


def test_time_march_single_step(problem8, params):
    prob = bf.build_problem(8, params)
    grid = bf.TimeGrid(t0=0.0, tau=0.1, t_end=0.1)
    res = bf.time_march(prob, bf.SolverConfig(L=l_physical(params)), grid)
    assert len(res.counts) == 1
    assert not res.diverged


def test_time_march_zero_sources_single_iterations(params):
    prob = bf.build_problem(4, params, sources=None)
    grid = bf.TimeGrid(t0=0.0, tau=0.1, t_end=0.5)
    res = bf.time_march(prob, bf.SolverConfig(L=l_physical(params)), grid)
    assert res.counts == [1] * 5
    assert res.average == 1.0


def test_time_march_benchmark_grid_has_ten_steps(params):
    prob = bf.build_problem(4, params)
    grid = bf.TimeGrid(t0=0.0, tau=0.1, t_end=1.0)
    res = bf.time_march(prob, bf.SolverConfig(L=l_physical(params)), grid)
    assert len(res.counts) == 10


def test_time_march_divergent_cap_and_flag(params):
    prob = bf.build_problem(8, params)
    grid = bf.TimeGrid(t0=0.0, tau=0.1, t_end=1.0)
    res = bf.time_march(prob, bf.SolverConfig(L=l_physical(params), max_iter=1), grid)
    assert res.diverged
    assert res.average == 1.0  # cap sentinel
    assert res.counts[-1] == 1


def test_fixed_stress_solve_records_iterates(problem8, params):
    system, f, g = problem8.system, problem8.f, problem8.g
    cfg = bf.SolverConfig(L=l_physical(params), max_iter=5, eps_r=1e-14)
    _, _, trace = bf.fixed_stress_solve(system, f, g, cfg)
    assert len(trace.increment_norms) == trace.iterations
    assert all(np.isfinite(dp) and dp >= 0.0 for dp, _ in trace.increment_norms)


def test_iteration_counts_minimal_at_optimal(problem8, params):
    # Average counts on a small stabilization grid are never below the
    # count at the estimated optimum (ties allowed).
    prob = bf.build_problem(8, params)
    est = bf.estimate_spectrum(prob.system, tol=1e-10, maxit=100000, seed=1)
    grid = bf.TimeGrid(t0=0.0, tau=0.1, t_end=1.0)
    opt = bf.time_march(prob, bf.SolverConfig(L=est.l_opt), grid).average
    d_opt = params.alpha**2 / est.l_opt
    for d in np.linspace(0.7, 1.2, 7) * d_opt:
        avg = bf.time_march(
            prob, bf.SolverConfig(L=params.alpha**2 / d), grid
        ).average
        assert opt <= avg + 1e-12


def test_built_system_and_problem_are_frozen(params):
    # Operators and factors are fixed at build time: a new matrix means a
    # new system, never an edit of a built one.
    prob = bf.build_problem(2, params, sources=None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.system.A = 2.0 * prob.system.A
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.system = prob.system


def test_built_problem_factors_nothing_after_build(params, monkeypatch):
    # build_problem factors A and Mp; the march and the estimator read
    # those factors and call factorize zero times.
    import biotfs.assembly

    calls = []
    original = biotfs.assembly.factorize
    monkeypatch.setattr(biotfs.assembly, "factorize", lambda M: calls.append(M) or original(M))
    prob = bf.build_problem(4, params)
    assert len(calls) == 2
    grid = bf.TimeGrid(t0=0.0, tau=0.1, t_end=0.3)
    bf.time_march(prob, bf.SolverConfig(L=l_physical(params)), grid)
    bf.estimate_spectrum(prob.system, tol=1e-8, seed=1)
    assert len(calls) == 2


def test_built_problem_factors_a_first(params):
    # The factor of A is built before that of Mp: at n=64 the other orders
    # peaked 164 MB against 146 MB. `build_system` puts A's factor in the
    # cache and `prepare` adds Mp's; the cached names enter the instance dict
    # in the order they were built, and every instance attribute that is not
    # a field is listed, so no other cache can appear unnoticed.
    system = bf.build_problem(4, params, sources=None).system
    fields = {f.name for f in dataclasses.fields(system)}
    cached = [name for name in vars(system) if name not in fields]
    assert cached == ["a_solve", "m_solve"]


def test_built_problem_factors_a_before_b_and_mp_are_assembled(params, monkeypatch):
    # A's factor is built while B and Mp do not exist yet: that order keeps
    # the build's peak RSS low and the same from process to process.
    import biotfs.assembly

    calls = []

    def recorded(name):
        original = getattr(biotfs.assembly, name)

        def wrapper(*args):
            calls.append((name, args[0].shape[0] if name == "factorize" else None))
            return original(*args)
        return wrapper

    for name in ("factorize", "assemble_coupling", "assemble_pressure_mass"):
        monkeypatch.setattr(biotfs.assembly, name, recorded(name))
    system = bf.build_problem(8, params).system
    order = [name for name, _ in calls]
    a_factor = calls.index(("factorize", system.n_u))
    assert a_factor < order.index("assemble_coupling")
    assert a_factor < order.index("assemble_pressure_mass")
    assert order.count("factorize") == 2


def test_hand_built_problem_factors_a_then_mp_on_first_step(params, monkeypatch):
    # Without build_problem, build_system still factors A itself, so the
    # first step's flow solve adds Mp's factor after it: A first, two in all.
    import biotfs.assembly
    from biotfs.assembly import build_system
    from biotfs.mesh import build_structured_mesh, build_taylor_hood_dofs
    from biotfs.solver import TransientProblem

    shapes = []
    original = biotfs.assembly.factorize
    monkeypatch.setattr(
        biotfs.assembly, "factorize", lambda M: shapes.append(M.shape) or original(M)
    )
    dofs = build_taylor_hood_dofs(build_structured_mesh(8))
    problem = TransientProblem(dofs, build_system(dofs, params))
    n_u, n_p = problem.system.n_u, problem.system.n_p
    assert shapes == [(n_u, n_u)]
    grid = bf.TimeGrid(t0=0.0, tau=0.1, t_end=0.1)
    result = bf.time_march(problem, bf.SolverConfig(L=l_physical(params)), grid)
    assert len(result.counts) == 1 and result.converged_flags == [True]
    assert shapes == [(n_u, n_u), (n_p, n_p)]


def test_fixed_stress_solve_concurrent_l_values_match_serial(problem8, params):
    # The README's concurrency claim at the level of one solve: three
    # stabilizations on one built system, in three workers, give the serial
    # results bit for bit. SuperLU holds the interpreter lock, so no speedup is
    # expected.
    system, f, g = problem8.system, problem8.f, problem8.g
    configs = [bf.SolverConfig(L=c * l_physical(params)) for c in (0.8, 1.0, 2.0)]
    serial = [bf.fixed_stress_solve(system, f, g, cfg) for cfg in configs]
    with ThreadPoolExecutor(3) as pool:
        threaded = list(pool.map(lambda cfg: bf.fixed_stress_solve(system, f, g, cfg), configs))
    for (u_s, p_s, t_s), (u_t, p_t, t_t) in zip(serial, threaded):
        assert t_t.iterations == t_s.iterations and t_t.converged == t_s.converged
        assert np.array_equal(u_t, u_s) and np.array_equal(p_t, p_s)


def test_time_march_concurrent_l_values_match_serial(params):
    # The README claims distinct stabilization values can be solved
    # concurrently against one assembled system. Four workers and a short
    # switch interval interleave the shared factor solves as much as the
    # interpreter allows.
    prob = bf.build_problem(8, params)
    est = bf.estimate_spectrum(prob.system, tol=1e-8, seed=1)
    grid = bf.TimeGrid(t0=0.0, tau=0.1, t_end=1.0)
    configs = [bf.SolverConfig(L=f * est.l_opt) for f in (0.8, 1.0, 1.3, 2.0)]
    serial = [bf.time_march(prob, cfg, grid) for cfg in configs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(bf.time_march, prob, cfg, grid) for cfg in configs]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)

    for s_res, t_res in zip(serial, threaded):
        assert t_res.counts == s_res.counts
        assert t_res.converged_flags == s_res.converged_flags
        assert np.array_equal(t_res.u, s_res.u)
        assert np.array_equal(t_res.p, s_res.p)
