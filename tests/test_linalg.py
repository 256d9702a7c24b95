import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import biotfs as bf
from biotfs.assembly import build_system
from biotfs.linalg import FactorizationError, factorize, save_matrix_market
from biotfs.mesh import build_structured_mesh, build_taylor_hood_dofs


def test_factorize_identity_and_diagonal():
    F = factorize(sp.identity(5, format="csr"))
    b = np.arange(5.0)
    assert np.abs(F.solve(b) - b).max() <= 1e-15
    d = np.array([2.0, 4.0, 8.0])
    F = factorize(sp.csr_matrix(np.diag(d)))
    assert np.abs(F.solve(np.ones(3)) - 1.0 / d).max() <= 1e-15


def test_factorize_vs_cg(params):
    mesh = build_structured_mesh(4)
    dofs = build_taylor_hood_dofs(mesh)
    system = build_system(dofs, params)
    rng = np.random.default_rng(4)
    b = rng.standard_normal(system.n_u)
    x_f = factorize(system.A).solve(b)
    x_cg, info = spla.cg(system.A, b, rtol=1e-13, atol=0.0, maxiter=10 * system.n_u)
    assert info == 0
    assert np.abs(x_f - x_cg).max() <= 1e-9 * np.abs(x_f).max()


def test_factorize_solve_inverse_property(params):
    mesh = build_structured_mesh(3)
    dofs = build_taylor_hood_dofs(mesh)
    system = build_system(dofs, params)
    F = factorize(system.A)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.standard_normal(system.n_u)
        back = F.solve(system.A @ x)
        assert np.abs(back - x).max() <= 1e-10 * np.abs(x).max()


def test_factorize_rejects_non_spd():
    # Each matrix is rejected for its own reason. An entry overflowed to inf
    # once factored without error: A - A' holds NaN there, which passes the
    # symmetry test. A NaN was rejected only as a singular pivot.
    for rows, reason in (
        ([[1.0, 2.0], [0.0, 1.0]], "not symmetric"),
        ([[-1.0, 0.0], [0.0, 1.0]], "nonpositive diagonal"),
        ([[1.0, 1.0], [1.0, 1.0]], "factorization failed"),
        ([[np.inf, 1.0], [1.0, 2.0]], "non-finite"),
        ([[2.0, np.nan], [np.nan, 2.0]], "non-finite"),
    ):
        with pytest.raises(FactorizationError, match=reason):
            factorize(sp.csr_matrix(np.array(rows)))


def test_factorize_hands_superlu_the_arrays_of_a_csc_input(problem4, monkeypatch):
    # No copy of A is made for the factorization: SuperLU reads the stored
    # CSC arrays themselves.
    A = problem4.system.A
    seen = []
    original = spla.splu
    monkeypatch.setattr(spla, "splu", lambda M, **kwargs: seen.append(M) or original(M, **kwargs))
    factorize(A)
    (M,) = seen
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(M, name), getattr(A, name))


def test_factorize_copies_csr_and_unsorted_csc_input_untouched():
    dense = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
    canon = sp.csc_matrix(dense)
    data, indices = canon.data.copy(), canon.indices.copy()
    for j in range(3):  # reverse the row order within each column
        col = slice(canon.indptr[j], canon.indptr[j + 1])
        data[col], indices[col] = data[col][::-1], indices[col][::-1]
    unsorted = sp.csc_matrix((data, indices, canon.indptr.copy()), shape=(3, 3))
    b = np.array([1.0, -2.0, 0.5])
    for A in (sp.csr_matrix(dense), unsorted):
        before = [arr.copy() for arr in (A.data, A.indices, A.indptr)]
        assert np.abs(factorize(A).solve(b) - np.linalg.solve(dense, b)).max() <= 1e-14
        for arr, old in zip((A.data, A.indices, A.indptr), before):
            assert np.array_equal(arr, old)


def test_dense_eigen_diag_fixture():
    w, v = bf.dense_generalized_symmetric_eigen(np.diag([1.0, 2.0, 3.0]), np.eye(3))
    assert np.abs(w - np.array([1.0, 2.0, 3.0])).max() <= 1e-14


def test_dense_eigen_s_equals_m():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((8, 8))
    M = m @ m.T + 8 * np.eye(8)
    w, _ = bf.dense_generalized_symmetric_eigen(M, M)
    assert np.abs(w - 1.0).max() <= 1e-12


def test_dense_eigen_rayleigh_self_consistency():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((10, 10))
    S = a @ a.T + np.eye(10)
    b = rng.standard_normal((10, 10))
    M = b @ b.T + 10 * np.eye(10)
    w, V = bf.dense_generalized_symmetric_eigen(S, M)
    for k in range(10):
        vk = V[:, k]
        rq = (vk @ (S @ vk)) / (vk @ (M @ vk))
        assert abs(rq - w[k]) <= 1e-10 * max(abs(w[k]), 1.0)
        resid = np.abs(S @ vk - w[k] * (M @ vk)).max()
        assert resid <= 1e-10 * np.abs(S).max()


def test_dense_eigen_sum_equals_trace_oracle():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((12, 12))
    S = a @ a.T + np.eye(12)
    b = rng.standard_normal((12, 12))
    M = b @ b.T + 12 * np.eye(12)
    w, _ = bf.dense_generalized_symmetric_eigen(S, M)
    trace = np.trace(np.linalg.solve(M, S))
    assert abs(w.sum() - trace) <= 1e-8 * abs(trace)


def test_dense_eigen_requires_spd_mass():
    with pytest.raises(scipy.linalg.LinAlgError):
        bf.dense_generalized_symmetric_eigen(np.eye(3), np.diag([1.0, -1.0, 1.0]))


def test_m_norm_cases():
    assert bf.m_norm(sp.identity(2, format="csr"), np.array([3.0, 4.0])) == pytest.approx(5.0)
    assert bf.m_norm(sp.identity(3, format="csr"), np.zeros(3)) == 0.0
    rng = np.random.default_rng(15)
    a = rng.standard_normal((7, 7))
    M = a @ a.T + 7 * np.eye(7)
    x = rng.standard_normal(7)
    expected = float(np.sqrt(x @ (M @ x)))
    assert bf.m_norm(sp.csr_matrix(M), x) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(ValueError):
        bf.m_norm(sp.identity(3, format="csr"), np.zeros(4))
    # A caller-supplied product M x replaces the product with M.
    assert bf.m_norm(sp.csr_matrix(M), x, Mx=M @ x) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(ValueError):
        bf.m_norm(sp.csr_matrix(M), x, Mx=np.zeros(6))
    with pytest.raises(ValueError):
        bf.m_norm(sp.csr_matrix(M), x, Mx=np.zeros((7, 1)))


@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300])
def test_m_norm_of_tiny_vector_does_not_underflow(scale):
    # x' M x underflows to 0 (or to a subnormal) for entries below ~1e-160,
    # though the norm itself is representable; the norm is rescaled then.
    rng = np.random.default_rng(16)
    a = rng.standard_normal((7, 7))
    M = sp.csr_matrix(a @ a.T + 7 * np.eye(7))
    x = rng.standard_normal(7)
    expected = bf.m_norm(M, x) * scale
    assert bf.m_norm(M, x * scale) == pytest.approx(expected, rel=1e-13, abs=0)
    assert bf.m_norm(M, x * scale, Mx=M @ x * scale) == pytest.approx(expected, rel=1e-13, abs=0)


def test_matrix_market_round_trip(tmp_path, params):
    mesh = build_structured_mesh(3)
    dofs = build_taylor_hood_dofs(mesh)
    system = build_system(dofs, params)
    path = tmp_path / "A.mtx"
    save_matrix_market(path, system.A)
    back = scipy.io.mmread(path).tocsr()
    assert back.shape == system.A.shape
    assert abs(back - system.A).max() <= 1e-12 * abs(system.A).max()


def test_matrix_market_writes_row_major_whatever_the_format(tmp_path):
    # CSR and CSC forms of one asymmetric matrix give the same bytes.
    dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 5.0, 6.0]])
    paths = []
    for fmt in ("csr", "csc"):
        paths.append(tmp_path / f"{fmt}.mtx")
        save_matrix_market(paths[-1], sp.csr_matrix(dense).asformat(fmt))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_factorize_fill_at_n16(params):
    # SuperLU's default COLAMD ordering leaves 187,432 nonzeros in L+U
    # here; minimum degree on A + A' leaves 142,848.
    A = bf.build_problem(16, params, sources=None).system.A
    F = factorize(A)
    assert F._lu.L.nnz + F._lu.U.nnz <= 150_000
    b = np.random.default_rng(16).standard_normal(A.shape[0])
    x = F.solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("block", ["A", "Mp"])
def test_factor_solve_transposed_sweep_matches_plain_sweep(problem8, block):
    # Factorization.solve runs SuperLU's transposed sweep; for the
    # symmetric factors it must agree with the plain sweep.
    factor = factorize(getattr(problem8.system, block))
    rng = np.random.default_rng(8)
    for b in (rng.standard_normal(factor.shape[0]), rng.standard_normal((factor.shape[0], 3))):
        x = factor.solve(b)
        x_plain = factor._lu.solve(b, trans="N")
        assert x.shape == b.shape
        assert np.linalg.norm(x - x_plain) <= 1e-12 * np.linalg.norm(x_plain)
