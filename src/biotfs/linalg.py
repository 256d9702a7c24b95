"""Sparse and dense linear algebra helpers.

CSR storage, factorizations and the dense generalized eigensolver are backed
by scipy; conjugate gradients is implemented here so iterative and direct
solves stay independent of each other. The dense eigensolver is only ever
used at oracle scale (a few thousand unknowns).

Sparse SPD factors are SuperLU's under the multiple minimum degree ordering
of A + A' (Liu, ACM TOMS 1985), which is 2A since `factorize` takes only
symmetric input; at n=64 it leaves less than half the fill of COLAMD.
"""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class FactorizationError(RuntimeError):
    """Factorization failed (singular or not positive definite input)."""


class ConvergenceError(RuntimeError):
    """An iterative solve ran out of iterations.

    Carries the final relative residual and the best iterate reached.
    """

    def __init__(self, message, residual=None, iterations=None, best=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.best = best


def matvec(A, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product with an explicit dimension check."""
    if A.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} @ {x.shape}")
    return A @ x


def m_norm(M, x: np.ndarray) -> float:
    """Energy norm sqrt(x' M x) induced by an SPD matrix M."""
    if M.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: {M.shape} with {x.shape}")
    return float(np.sqrt(max(float(x @ (M @ x)), 0.0)))


class Factorization:
    """Handle for a sparse SPD factorization, reusable across many solves."""

    def __init__(self, lu, shape):
        self._lu = lu
        self.shape = shape

    def solve(self, b: np.ndarray) -> np.ndarray:
        if b.shape[0] != self.shape[0]:
            raise ValueError(f"dimension mismatch: {self.shape} with {b.shape}")
        return self._lu.solve(b)


def factorize(A) -> Factorization:
    """Factor a sparse SPD matrix for repeated solves.

    Raises FactorizationError if the matrix is visibly not SPD (asymmetric,
    nonpositive diagonal) or if the factorization hits a zero pivot.
    The ordering is minimum degree on A + A' = 2A, in SuperLU's symmetric mode.
    """
    A = sp.csr_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise FactorizationError(f"matrix is not square: {A.shape}")
    scale = float(abs(A).max()) if A.nnz else 0.0
    asym = float(abs(A - A.T).max()) if A.nnz else 0.0
    if asym > 1e-10 * max(scale, 1e-300):
        raise FactorizationError("matrix is not symmetric")
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise FactorizationError("matrix has a nonpositive diagonal entry")
    try:
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except RuntimeError as exc:  # singular pivot
        raise FactorizationError(f"factorization failed: {exc}") from exc
    return Factorization(lu, A.shape)


def cg_solve(A, b: np.ndarray, tol: float = 1e-12, maxit: int | None = None,
             x0: np.ndarray | None = None) -> np.ndarray:
    """Conjugate gradients for an SPD operator.

    Parameters
    ----------
    A : sparse matrix or callable
        The operator; a callable must map a vector to A @ vector.
    b : ndarray
        Right-hand side.
    tol : float
        Relative Euclidean residual target ||Ax - b|| <= tol * ||b||.
    maxit : int, optional
        Iteration cap, defaults to 10 * len(b).

    Raises
    ------
    ConvergenceError
        If the cap is reached; the error carries the best iterate.
    """
    apply_a = A if callable(A) else (lambda v: A @ v)
    n = b.shape[0]
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n)
    if maxit is None:
        maxit = 10 * n

    x = np.zeros(n) if x0 is None else x0.astype(float).copy()
    r = b - apply_a(x) if x0 is not None else b.copy()
    d = r.copy()
    rr = float(r @ r)
    best_x, best_res = x.copy(), np.sqrt(rr) / bnorm
    for _ in range(maxit):
        if np.sqrt(rr) <= tol * bnorm:
            return x
        ad = apply_a(d)
        alpha = rr / float(d @ ad)
        x = x + alpha * d
        r = r - alpha * ad
        rr_new = float(r @ r)
        res = np.sqrt(rr_new) / bnorm
        if res < best_res:
            best_x, best_res = x.copy(), res
        d = r + (rr_new / rr) * d
        rr = rr_new
    if np.sqrt(rr) <= tol * bnorm:
        return x
    raise ConvergenceError(
        f"cg did not reach tol={tol:g} within {maxit} iterations "
        f"(residual {best_res:.3e})",
        residual=best_res,
        iterations=maxit,
        best=best_x,
    )


def dense_generalized_symmetric_eigen(S, M):
    """All eigenpairs of the symmetric pencil (S, M) with M SPD.

    Returns eigenvalues in ascending order and M-orthonormal eigenvectors;
    the eigenvalues coincide with those of inv(sqrt(M)) S inv(sqrt(M)).
    Raises scipy.linalg.LinAlgError if M is not positive definite.
    """
    S = np.asarray(S.toarray() if sp.issparse(S) else S, dtype=float)
    M = np.asarray(M.toarray() if sp.issparse(M) else M, dtype=float)
    return scipy.linalg.eigh(S, M)


def save_matrix_market(path, A) -> None:
    """Write a sparse matrix in Matrix Market coordinate format."""
    scipy.io.mmwrite(str(path), sp.coo_matrix(A))


def load_matrix_market(path):
    """Read a Matrix Market file as CSR."""
    return sp.csr_matrix(scipy.io.mmread(str(path)))
