"""Sparse and dense linear algebra helpers.

CSR storage, factorizations, the energy norm, the dense generalized
eigensolver and Matrix Market I/O, all backed by scipy. The iterative
solves live with their operators: Lanczos in `spectral`, the Schur
complement CG in `solver.monolithic_solve`. The dense eigensolver is only
ever used at oracle scale (a few thousand unknowns).

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
    """An iterative solve stopped short of its tolerance."""


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
