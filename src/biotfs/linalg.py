"""Sparse and dense linear algebra helpers.

Factorizations of CSC matrices, the energy norm, the dense generalized
eigensolver and the Matrix Market writer, all backed by scipy. The iterative
solves live with their operators: Lanczos in `spectral`, the Schur
complement CG in `solver.monolithic_solve`. The dense eigensolver is only
ever used at oracle scale (a few thousand unknowns).

Sparse SPD factors are SuperLU's under the multiple minimum degree ordering
of A + A' (Liu, ACM TOMS 1985), which is 2A since `factorize` takes only
symmetric input; at n=64 it leaves less than half the fill of COLAMD.
Solves take SuperLU's transposed sweep (A' x = b), the same system for this
symmetric input and measurably faster than the plain sweep (Li, ACM TOMS
2005, describes both).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


_TINY = np.finfo(float).tiny  # the smallest normal double


class FactorizationError(RuntimeError):
    """Factorization failed (singular or not positive definite input)."""


class ConvergenceError(RuntimeError):
    """An iterative solve stopped short of its tolerance."""


def m_norm(M, x: np.ndarray, Mx: np.ndarray | None = None) -> float:
    """Energy norm sqrt(x' M x) induced by an SPD matrix M.

    A caller that already holds the product M x passes it as Mx, and no
    product with M is formed. Mx must have the shape of x; that it equals
    M x is the caller's contract, not checked here.
    """
    if M.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: {M.shape} with {x.shape}")
    if Mx is None:
        Mx = M @ x
    elif Mx.shape != x.shape:
        raise ValueError(f"Mx has shape {Mx.shape}, expected {x.shape}")
    return _energy(x, Mx)


def _energy(x: np.ndarray, Mx: np.ndarray) -> float:
    """sqrt(x' Mx), floored at 0, for the product Mx of a positive definite
    matrix with x.

    Entries below ~1e-160 make x' Mx underflow to zero or to a subnormal
    with few correct bits, though neither vector is zero. Only then are
    both scaled to a largest entry of 1 before the product, so a norm that
    is representable never reads 0; on every other input this is one dot
    product.
    """
    xMx = float(x @ Mx)
    if abs(xMx) < _TINY and x.any() and Mx.any():
        s, t = float(np.abs(x).max()), float(np.abs(Mx).max())
        return float(np.sqrt(max(float((x / s) @ (Mx / t)), 0.0)) * np.sqrt(s) * np.sqrt(t))
    return float(np.sqrt(max(xMx, 0.0)))


class Factorization:
    """Handle for a sparse SPD factorization, reusable across many solves."""

    def __init__(self, lu):
        self._lu = lu
        self.shape = lu.shape

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b for one right-hand side (1-D) or several (2-D).

        Runs SuperLU's transposed sweep, A' x = b. `factorize` accepts only
        symmetric matrices, so this is the same system; the two solutions
        agree to rounding (~3e-14 relative for A at n=64). The transposed
        sweep is used because it measured faster on this package's factors,
        not from any guarantee: one n=64 elastic solve 9.9 -> 8.9 ms and one
        n=16 solve 0.30 -> 0.22 ms (2-vCPU x86-64 VM, 1 BLAS thread,
        interleaved pairs).
        """
        if b.shape[0] != self.shape[0]:
            raise ValueError(f"dimension mismatch: {self.shape} with {b.shape}")
        return self._lu.solve(b, trans="T")


def factorize(A) -> Factorization:
    """Factor a sparse SPD matrix for repeated solves.

    Raises FactorizationError if the matrix is visibly not SPD (asymmetric,
    nonpositive diagonal) or if the factorization hits a zero pivot.
    The ordering is minimum degree on A + A' = 2A, in SuperLU's symmetric mode.
    A canonical CSC matrix with int32 indices, as `BiotSystem` stores A and
    Mp, is factored from its own arrays; any other input is first copied
    into that form.
    """
    if not (sp.issparse(A) and A.format == "csc" and A.has_canonical_format):
        A = sp.csc_matrix(A, copy=True)
        A.sum_duplicates()
    if A.shape[0] != A.shape[1]:
        raise FactorizationError(f"matrix is not square: {A.shape}")
    scale = float(np.abs(A.data).max(initial=0.0))
    asym = float(np.abs((A - A.T).data).max(initial=0.0))
    if asym > 1e-10 * max(scale, 1e-300):
        raise FactorizationError("matrix is not symmetric")
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise FactorizationError("matrix has a nonpositive diagonal entry")
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except RuntimeError as exc:  # singular pivot
        raise FactorizationError(f"factorization failed: {exc}") from exc
    return Factorization(lu)


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
    """Write a sparse matrix in Matrix Market coordinate format, its entries
    in row-major order whatever the storage format of A.

    scipy.io is imported here, not with the module: only --dump-matrices
    writes matrices, and no other run pays for loading it."""
    import scipy.io

    scipy.io.mmwrite(str(path), sp.coo_matrix(sp.csr_matrix(A)))
