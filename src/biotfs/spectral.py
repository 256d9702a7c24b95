"""Spectral estimation for the pressure Schur complement pencil.

The splitting solver's pressure update is a relaxed Richardson iteration on
S = inv_m * Mp + B inv(A) B', measured against the pressure mass matrix Mp.
Its contraction factor for relaxation omega is

    rho(omega) = max(|1 - omega*lambda_min|, |1 - omega*lambda_max|),

with the extreme eigenvalues of the pencil (S, Mp). The optimal relaxation is
omega = 2 / (lambda_max + lambda_min), which translates into the optimal
stabilization parameter l_opt = 1/omega - inv_m of the splitting scheme. The
same eigenvalues identify two bulk-type moduli: k_star = alpha^2 /
(lambda_max - inv_m), which also solves an independent div-div/elasticity
eigenvalue problem, and beta = alpha^2 / (lambda_min - inv_m), which exists
for inf-sup stable discretizations.

Both extreme eigenvalues come from one run of implicitly restarted Lanczos
(ARPACK through scipy's eigsh; Lehoucq, Sorensen & Yang, 1998) on the
matrix-free pencil: S is only ever applied through the cached factorization
of A, never formed. Every returned eigenpair carries a certificate, its
relative eigen-residual ||S v - lambda Mp v||_{inv(Mp)} / (|lambda|
||v||_{Mp}); by the Krylov-Weinstein bound lambda then lies within that
relative distance of an eigenvalue of the pencil, and an estimate counts as
converged only when every residual is within the requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .assembly import BiotSystem, MaterialParams, reduced_divdiv
from .linalg import m_norm


class EstimationError(RuntimeError):
    """A spectral estimate is structurally unavailable (degenerate input)."""


@dataclass(frozen=True)
class SpectralEstimates:
    """Extreme pencil eigenvalues and every quantity derived from them.

    Invariants: 0 < lambda_min <= lambda_max, beta >= k_star,
    omega_opt = 2/(lambda_max + lambda_min), l_opt = 1/omega_opt - inv_m
    = (alpha^2/2)(1/k_star + 1/beta), rho_opt in [0, 1).

    iterations_used is (Schur applies of the Lanczos run, 0): one run
    serves both ends; the count includes the product that scales the
    pencil but not the two certificate products. residuals are the
    relative inv(Mp)-norm eigen-residuals of (lambda_max, lambda_min).
    """

    lambda_max: float
    lambda_min: float
    k_star: float
    beta: float
    omega_opt: float
    l_opt: float
    rho_opt: float
    iterations_used: tuple[int, int] | None = None
    converged: bool = True
    residuals: tuple[float, float] | None = None

    def rho(self, omega: float) -> float:
        """Richardson contraction factor for an arbitrary relaxation."""
        return max(
            abs(1.0 - omega * self.lambda_min),
            abs(1.0 - omega * self.lambda_max),
        )


class Pencil(NamedTuple):
    """Symmetric pencil (K, M), M positive definite, as linear operators."""

    K: spla.LinearOperator
    M: spla.LinearOperator
    Minv: spla.LinearOperator


def pencil(apply_k, apply_m, solve_m, size: int) -> Pencil:
    """Wrap the products with K and M and the solve with M as a Pencil."""

    def op(matvec):
        return spla.LinearOperator((size, size), matvec=matvec, dtype=float)

    return Pencil(op(apply_k), op(apply_m), op(solve_m))


def schur_apply(system: BiotSystem, p: np.ndarray) -> np.ndarray:
    """Apply S = inv_m*Mp + B inv(A) B' without forming it.

    The inner elastic solve uses the cached direct factorization.
    """
    if p.shape[0] != system.n_p:
        raise ValueError(f"pressure vector has length {p.shape[0]}, expected {system.n_p}")
    out = system.B @ system.a_solve(system.Bt @ p)
    if system.params.inv_m != 0.0:
        out = out + system.params.inv_m * (system.Mp @ p)
    return out


def _extreme_eigs(pen: Pencil, which: str, k: int, tol: float, maxit: int,
                  seed: int):
    """Extreme eigenpairs of a pencil by implicitly restarted Lanczos.

    which="BE" with k=2 gives both ends, which="LA" with k=1 the largest.
    Returns (values, residuals, applies, converged): the eigenvalues in
    ascending order, their relative inv(M)-norm eigen-residuals, the number
    of K products taken before the residual check, and whether ARPACK
    converged with every residual within tol. Pencils too small for ARPACK are solved
    densely. At the restart cap every end ARPACK did not return is the
    Rayleigh quotient of the start vector. Raises EstimationError when K
    vanishes on the start vector.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    size = pen.K.shape[0]
    applies = 0

    def apply_k(x):
        nonlocal applies
        applies += 1
        return pen.K.matvec(x)

    v0 = np.random.default_rng(seed).standard_normal(size)
    capped = False
    if size <= k + 1:
        eye = np.eye(size)
        K = spla.LinearOperator(pen.K.shape, matvec=apply_k, dtype=float)
        w, vecs = scipy.linalg.eigh(K @ eye, pen.M @ eye)
        pick = [0, -1] if which == "BE" else [-1]
        values, vecs = w[pick], vecs[:, pick]
    else:
        rq = float(v0 @ apply_k(v0)) / float(v0 @ pen.M.matvec(v0))
        if rq == 0.0:
            raise EstimationError("the operator K of the pencil vanishes")
        # ARPACK accepts a Ritz value theta once its residual bound is below
        # tol * max(|theta|, eps**(2/3)); dividing K by the start vector's
        # Rayleigh quotient brings theta to order one, so that test stays
        # relative for pencils with tiny eigenvalues such as (S, Mp).
        scale = abs(rq)
        K = spla.LinearOperator(pen.K.shape, matvec=lambda x: apply_k(x) / scale,
                                dtype=float)
        try:
            values, vecs = spla.eigsh(K, k=k, M=pen.M, Minv=pen.Minv, which=which,
                                      tol=tol, maxiter=maxit, v0=v0)
            values = values * scale
        except spla.ArpackNoConvergence as exc:
            capped = True
            missing = k - len(exc.eigenvalues)
            values = np.append(exc.eigenvalues * scale, [rq] * missing)
            vecs = np.column_stack([*exc.eigenvectors.T] + [v0] * missing)
    order = np.argsort(values)
    values, vecs = values[order].tolist(), vecs[:, order]
    residuals = []
    for lam, v in zip(values, vecs.T):
        r = pen.Minv.matvec(pen.K.matvec(v)) - lam * v
        residuals.append(m_norm(pen.M, r) / max(abs(lam) * m_norm(pen.M, v), 1e-300))
    converged = not capped and all(res <= tol for res in residuals)
    return values, residuals, applies, converged


def estimate_k_star(problem, tol: float = 1e-8, maxit: int = 50000,
                    seed: int = 1) -> float:
    """Sharpest constant k with  u'Au >= k * ||div u||^2  on the free space.

    Computed as the reciprocal of the largest eigenvalue of the pencil
    (Ddiv, A) of a problem (Ddiv assembled for this call from its mesh and
    dofs), or of an explicitly given Pencil; it is at least the physical
    drained bulk modulus and depends on the boundary conditions.
    """
    if isinstance(problem, Pencil):
        pen = problem
    else:
        system = problem.system
        ddiv = reduced_divdiv(problem.mesh, problem.dofs)
        pen = pencil(ddiv.__matmul__, system.A.__matmul__, system.a_solve, system.n_u)
    (value,), _, _, _ = _extreme_eigs(pen, "LA", 1, tol, maxit, seed)
    if value <= 0.0:
        raise EstimationError(
            "div-div form vanishes on the displacement space; "
            "the discretization is degenerate"
        )
    return 1.0 / value


def optimal_parameters(
    lambda_max: float,
    lambda_min: float,
    params: MaterialParams,
    iterations_used: tuple[int, int] | None = None,
    converged: bool = True,
    residuals: tuple[float, float] | None = None,
) -> SpectralEstimates:
    """Derive every tuning quantity from the extreme pencil eigenvalues."""
    if not 0.0 < lambda_min <= lambda_max * (1.0 + 1e-12):
        raise ValueError(
            f"eigenvalue ordering violated: lambda_min={lambda_min}, "
            f"lambda_max={lambda_max}"
        )
    lambda_min = min(lambda_min, lambda_max)
    alpha2 = params.alpha**2
    gap_max = lambda_max - params.inv_m
    gap_min = lambda_min - params.inv_m
    if gap_max <= 0.0 or gap_min <= 0.0:
        raise EstimationError(
            "pencil eigenvalues do not exceed the compressibility term"
        )
    omega_opt = 2.0 / (lambda_max + lambda_min)
    return SpectralEstimates(
        lambda_max=lambda_max,
        lambda_min=lambda_min,
        k_star=alpha2 / gap_max,
        beta=alpha2 / gap_min,
        omega_opt=omega_opt,
        l_opt=1.0 / omega_opt - params.inv_m,
        rho_opt=(lambda_max - lambda_min) / (lambda_max + lambda_min),
        iterations_used=iterations_used,
        converged=converged,
        residuals=residuals,
    )


def estimate_spectrum(system: BiotSystem, tol: float = 1e-8,
                      maxit: int = 50000, seed: int = 1) -> SpectralEstimates:
    """Estimate both extreme eigenvalues of (S, Mp) in one Lanczos run and
    derive the optimal parameters.

    tol is the relative eigen-residual every returned pair must meet for
    the estimate to count as converged, maxit the ARPACK restart cap and
    seed fixes the start vector. At the cap the best finite estimates are
    returned with converged=False.
    """
    pen = pencil(lambda p: schur_apply(system, p), system.Mp.__matmul__,
                 system.m_solve, system.n_p)
    (lam_min, lam_max), (res_min, res_max), applies, converged = _extreme_eigs(
        pen, "BE", 2, tol, maxit, seed
    )
    return optimal_parameters(
        lam_max,
        lam_min,
        system.params,
        iterations_used=(applies, 0),
        converged=converged,
        residuals=(res_max, res_min),
    )
