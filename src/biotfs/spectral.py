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

Both extreme eigenvalues come from one unrestarted Lanczos run with full
reorthogonalization (Parlett, The Symmetric Eigenvalue Problem, 1998) on
the matrix-free pencil: S is only ever applied through the cached
factorization of A, never formed, and each step costs one such apply. The
run checks the Ritz residual estimates of both ends after every step, so it
stops at the first step that meets the tolerance instead of at the end of a
restart cycle. Every returned eigenpair carries a certificate, its relative
eigen-residual ||S v - lambda Mp v||_{inv(Mp)} / (|lambda| ||v||_{Mp}),
computed explicitly; by the Krylov-Weinstein bound lambda then lies within
that relative distance of an eigenvalue of the pencil. The run stops on
the certificate, never on the estimate alone, and an estimate counts as
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

    iterations_used is (Lanczos steps, 0): one run serves both ends, and
    each step is one Schur apply; the count leaves out the two products of
    each certificate. residuals are the relative inv(Mp)-norm
    eigen-residuals of (lambda_max, lambda_min); converged is False when
    the step cap or the rounding floor was reached first.
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


def _extreme_eigs(pen: Pencil, which: str, tol: float, maxit: int, seed: int):
    """Extreme eigenpairs of a pencil by Lanczos with full reorthogonalization.

    which="BE" gives both ends, which="LA" the largest. The M-orthonormal
    basis grows by one vector per K product; each new vector goes twice
    through classical Gram-Schmidt against the whole basis in the M inner
    product, which reads the M-products kept with the basis, so
    reorthogonalization forms none. After step j a Ritz pair
    (theta, y) has the residual estimate |beta_j s_j| / |theta|, with s_j
    the last entry of its eigenvector of the tridiagonal T_j. Once every
    wanted estimate is within tol the explicit certificate is computed, and
    the run stops when it passes, after min(maxit, size) steps, when the
    Krylov space is invariant (beta_j == 0), or when a failed certificate is
    no better than the previous failed one: the residuals have reached the
    rounding floor, and further steps would only repeat the certificate.

    Returns (values, residuals, applies, converged): the eigenvalues in
    ascending order, their relative inv(M)-norm eigen-residuals, the number
    of K products taken before the certificate, and whether every residual
    is within tol. Raises EstimationError when K vanishes on the start
    vector.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    size = pen.K.shape[0]
    steps = min(maxit, size)
    pick = [0, -1] if which == "BE" else [-1]
    q = np.random.default_rng(seed).standard_normal(size)
    Mq = pen.M.matvec(q)
    norm = np.sqrt(q @ Mq)
    Q, MQ = (q / norm)[None], (Mq / norm)[None]
    alpha, beta = [], []
    failed = np.inf  # worst residual of the last failed certificate
    for j in range(1, steps + 1):
        r = pen.Minv.matvec(pen.K.matvec(Q[-1]))
        coef = 0.0
        for _ in range(2):
            c = MQ @ r
            r, coef = r - c @ Q, coef + c
        alpha.append(coef[-1])
        if alpha[0] == 0.0:
            raise EstimationError("the operator K of the pencil vanishes")
        Mr = pen.M.matvec(r)
        beta.append(np.sqrt(max(r @ Mr, 0.0)))
        theta, s = scipy.linalg.eigh_tridiagonal(alpha, beta[:-1])
        last = j == steps or beta[-1] == 0.0
        if last or np.all(np.abs(beta[-1] * s[-1, pick]) <= tol * np.abs(theta[pick])):
            values, residuals = theta[pick].tolist(), []
            for lam, v in zip(values, s[:, pick].T @ Q):
                err = pen.Minv.matvec(pen.K.matvec(v)) - lam * v
                residuals.append(m_norm(pen.M, err) / max(abs(lam) * m_norm(pen.M, v), 1e-300))
            converged = all(res <= tol for res in residuals)
            if converged or last or max(residuals) >= failed:
                return values, residuals, j, converged
            failed = max(residuals)
        Q, MQ = np.vstack((Q, r / beta[-1])), np.vstack((MQ, Mr / beta[-1]))


def estimate_k_star(problem, tol: float = 1e-8, maxit: int = 50000,
                    seed: int = 1) -> float:
    """Sharpest constant k with  u'Au >= k * ||div u||^2  on the free space.

    Computed as the reciprocal of the largest eigenvalue of the pencil
    (Ddiv, A) of a problem, with Ddiv assembled for this call from its mesh
    and dofs; it is at least the physical drained bulk modulus and depends
    on the boundary conditions.
    """
    system = problem.system
    ddiv = reduced_divdiv(problem.mesh, problem.dofs)
    pen = pencil(ddiv.__matmul__, system.A.__matmul__, system.a_solve, system.n_u)
    (value,), _, _, _ = _extreme_eigs(pen, "LA", tol, maxit, seed)
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
    the estimate to count as converged, maxit the cap on Lanczos steps
    (Schur applies) and seed fixes the start vector. At the cap, or when
    the residuals stall above tol at the rounding floor, the Ritz values of
    the last step are returned with converged=False.
    """
    pen = pencil(lambda p: schur_apply(system, p), system.Mp.__matmul__,
                 system.m_solve, system.n_p)
    (lam_min, lam_max), (res_min, res_max), applies, converged = _extreme_eigs(
        pen, "BE", tol, maxit, seed
    )
    return optimal_parameters(
        lam_max,
        lam_min,
        system.params,
        iterations_used=(applies, 0),
        converged=converged,
        residuals=(res_max, res_min),
    )
