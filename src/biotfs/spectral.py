"""Spectral estimation for the pressure Schur complement pencil.

The splitting solver's pressure update is a relaxed Richardson iteration on
S = inv_m * Mp + S0, S0 = B inv(A) B', measured against the pressure mass
matrix Mp. Its contraction factor for relaxation omega is

    rho(omega) = max(|1 - omega*lambda_min|, |1 - omega*lambda_max|),

with the extreme eigenvalues lambda = mu + inv_m of the pencil (S, Mp),
where mu are those of the unshifted pencil (S0, Mp). Only mu_max and mu_min
are estimated, so inv_m enters once and exactly. The optimal relaxation
omega = 2 / (lambda_max + lambda_min) gives the optimal stabilization
l_opt = 1/omega - inv_m = (mu_max + mu_min)/2 of the splitting scheme. The
same eigenvalues identify two bulk-type moduli: k_star = alpha^2 / mu_max
and beta = alpha^2 / mu_min, which exists for inf-sup stable
discretizations. None of l_opt, k_star and beta depends on inv_m. The
nonzero eigenvalues of the projected pencil (B' inv(Mp) B, A) are those of
(S0, Mp), so it reproduces mu_max and mu_min. The div-div pencil
(Ddiv, A), whose largest eigenvalue estimate_k_star inverts, does not: for
Taylor-Hood the divergence of a P2 field is not in the P1 pressure space,
so alpha^2 times that eigenvalue only bounds mu_max from above (a relative
gap of 34.5% on the 4x4 mesh).

Both extreme eigenvalues come from one unrestarted Lanczos run with full
reorthogonalization (Parlett, The Symmetric Eigenvalue Problem, 1998) on
the matrix-free pencil (S0, Mp): S0 is only ever applied through the cached
factorization of A, never formed, and each step costs one such apply. The
run checks the Ritz residual estimates of both ends after every step, so it
stops at the first step that meets the tolerance instead of at the end of a
restart cycle. Every returned eigenpair carries a certificate, its relative
eigen-residual ||S0 v - mu Mp v||_{inv(Mp)} / (|mu| ||v||_{Mp}),
computed explicitly; by the Krylov-Weinstein bound mu then lies within
that relative distance of an eigenvalue of the pencil. The run stops on
the certificate, never on the estimate alone, and an estimate counts as
converged only when every residual is within the requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np
import scipy.linalg

from .assembly import BiotSystem, MaterialParams, reduced_divdiv
from .linalg import m_norm


class EstimationError(RuntimeError):
    """A spectral estimate is structurally unavailable (degenerate input)."""


@dataclass(frozen=True)
class SpectralEstimates:
    """The extreme eigenvalues mu_max >= mu_min > 0 of the unshifted pencil
    (S0, Mp), and every quantity derived from them as a property.

    Construction checks 0 < mu_min <= mu_max to a relative 1e-12 and clamps
    mu_min, so beta >= k_star and rho_opt in [0, 1) hold by construction.

    iterations_used is (Lanczos steps, 0): one run serves both ends, and
    each step is one Schur apply; the count leaves out the two products of
    each certificate. residuals are the relative inv(Mp)-norm
    eigen-residuals of (lambda_max, lambda_min) on (S, Mp); converged is
    False when the step cap or the rounding floor was reached first.
    """

    mu_max: float
    mu_min: float
    params: MaterialParams
    iterations_used: tuple[int, int] | None = None
    converged: bool = True
    residuals: tuple[float, float] | None = None

    def __post_init__(self):
        if not 0.0 < self.mu_min <= self.mu_max * (1.0 + 1e-12):
            raise ValueError(
                f"pencil eigenvalues violate 0 < mu_min <= mu_max: "
                f"mu_min={self.mu_min}, mu_max={self.mu_max}"
            )
        object.__setattr__(self, "mu_min", min(self.mu_min, self.mu_max))

    @property
    def lambda_max(self) -> float:
        return self.mu_max + self.params.inv_m

    @property
    def lambda_min(self) -> float:
        return self.mu_min + self.params.inv_m

    @property
    def k_star(self) -> float:
        return self.params.alpha**2 / self.mu_max

    @property
    def beta(self) -> float:
        return self.params.alpha**2 / self.mu_min

    @property
    def omega_opt(self) -> float:
        return 2.0 / (self.lambda_max + self.lambda_min)

    @property
    def l_opt(self) -> float:
        return 0.5 * (self.mu_max + self.mu_min)

    @property
    def d_opt(self) -> float:
        """The optimal stabilization in the sweep's variable D = alpha^2 / L."""
        return self.params.alpha**2 / self.l_opt

    @property
    def rho_opt(self) -> float:
        return (self.mu_max - self.mu_min) / (self.lambda_max + self.lambda_min)

    def rho(self, omega: float) -> float:
        """Richardson contraction factor for an arbitrary relaxation."""
        return max(
            abs(1.0 - omega * self.lambda_min),
            abs(1.0 - omega * self.lambda_max),
        )


def schur_apply(system: BiotSystem, p: np.ndarray, *, shift: bool = True) -> np.ndarray:
    """Apply S = inv_m*Mp + S0, S0 = B inv(A) B', without forming it;
    shift=False leaves out the inv_m*Mp term and applies S0.

    The inner elastic solve uses the cached direct factorization.
    """
    if p.shape[0] != system.n_p:
        raise ValueError(f"pressure vector has length {p.shape[0]}, expected {system.n_p}")
    out = system.B @ system.a_solve(system.B.T @ p)
    if shift:
        out = out + system.params.inv_m * (system.Mp @ p)
    return out


def _extreme_eigs(K, M, Minv, which: str, tol: float, maxit: int, seed: int):
    """Extreme eigenpairs of the symmetric pencil (K, M) by Lanczos with full
    reorthogonalization.

    K(x) applies K, M is the positive definite matrix itself and Minv(x)
    applies inv(M). which="BE" gives both ends, which="LA" the largest; the
    order of the pencil is that of M. The M-orthonormal basis Q grows by one
    vector per step of one K product and one solve: r = inv(M) K(q) goes
    twice through classical Gram-Schmidt against the whole basis in the M
    inner product, formed as Q (M r), and the first pass reuses K(q) as M r.
    The two products with M per step cost ~0.03 ms each with Mp at n=64,
    against ~8 ms for the step, and keep Q the run's only n x j array. After
    step j a Ritz pair (theta, y) has the residual estimate |beta_j s_j| /
    |theta|, with s_j the last entry of its eigenvector of the tridiagonal
    T_j. Once every wanted estimate is within tol the explicit certificate
    is computed, and the run stops when it passes, after min(maxit, size)
    steps, when the Krylov space is invariant (beta_j == 0), or when a
    failed certificate is no better than the previous failed one: the
    residuals have reached the rounding floor, and further steps would only
    repeat the certificate.

    Returns (values, residuals, applies, converged): the eigenvalues in
    ascending order, their relative inv(M)-norm eigen-residuals, the number
    of K products taken before the certificate, and whether every residual
    is within tol. Raises EstimationError when K vanishes on the start
    vector, and ValueError unless 0 < tol < 1 and maxit is an integer >= 1.
    """
    if not (0.0 < tol < 1.0 and isinstance(maxit, Integral) and maxit >= 1):
        raise ValueError(f"need a finite tol > 0 and maxit >= 1, an integer, "
                         f"with tol below 1, got {tol} and {maxit!r}")
    size = M.shape[0]
    steps = min(maxit, size)
    pick = [0, -1] if which == "BE" else [-1]
    q = np.random.default_rng(seed).standard_normal(size)
    Q = (q / np.sqrt(q @ (M @ q)))[None]
    alpha, beta = [], []
    failed = np.inf  # worst residual of the last failed certificate
    for j in range(1, steps + 1):
        Mr = K(Q[-1])
        r, coef = Minv(Mr), 0.0
        for _ in range(2):
            c = Q @ Mr
            r, coef = r - c @ Q, coef + c
            Mr = M @ r
        alpha.append(coef[-1])
        if alpha[0] == 0.0:
            raise EstimationError("the operator K of the pencil vanishes")
        beta.append(np.sqrt(max(r @ Mr, 0.0)))
        theta, s = scipy.linalg.eigh_tridiagonal(alpha, beta[:-1])
        last = j == steps or beta[-1] == 0.0
        if last or np.all(np.abs(beta[-1] * s[-1, pick]) <= tol * np.abs(theta[pick])):
            values, residuals = theta[pick].tolist(), []
            for lam, v in zip(values, s[:, pick].T @ Q):
                err = Minv(K(v)) - lam * v
                residuals.append(m_norm(M, err) / max(abs(lam) * m_norm(M, v), 1e-300))
            converged = all(res <= tol for res in residuals)
            if converged or last or max(residuals) >= failed:
                return values, residuals, j, converged
            failed = max(residuals)
        Q = np.vstack((Q, r / beta[-1]))


def estimate_k_star(problem, tol: float = 1e-8, maxit: int = 50000,
                    seed: int = 1) -> float:
    """Sharpest constant k with  u'Au >= k * ||div u||^2  on the free space.

    Computed as the reciprocal of the largest eigenvalue of the pencil
    (Ddiv, A) of a problem, with Ddiv assembled for this call from its
    dofs; it is at least the physical drained bulk modulus and depends
    on the boundary conditions. Raises EstimationError when the eigenvalue's
    residual certificate does not pass tol within maxit Lanczos steps.
    """
    system = problem.system
    ddiv = reduced_divdiv(problem.dofs)
    (value,), (residual,), _, converged = _extreme_eigs(
        ddiv.__matmul__, system.A, system.a_solve, "LA", tol, maxit, seed)
    if value <= 0.0:
        raise EstimationError(
            "div-div form vanishes on the displacement space; "
            "the discretization is degenerate"
        )
    if not converged:
        raise EstimationError(
            f"k_star not certified: eigen-residual {residual:.3e} exceeds tol {tol:.3e}"
        )
    return 1.0 / value


def optimal_parameters(lambda_max: float, lambda_min: float,
                       params: MaterialParams) -> SpectralEstimates:
    """The estimates from the extreme eigenvalues of (S, Mp)."""
    return SpectralEstimates(lambda_max - params.inv_m, lambda_min - params.inv_m, params)


def estimate_spectrum(system: BiotSystem, tol: float = 1e-8,
                      maxit: int = 50000, seed: int = 1) -> SpectralEstimates:
    """Estimate both extreme eigenvalues of (S0, Mp) in one Lanczos run.

    tol is the relative eigen-residual every returned pair must meet on
    (S0, Mp) for the estimate to count as converged, maxit the cap on
    Lanczos steps (Schur applies) and seed fixes the start vector. At the
    cap, or when the residuals stall above tol at the rounding floor, the
    Ritz values of the last step are returned with converged=False. The
    reported residuals are those on (S, Mp): the same residual vector,
    relative to |mu + inv_m| instead of |mu|.
    """
    (mu_min, mu_max), residuals, steps, converged = _extreme_eigs(
        lambda p: schur_apply(system, p, shift=False), system.Mp, system.m_solve,
        "BE", tol, maxit, seed)
    inv_m = system.params.inv_m
    res_min, res_max = (res * (abs(mu) / max(abs(mu + inv_m), 1e-300))
                        for res, mu in zip(residuals, (mu_min, mu_max)))
    return SpectralEstimates(mu_max, mu_min, system.params, iterations_used=(steps, 0),
                             converged=converged, residuals=(res_max, res_min))
