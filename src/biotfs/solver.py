"""Fixed-stress splitting solver, Richardson form and time marching.

One splitting iteration first updates the pressure from the stabilized flow
block,

    (L + inv_m) * Mp * dp = g - B u_prev - inv_m * Mp p_prev,

then solves mechanics for the displacement, A u = f + B' p. Eliminating the
displacement shows the pressure sequence is exactly the relaxed Richardson
iteration p <- p + omega * inv(Mp) (g_tilde - S p) with omega = 1/(L + inv_m),
S the pressure Schur complement and g_tilde = g - B inv(A) f, which is what
makes the optimal stabilization parameter computable a priori.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import (
    BiotSystem,
    MaterialParams,
    assemble_momentum_load,
    assemble_source_moment,
    build_system,
    manufactured_sources,
)
from .linalg import ConvergenceError, m_norm
from .mesh import DofMap, build_structured_mesh, build_taylor_hood_dofs
from .spectral import schur_apply

# Relative-criterion denominator floor; avoids 0/0 for identically zero
# solutions without affecting any nontrivial solve.
NORM_FLOOR = 1e-300

# Iterates beyond this norm are declared divergent before they can overflow.
DIVERGENCE_GUARD = 1e130

# The most entries numpy can size in one array at 16 bytes each (a pair of
# float64); a larger step or vertex count is an input error.
MAX_ENTRIES = np.iinfo(np.intp).max // 16


@dataclass(frozen=True)
class SolverConfig:
    """Splitting solver controls.

    L is the stabilization parameter (1/Pa); it must be positive for
    incompressible fluids (inv_m = 0). eps_r, in (0, 1), is the relative
    increment tolerance in the energy norms and max_iter the per-step cap.
    The inner elastic and flow solves are direct.
    """

    L: float
    eps_r: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self):
        if not 0.0 <= self.L < np.inf:
            raise ValueError(f"L must be nonnegative, got {self.L}")
        if not 0.0 < self.eps_r < 1.0:
            raise ValueError(f"eps_r must be positive and below 1, got {self.eps_r}")
        if not isinstance(self.max_iter, Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform implicit Euler grid from t0 to t_end with step tau."""

    t0: float
    tau: float
    t_end: float

    def __post_init__(self):
        if not np.all(np.isfinite((self.t0, self.tau, self.t_end))):
            raise ValueError(f"t0, tau and t_end must be finite, got {self}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        span = self.t_end - self.t0
        steps = span / self.tau
        # An overflowed span, or more steps than an array can hold, is
        # rejected before round() or times() meets it.
        if not 0.0 < steps <= MAX_ENTRIES or abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(
                f"(t_end - t0)/tau must be a positive integer of at most {MAX_ENTRIES}, "
                f"got {steps}"
            )

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t0) / self.tau))

    def times(self) -> np.ndarray:
        return self.t0 + self.tau * np.arange(1, self.n_steps + 1)


@dataclass
class IterationTrace:
    """Increment norms per iteration of one splitting solve, its count and
    its outcome."""

    increment_norms: list = field(default_factory=list)  # (dp_M, du_A)
    iterations: int = 0
    converged: bool = False


def fixed_stress_step(
    system: BiotSystem, f: np.ndarray, g: np.ndarray, u_prev: np.ndarray,
    p_prev: np.ndarray, L: float
):
    """One splitting iteration on the loads (f, g): stabilized flow update,
    then mechanics.

    Expects u_prev to be consistent with p_prev (u_prev = inv(A)(f + B'
    p_prev)), which every previous step's output satisfies. Exactly one flow
    solve and one elastic solve. Returns (u_next, p_next, load) with the
    elastic load = f + B' p_next = A u_next, a new array on every call, from
    which fixed_stress_solve takes its A-norms.
    """
    inv_m = system.params.inv_m
    if not 0.0 < L + inv_m < np.inf:
        raise ValueError(f"L + inv_m must be positive and finite, got {L + inv_m}")
    rhs = g - system.B @ u_prev - inv_m * (system.Mp @ p_prev)
    p_next = p_prev + system.m_solve(rhs) / (L + inv_m)
    load = f + system.B.T @ p_next
    return system.a_solve(load), p_next, load


def fixed_stress_solve(
    system: BiotSystem,
    f: np.ndarray,
    g: np.ndarray,
    config: SolverConfig,
    u_init: np.ndarray | None = None,
    p_init: np.ndarray | None = None,
):
    """Iterate the splitting scheme on the loads (f, g) to the relative
    increment tolerance.

    Returns (u, p, trace). Stops at the first iteration i with ||dp||_Mp <=
    eps_r ||p||_Mp and ||du||_A <= eps_r ||u||_A; the satisfying iteration
    is included in the count. A non-convergent solve returns converged=False
    on the trace instead of raising, so parameter sweeps can record it as
    divergence. u_init and p_init are only read, never copied or written.

    The A-norms take their products with A from the third value of each
    fixed_stress_step, its load A u_next = f + B' p_next: ||u||_A uses the
    load and ||du||_A the difference of two successive loads. The load
    before the first iteration is A u_init, the one product with A per
    warm-started solve (none on a cold start). Against explicit products
    the u-norms agree to ~1e-13 relative and the du-norms, a difference of
    nearly equal loads, to ~1e-9.
    """
    u = np.zeros(system.n_u) if u_init is None else np.asarray(u_init, float)
    p = np.zeros(system.n_p) if p_init is None else np.asarray(p_init, float)
    load_prev = np.zeros(system.n_u) if u_init is None else system.A @ u
    trace = IterationTrace()
    for i in range(1, config.max_iter + 1):
        u_next, p_next, load = fixed_stress_step(system, f, g, u, p, config.L)
        dp = m_norm(system.Mp, p_next - p)
        du = m_norm(system.A, u_next - u, Mx=load - load_prev)
        pn = m_norm(system.Mp, p_next)
        un = m_norm(system.A, u_next, Mx=load)
        trace.increment_norms.append((dp, du))
        u, p, load_prev = u_next, p_next, load
        trace.iterations = i
        if not (np.isfinite(dp) and np.isfinite(du) and np.isfinite(pn) and np.isfinite(un)):
            break
        if pn > DIVERGENCE_GUARD or un > DIVERGENCE_GUARD:
            break
        if dp <= config.eps_r * max(pn, NORM_FLOOR) and du <= config.eps_r * max(
            un, NORM_FLOOR
        ):
            trace.converged = True
            break
    return u, p, trace


def schur_rhs(system: BiotSystem, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Schur right-hand side g_tilde = g - B inv(A) f."""
    return g - system.B @ system.a_solve(f)


def richardson_step(
    system: BiotSystem, p_prev: np.ndarray, omega: float, g_tilde: np.ndarray
) -> np.ndarray:
    """Relaxed Richardson update on the pressure Schur complement.

    p_next = p_prev + omega * inv(Mp) (g_tilde - S p_prev), with S applied
    matrix-free and g_tilde = schur_rhs(system, f, g) computed once by the caller.
    """
    if not 0.0 <= omega < np.inf:
        raise ValueError(f"omega must be nonnegative and finite, got {omega}")
    residual = g_tilde - schur_apply(system, p_prev)
    return p_prev + omega * system.m_solve(residual)


def dense_schur(system: BiotSystem) -> np.ndarray:
    """Explicit dense Schur complement; oracle-scale systems only."""
    bt = np.asarray(system.B.T.todense(), dtype=float)
    x = system.a_solve(bt)
    return np.asarray(system.B @ x, dtype=float) + system.params.inv_m * system.Mp.toarray()


def monolithic_solve(system: BiotSystem, f: np.ndarray, g: np.ndarray):
    """Solve the coupled block system with loads (f, g) exactly via the
    pressure Schur complement.

    Runs conjugate gradients on S p = g_tilde with S applied matrix-free and
    the pressure mass matrix Mp as the preconditioner; the pencil (S, Mp) is
    well conditioned at every mesh size, so this is one path for all of
    them. The displacement then follows from one elastic solve. Raises
    ConvergenceError if CG stops short of its 1e-13 relative residual or
    produces a non-finite iterate.
    """
    n_p = system.n_p
    s_op = spla.LinearOperator((n_p, n_p), matvec=lambda v: schur_apply(system, v),
                               dtype=float)
    m_op = spla.LinearOperator((n_p, n_p), matvec=system.m_solve, dtype=float)
    p, info = spla.cg(s_op, schur_rhs(system, f, g), rtol=1e-13, atol=0.0,
                      maxiter=10 * n_p, M=m_op, callback=_require_finite)
    if info != 0:
        raise ConvergenceError(
            f"Schur CG stopped with info={info} before a 1e-13 relative residual"
        )
    u = system.a_solve(f + system.B.T @ p)
    return u, p


def _require_finite(p: np.ndarray) -> None:
    """CG callback: a non-finite iterate (breakdown on a singular S) never
    recovers, so stop at once instead of spending the iteration budget."""
    if not np.all(np.isfinite(p)):
        raise ConvergenceError("Schur CG produced a non-finite iterate")


@dataclass(frozen=True)
class TransientProblem:
    """Assembled spatial problem plus its time-dependent sources."""

    dofs: DofMap
    system: BiotSystem
    body_force: object = None
    fluid_source: object = None


MANUFACTURED_SOURCES = manufactured_sources()


def build_problem(
    n: int, params: MaterialParams, sources: tuple | None = MANUFACTURED_SOURCES
) -> TransientProblem:
    """Assemble the reduced system on an n x n mesh with optional sources,
    and factor it before anything else is allocated.

    `sources` is a (body_force, fluid_source) pair of callables taking
    (x, y, t), by default the built-in parabolic profiles, or None for a
    source-free problem.
    """
    mesh = build_structured_mesh(n)
    mesh.geometry  # long-lived, so built before the assembly's temporaries
    dofs = build_taylor_hood_dofs(mesh)
    system = build_system(dofs, params).prepare()
    body, fluid = sources or (None, None)
    return TransientProblem(dofs=dofs, system=system, body_force=body, fluid_source=fluid)


@dataclass
class TimeMarchResult:
    """Per-step iteration counts and the final state of a time march.

    A non-convergent step reports the iteration cap as its count, clears its
    flag and ends the march (warm-starting from a diverged state is
    meaningless). `average` is the mean of the counts for convergent runs
    and the cap sentinel otherwise.
    """

    times: np.ndarray
    counts: list
    converged_flags: list
    u: np.ndarray
    p: np.ndarray
    cap: int

    @property
    def average(self) -> float:
        if self.diverged:
            return float(self.cap)
        return float(np.mean(self.counts))

    @property
    def diverged(self) -> bool:
        return not all(self.converged_flags)


def step_loads(
    problem: TransientProblem, t: float, tau: float, u: np.ndarray, p: np.ndarray
):
    """Reduced loads (f, g) of the implicit Euler step that ends at time t.

    u and p are the reduced state of the previous step. f is the body-force
    moment on the free displacement dofs and
    g = B u + inv_m * Mp p + tau * (source moment) on the interior pressure
    dofs; a missing source has a zero moment.
    """
    system, dofs = problem.system, problem.dofs
    f = assemble_momentum_load(dofs, problem.body_force, t)[dofs.free_u]
    moment = assemble_source_moment(dofs, problem.fluid_source, t)
    g = system.B @ u + system.params.inv_m * (system.Mp @ p) + tau * moment[dofs.free_p]
    return f, g


def time_march(
    problem: TransientProblem, config: SolverConfig, grid: TimeGrid
) -> TimeMarchResult:
    """Implicit Euler march driven by the splitting solver.

    Every step rebuilds the loads from the previous state and the current
    sources, then warm-starts the splitting iteration from that state. The
    first step starts from the homogeneous initial condition. The march
    stops at the first non-convergent step.
    """
    system = problem.system
    u = np.zeros(system.n_u)
    p = np.zeros(system.n_p)
    counts, flags = [], []
    times = grid.times()
    for t in times:
        f, g = step_loads(problem, t, grid.tau, u, p)
        u, p, trace = fixed_stress_solve(system, f, g, config, u_init=u, p_init=p)
        counts.append(trace.iterations if trace.converged else config.max_iter)
        flags.append(trace.converged)
        if not trace.converged:
            break
    return TimeMarchResult(
        times=times[: len(counts)],
        counts=counts,
        converged_flags=flags,
        u=u,
        p=p,
        cap=config.max_iter,
    )
