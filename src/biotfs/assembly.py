"""Finite element assembly of the coupled poroelastic block system.

For impermeable media the time-discrete two-field problem reads, per step,

    [ A  -B']  [u]   [f]
    [ B   C ]  [p] = [g],      C = inv_m * Mp,

with A the linear elasticity operator 2*mu*(eps(u), eps(v)) + lam*(div u,
div v), B the pressure/divergence coupling alpha*(div u, q), Mp the pressure
mass matrix and g carrying the previous step's state plus the fluid source.
Each operator is assembled over the full dof set and then reduced by
eliminating Dirichlet rows and columns.

Element matrices follow the tensor representation of Kirby & Logg (ACM
TOMS 2006). On an affine cell a physical gradient is inv(J)' times the
reference one, so each element matrix contracts a reference-triangle
tensor with the cell's metric: det(J) inv(J)' (x) inv(J)' for A and Ddiv,
det(J) inv(J)' for B, det(J) for Mp, one matmul per operator. The 6-point
rule integrates the reference tensors exactly: the cells are affine and
their integrands have degree 2 <= 4. The loads contract their values at the
rule's points, times det(J), with the weighted basis tables _P2_W and
_P1_W; they keep physical points only because their sources are arbitrary
callables, and compute them on each call. The einsum calls that remain pass
optimize=True; np.einsum's default generic loop is 20-50x slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .elements import (
    TRIANGLE_QUAD_POINTS,
    TRIANGLE_QUAD_WEIGHTS,
    p1_values,
    p2_gradients,
    p2_values,
)
from .linalg import factorize
from .mesh import DofMap, Mesh

SOURCE_SCALE = 1.0e9

# Reference-triangle integrals, xi the reference coordinates, N the P2 and
# M the P1 basis: _GRAD_GRAD[c,d,i,j] = int dN_i/dxi_c dN_j/dxi_d,
# _VAL_GRAD[c,v,j] = int M_v dN_j/dxi_c and _MASS[v,w] = int M_v M_w.
_WEIGHTS, _P1 = TRIANGLE_QUAD_WEIGHTS, p1_values(TRIANGLE_QUAD_POINTS)
_P2_GRAD = p2_gradients(TRIANGLE_QUAD_POINTS)
_GRAD_GRAD = np.einsum("q,qic,qjd->cdij", _WEIGHTS, _P2_GRAD, _P2_GRAD, optimize=True)
_VAL_GRAD = np.einsum("q,qv,qjc->cvj", _WEIGHTS, _P1, _P2_GRAD, optimize=True)
_MASS = np.einsum("q,qv,qw->vw", _WEIGHTS, _P1, _P1, optimize=True)
# The rule's weights times the basis values at its points, _P2_W[q,i] =
# w_q N_i(xi_q) and _P1_W[q,v] = w_q M_v(xi_q): a load's cell moments.
_P2_W = _WEIGHTS[:, None] * p2_values(TRIANGLE_QUAD_POINTS)
_P1_W = _WEIGHTS[:, None] * _P1


@dataclass(frozen=True)
class MaterialParams:
    """Material coefficients of the poroelastic medium.

    mu, lam are the Lame parameters (Pa), alpha the Biot-Willis coupling
    coefficient, inv_m the compressibility (1/Pa). Only impermeable media
    are supported, so kappa must be exactly zero.
    """

    mu: float
    lam: float
    alpha: float = 1.0
    inv_m: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.mu < np.inf:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 <= self.inv_m < np.inf:
            raise ValueError(f"inv_m must be nonnegative, got {self.inv_m}")
        if self.kappa != 0.0:
            raise ValueError(
                "only impermeable media are supported: kappa must be 0, "
                f"got {self.kappa}"
            )

    @property
    def drained_bulk_modulus(self) -> float:
        """Physical drained bulk modulus 2*mu/d + lam, with d = 2."""
        return self.mu + self.lam


@dataclass(frozen=True)
class BiotSystem:
    """Reduced block system: the three operators of the pencil, fixed at build.

    A acts on the free displacement dofs, Mp on the interior pressure dofs
    and B maps free displacements to interior pressures; products with B'
    read `B.T`. A and Mp are stored as canonical CSC, the format SuperLU
    factors, so `factorize` reads their own arrays and no second copy of A
    exists while it is factored; B, never factored, is CSR. The factors of
    A and Mp are built once per system: `build_system` factors A before B
    and Mp are assembled, and any other factor is built on first use or by
    `prepare()`. A new matrix means a new system, which factors its own.
    The loads of a time step are not part of it: the solves take them as
    arguments.
    """

    A: sp.csc_matrix
    B: sp.csr_matrix
    Mp: sp.csc_matrix
    params: MaterialParams

    @property
    def n_u(self) -> int:
        return self.A.shape[0]

    @property
    def n_p(self) -> int:
        return self.Mp.shape[0]

    def prepare(self) -> "BiotSystem":
        """Build whichever factor is missing, A's before Mp's. A's first
        keeps an n=64 run's peak 13-18 MB lower than Mp's first."""
        self.a_solve
        self.m_solve
        return self

    @cached_property
    def a_solve(self):
        return factorize(self.A).solve

    @cached_property
    def m_solve(self):
        return factorize(self.Mp).solve


def _u_dof_indices(dofs: DofMap) -> np.ndarray:
    """Interleaved displacement dof indices per triangle, shape (nt, 12)."""
    nodes = dofs.tri_nodes
    idx = np.empty((nodes.shape[0], 12), dtype=np.int64)
    idx[:, 0::2] = 2 * nodes
    idx[:, 1::2] = 2 * nodes + 1
    return idx


def _scatter(local: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape):
    """Sum local matrices into a global CSR; scipy's COO to CSR conversion
    sums duplicates and sorts the indices, so the result is canonical.

    The COO index arrays, each as long as `local`, are int32, SuperLU's
    index type, whenever max(shape) fits in it, and int64 otherwise.
    """
    index = np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64
    rows = np.broadcast_to(np.asarray(rows, dtype=index), local.shape)
    cols = np.broadcast_to(np.asarray(cols, dtype=index), local.shape)
    return sp.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=shape
    ).tocsr()


def _vector_p2_form(dofs: DofMap, mu: float, lam: float) -> sp.csr_matrix:
    """Assemble 2*mu*(eps(u), eps(v)) + lam*(div u, div v) over all
    displacement dofs.

    With g_xy the cell integral of dN_i/dx_x * dN_j/dx_y, block (a, b) of
    the element matrix is mu*g_ba + lam*g_ab + delta_ab*mu*(g_00 + g_11);
    the (mu, lam) table folds these into the kernel, and (mu, lam) = (0, 1)
    leaves exactly the div-div form.
    """
    eye = np.eye(2)
    table = (
        mu * np.einsum("xb,ya->xyab", eye, eye, optimize=True)
        + lam * np.einsum("xa,yb->xyab", eye, eye, optimize=True)
        + mu * np.einsum("xy,ab->xyab", eye, eye, optimize=True)
    )
    kernel = np.einsum("xyab,cdij->xcydiajb", table, _GRAD_GRAD, optimize=True)
    _, _, det, inv_jt = dofs.mesh.geometry
    # metric[e, (x, c), (y, d)] = det * inv_jt[x, c] * inv_jt[y, d]
    metric = (det[:, None, None] * inv_jt).reshape(-1, 4, 1) * inv_jt.reshape(-1, 1, 4)
    local = (metric.reshape(-1, 16) @ kernel.reshape(16, 144)).reshape(-1, 12, 12)
    idx = _u_dof_indices(dofs)
    n = dofs.num_displacement_dofs
    return _scatter(local, idx[:, :, None], idx[:, None, :], (n, n))


def assemble_elasticity(dofs: DofMap, params: MaterialParams) -> sp.csr_matrix:
    """Assemble the full linear elasticity operator over all displacement
    dofs, 2*mu*(eps(u), eps(v)) + lam*(div u, div v)."""
    return _vector_p2_form(dofs, params.mu, params.lam)


def assemble_coupling(dofs: DofMap, alpha: float) -> sp.csr_matrix:
    """Assemble B with B[q, v] = alpha * integral (div phi_v) psi_q.

    Rows are pressure dofs (vertices), columns displacement dofs.
    """
    mesh = dofs.mesh
    kernel = alpha * np.einsum("xb,cvj->xcvjb", np.eye(2), _VAL_GRAD, optimize=True)
    _, _, det, inv_jt = mesh.geometry
    metric = det[:, None, None] * inv_jt
    local = (metric.reshape(-1, 4) @ kernel.reshape(4, 36)).reshape(-1, 3, 12)
    rows = mesh.triangles[:, :, None]
    cols = _u_dof_indices(dofs)[:, None, :]
    shape = (dofs.num_pressure_dofs, dofs.num_displacement_dofs)
    return _scatter(local, rows, cols, shape)


def assemble_pressure_mass(dofs: DofMap) -> sp.csr_matrix:
    """Assemble the consistent P1 pressure mass matrix over all vertices."""
    mesh = dofs.mesh
    local = mesh.geometry[2][:, None, None] * _MASS
    nv = dofs.num_pressure_dofs
    return _scatter(local, mesh.triangles[:, :, None], mesh.triangles[:, None, :], (nv, nv))


def assemble_divdiv(dofs: DofMap) -> sp.csr_matrix:
    """Assemble the div-div operator (div phi_i, div phi_j), all dofs.

    It is the lam-part of the elasticity form. Its quadratic form is the
    squared L2 norm of the discrete divergence; rigid motions and every
    discretely divergence-free field lie in its kernel.
    """
    return _vector_p2_form(dofs, 0.0, 1.0)


def _quad_points(mesh: Mesh) -> tuple:
    """Physical coordinates of the rule's points, two (nt, nq) arrays."""
    v, jac, _, _ = mesh.geometry
    pts = v[:, None, 0, :] + np.einsum("eab,qb->eqa", jac, TRIANGLE_QUAD_POINTS, optimize=True)
    return pts[..., 0], pts[..., 1]


def assemble_momentum_load(dofs: DofMap, body_force, t: float) -> np.ndarray:
    """Moment vector of the body force against the vector P2 basis.

    body_force(x, y, t) must accept arrays and return the two components.
    """
    if body_force is None:
        return np.zeros(dofs.num_displacement_dofs)
    fx, fy = body_force(*_quad_points(dofs.mesh), t)
    det = dofs.mesh.geometry[2][:, None]
    nodes, n = dofs.tri_nodes.ravel(), dofs.num_nodes
    vec = np.empty(dofs.num_displacement_dofs)
    vec[0::2] = np.bincount(nodes, ((fx * det) @ _P2_W).ravel(), minlength=n)
    vec[1::2] = np.bincount(nodes, ((fy * det) @ _P2_W).ravel(), minlength=n)
    return vec


def assemble_source_moment(dofs: DofMap, source, t: float) -> np.ndarray:
    """Moment vector of a scalar source against the P1 basis, all vertices."""
    if source is None:
        return np.zeros(dofs.num_pressure_dofs)
    mesh = dofs.mesh
    local = (source(*_quad_points(mesh), t) * mesh.geometry[2][:, None]) @ _P1_W
    return np.bincount(mesh.triangles.ravel(), local.ravel(), minlength=dofs.num_pressure_dofs)


def manufactured_sources():
    """Closed-form body force and fluid source with parabolic profiles.

    Both vanish on the domain boundary and at t = 0. The body force carries
    a rock-scale magnitude so displacements are commensurate with the Lame
    parameters; the fluid source stays order one, which keeps the coupled
    solution well conditioned in double precision. Iteration counts of the
    splitting solver do not depend on this choice.
    """

    def profile(x, y, t):
        return t * x * (1.0 - x) * y * (1.0 - y)

    def body_force(x, y, t):
        v = SOURCE_SCALE * profile(x, y, t)
        return v, np.copy(v)

    def fluid_source(x, y, t):
        return profile(x, y, t)

    return body_force, fluid_source


def apply_boundary_conditions(
    matrix: sp.spmatrix, rows: np.ndarray, cols: np.ndarray, format: str
) -> sp.spmatrix:
    """Eliminate the Dirichlet rows and columns of one assembled operator:
    keep the free `rows` and `cols`, in the sparse `format` given.

    Homogeneous data only: constrained dofs are removed outright, which
    preserves symmetry and definiteness exactly. Every reduced operator
    goes through here.
    """
    return matrix[rows][:, cols].asformat(format)


def reduced_operators(dofs: DofMap, params: MaterialParams):
    """Yield the reduced A (canonical CSC), B (CSR) and Mp (canonical CSC),
    in that order. Each is assembled only when it is asked for, and its
    full form is freed once it is reduced."""
    free_u, free_p = dofs.free_u, dofs.free_p
    if free_p.size == 0:
        raise ValueError(
            "no interior pressure dofs; use at least 2 subdivisions per side"
        )
    yield apply_boundary_conditions(assemble_elasticity(dofs, params), free_u, free_u, "csc")
    yield apply_boundary_conditions(assemble_coupling(dofs, params.alpha), free_p, free_u, "csr")
    yield apply_boundary_conditions(assemble_pressure_mass(dofs), free_p, free_p, "csc")


def build_system(dofs: DofMap, params: MaterialParams) -> BiotSystem:
    """Assemble, reduce and factor A, then assemble and reduce B and Mp.

    A's factor sets most of the build's peak RSS; built before B and Mp
    exist, it peaks lower, at the same RSS in every process measured
    (README). It enters the system's `a_solve` cache; Mp is factored on
    first use or by `prepare()`. Raises ValueError before any assembly
    when the mesh has no interior pressure dofs.
    """
    operators = reduced_operators(dofs, params)
    A = next(operators)
    a_solve = factorize(A).solve
    B, Mp = operators
    system = BiotSystem(A=A, B=B, Mp=Mp, params=params)
    vars(system)["a_solve"] = a_solve  # where cached_property keeps it
    return system


def reduced_divdiv(dofs: DofMap) -> sp.csr_matrix:
    """The div-div operator on the free displacement dofs. No solve reads
    it, so no system carries it; `estimate_k_star` and the dump call this."""
    return apply_boundary_conditions(assemble_divdiv(dofs), dofs.free_u, dofs.free_u, "csr")
