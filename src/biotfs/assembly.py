"""Finite element assembly of the coupled poroelastic block system.

For impermeable media the time-discrete two-field problem reads, per step,

    [ A  -B']  [u]   [f]
    [ B   C ]  [p] = [g],      C = inv_m * Mp,

with A the linear elasticity operator 2*mu*(eps(u), eps(v)) + lam*(div u,
div v), B the pressure/divergence coupling alpha*(div u, q), Mp the pressure
mass matrix and g carrying the previous step's state plus the fluid source.
All operators are assembled over the full dof set and then reduced by
eliminating Dirichlet rows and columns. Element contractions pass
optimize=True to np.einsum, because numpy's default generic loop is 20-50x
slower for these shapes.
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
    read `B.T`. The factors of A and Mp are built once per system, on first
    use or by `prepare()`; a new matrix means a new system. The loads of a
    time step are not part of it: the solves take them as arguments.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    Mp: sp.csr_matrix
    params: MaterialParams

    @property
    def n_u(self) -> int:
        return self.A.shape[0]

    @property
    def n_p(self) -> int:
        return self.Mp.shape[0]

    def prepare(self) -> "BiotSystem":
        """Build the factor of A, then that of Mp. With A's first, an n=64
        run peaks 13-18 MB lower than with Mp's factor first."""
        self.a_solve
        self.m_solve
        return self

    @cached_property
    def a_solve(self):
        return factorize(self.A).solve

    @cached_property
    def m_solve(self):
        return factorize(self.Mp).solve


def _p2_physical_gradients(mesh: Mesh):
    """Physical P2 gradients at the quadrature points, shape (nt, nq, 6, 2)."""
    _, _, det, inv_jt = mesh.geometry
    ref = p2_gradients(TRIANGLE_QUAD_POINTS)
    return np.einsum("eab,qib->eqia", inv_jt, ref, optimize=True), det


def _u_dof_indices(dofs: DofMap) -> np.ndarray:
    """Interleaved displacement dof indices per triangle, shape (nt, 12)."""
    nodes = dofs.tri_nodes
    idx = np.empty((nodes.shape[0], 12), dtype=np.int64)
    idx[:, 0::2] = 2 * nodes
    idx[:, 1::2] = 2 * nodes + 1
    return idx


def _scatter(local: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape):
    """Sum local matrices into a global CSR; scipy's COO to CSR conversion
    sums duplicates and sorts the indices, so the result is canonical."""
    rows = np.broadcast_to(rows, local.shape)
    cols = np.broadcast_to(cols, local.shape)
    return sp.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=shape
    ).tocsr()


def _grad_products(mesh: Mesh) -> np.ndarray:
    """gab[e,i,j,a,b] = integral over cell e of dNi/dx_a * dNj/dx_b."""
    pg, det = _p2_physical_gradients(mesh)
    return np.einsum(
        "q,eqia,eqjb,e->eijab", TRIANGLE_QUAD_WEIGHTS, pg, pg, det, optimize=True
    )


def _vector_p2_form(dofs: DofMap, mu: float, lam: float) -> sp.csr_matrix:
    """Assemble 2*mu*(eps(u), eps(v)) + lam*(div u, div v) over all
    displacement dofs.

    For the vector P2 basis this expands into mu*(delta_ab grad.grad + cross
    terms) plus the lam div-div block; (mu, lam) = (0, 1) leaves exactly the
    div-div form.
    """
    gab = _grad_products(dofs.mesh)
    gg = gab[..., 0, 0] + gab[..., 1, 1]
    nt = dofs.mesh.num_triangles
    local = np.zeros((nt, 12, 12))
    for a in range(2):
        for b in range(2):
            block = mu * gab[..., b, a] + lam * gab[..., a, b]
            if a == b:
                block = block + mu * gg
            local[:, a::2, b::2] = block
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
    pg, det = _p2_physical_gradients(mesh)
    vals = p1_values(TRIANGLE_QUAD_POINTS)
    local = alpha * np.einsum(
        "q,qv,eqjb,e->evjb", TRIANGLE_QUAD_WEIGHTS, vals, pg, det, optimize=True
    )
    local = local.reshape(mesh.num_triangles, 3, 12)
    rows = mesh.triangles[:, :, None]
    cols = _u_dof_indices(dofs)[:, None, :]
    shape = (dofs.num_pressure_dofs, dofs.num_displacement_dofs)
    return _scatter(local, rows, cols, shape)


def assemble_pressure_mass(dofs: DofMap) -> sp.csr_matrix:
    """Assemble the consistent P1 pressure mass matrix over all vertices."""
    mesh = dofs.mesh
    det = mesh.geometry[2]
    vals = p1_values(TRIANGLE_QUAD_POINTS)
    local = np.einsum(
        "q,qv,qw,e->evw", TRIANGLE_QUAD_WEIGHTS, vals, vals, det, optimize=True
    )
    nv = dofs.num_pressure_dofs
    return _scatter(local, mesh.triangles[:, :, None], mesh.triangles[:, None, :], (nv, nv))


def assemble_divdiv(dofs: DofMap) -> sp.csr_matrix:
    """Assemble the div-div operator (div phi_i, div phi_j), all dofs.

    It is the lam-part of the elasticity form. Its quadratic form is the
    squared L2 norm of the discrete divergence; rigid motions and every
    discretely divergence-free field lie in its kernel.
    """
    return _vector_p2_form(dofs, 0.0, 1.0)


def _moments(values, basis: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Per-cell moments of quadrature-point values (nt, nq) against basis
    values (nq, nb), shape (nt, nb)."""
    return np.einsum(
        "q,qi,eq,e->ei", TRIANGLE_QUAD_WEIGHTS, basis, np.asarray(values), det,
        optimize=True,
    )


def assemble_momentum_load(dofs: DofMap, body_force, t: float) -> np.ndarray:
    """Moment vector of the body force against the vector P2 basis.

    body_force(x, y, t) must accept arrays and return the two components.
    """
    if body_force is None:
        return np.zeros(dofs.num_displacement_dofs)
    fx, fy = body_force(*dofs.mesh.quad_coords, t)
    vals = p2_values(TRIANGLE_QUAD_POINTS)
    nodes, n = dofs.tri_nodes.ravel(), dofs.num_nodes
    vec = np.empty(dofs.num_displacement_dofs)
    det = dofs.mesh.geometry[2]
    vec[0::2] = np.bincount(nodes, _moments(fx, vals, det).ravel(), minlength=n)
    vec[1::2] = np.bincount(nodes, _moments(fy, vals, det).ravel(), minlength=n)
    return vec


def assemble_source_moment(dofs: DofMap, source, t: float) -> np.ndarray:
    """Moment vector of a scalar source against the P1 basis, all vertices."""
    if source is None:
        return np.zeros(dofs.num_pressure_dofs)
    sval = source(*dofs.mesh.quad_coords, t)
    local = _moments(sval, p1_values(TRIANGLE_QUAD_POINTS), dofs.mesh.geometry[2])
    return np.bincount(
        dofs.mesh.triangles.ravel(), local.ravel(), minlength=dofs.num_pressure_dofs
    )


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
    A: sp.csr_matrix,
    B: sp.csr_matrix,
    Mp: sp.csr_matrix,
    dofs: DofMap,
    params: MaterialParams,
) -> BiotSystem:
    """Eliminate Dirichlet rows/columns and bundle the reduced operators.

    Homogeneous data only: constrained dofs are removed outright, which
    preserves symmetry and definiteness exactly.
    """
    free_u, free_p = dofs.free_u, dofs.free_p
    if free_p.size == 0:
        raise ValueError(
            "no interior pressure dofs; use at least 2 subdivisions per side"
        )
    return BiotSystem(
        A=A[free_u][:, free_u].tocsr(),
        B=B[free_p][:, free_u].tocsr(),
        Mp=Mp[free_p][:, free_p].tocsr(),
        params=params,
    )


def build_system(dofs: DofMap, params: MaterialParams) -> BiotSystem:
    """Assemble A, B and Mp and reduce them; nothing is factored yet."""
    A = assemble_elasticity(dofs, params)
    B = assemble_coupling(dofs, params.alpha)
    Mp = assemble_pressure_mass(dofs)
    return apply_boundary_conditions(A, B, Mp, dofs, params)


def reduced_divdiv(dofs: DofMap) -> sp.csr_matrix:
    """The div-div operator on the free displacement dofs. No solve reads
    it, so no system carries it; `estimate_k_star` and the dump call this."""
    free_u = dofs.free_u
    return assemble_divdiv(dofs)[free_u][:, free_u].tocsr()
