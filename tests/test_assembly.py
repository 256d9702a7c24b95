import dataclasses

import numpy as np
import pytest

import biotfs as bf
from biotfs.assembly import (
    BiotSystem,
    _p2_physical_gradients,
    assemble_coupling,
    assemble_divdiv,
    assemble_elasticity,
    assemble_pressure_mass,
    build_system,
    manufactured_sources,
    reduced_divdiv,
)
from biotfs.elements import TRIANGLE_QUAD_POINTS, TRIANGLE_QUAD_WEIGHTS, p2_gradients
from biotfs.mesh import Mesh, build_structured_mesh, build_taylor_hood_dofs

from oracles import (
    divdiv_entry_reference,
    elasticity_entry_reference,
    integrate_reference,
    integrate_triangle,
    p1_value,
    p2_value,
)


def reference_triangle_mesh():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    triangles = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [0, 2], [1, 2]])
    return Mesh(vertices=vertices, triangles=triangles, edges=edges)


# Assembled dof order on the reference mesh lists the midpoint of edge
# (0,1) first, then (0,2), then (1,2); the oracle's node order is (0,1),
# (1,2), (2,0).
REF_PERM = [0, 1, 2, 3, 5, 4]


def test_quadrature_rule_exact_to_degree_four():
    for px in range(5):
        for py in range(5 - px):
            exact = integrate_reference(lambda x, y: x**px * y**py)
            rule = float(
                np.sum(
                    TRIANGLE_QUAD_WEIGHTS
                    * TRIANGLE_QUAD_POINTS[:, 0] ** px
                    * TRIANGLE_QUAD_POINTS[:, 1] ** py
                )
            )
            assert abs(rule - exact) <= 1e-15


def test_elasticity_rigid_modes(params):
    mesh = build_structured_mesh(4)
    dofs = build_taylor_hood_dofs(mesh)
    A = assemble_elasticity(dofs, params)
    scale = abs(A).max()
    x, y = dofs.node_coords[:, 0], dofs.node_coords[:, 1]
    translation = np.zeros(dofs.num_displacement_dofs)
    translation[0::2] = 1.0
    rotation = np.empty(dofs.num_displacement_dofs)
    rotation[0::2] = -y
    rotation[1::2] = x
    assert abs(translation @ (A @ translation)) <= 1e-12 * scale
    assert abs(rotation @ (A @ rotation)) <= 1e-12 * scale


def test_elasticity_reference_triangle_vs_quadrature_oracle():
    mesh = reference_triangle_mesh()
    dofs = build_taylor_hood_dofs(mesh)
    mats = bf.MaterialParams(mu=1.0, lam=0.0)
    A = assemble_elasticity(dofs, mats).toarray()
    for io, ia in enumerate(REF_PERM):
        for jo, ja in enumerate(REF_PERM):
            for a in range(2):
                for b in range(2):
                    expected = elasticity_entry_reference(io, a, jo, b, mu=1.0, lam=0.0)
                    assert abs(A[2 * ia + a, 2 * ja + b] - expected) <= 1e-12


def test_divdiv_reference_triangle_vs_quadrature_oracle():
    mesh = reference_triangle_mesh()
    dofs = build_taylor_hood_dofs(mesh)
    D = assemble_divdiv(dofs).toarray()
    for io, ia in enumerate(REF_PERM):
        for jo, ja in enumerate(REF_PERM):
            for a in range(2):
                for b in range(2):
                    expected = divdiv_entry_reference(io, a, jo, b)
                    assert abs(D[2 * ia + a, 2 * ja + b] - expected) <= 1e-12


def test_divdiv_translation_and_linear_field(params):
    mesh = build_structured_mesh(3)
    dofs = build_taylor_hood_dofs(mesh)
    D = assemble_divdiv(dofs)
    translation = np.zeros(dofs.num_displacement_dofs)
    translation[1::2] = 1.0
    assert abs(translation @ (D @ translation)) <= 1e-13 * abs(D).max()
    # u = (x, 0) has unit divergence, so the form equals the domain area.
    u = np.zeros(dofs.num_displacement_dofs)
    u[0::2] = dofs.node_coords[:, 0]
    assert abs(u @ (D @ u) - 1.0) <= 1e-12


def test_coupling_zero_alpha():
    mesh = build_structured_mesh(3)
    dofs = build_taylor_hood_dofs(mesh)
    B = assemble_coupling(dofs, alpha=0.0)
    assert B.nnz == 0 or abs(B).max() == 0.0


def test_coupling_partition_of_unity_row_sums(params):
    # With u = (x, y) the divergence is 2, so B u must equal
    # 2 * alpha * (mass matrix applied to the all-ones vector).
    mesh = build_structured_mesh(4)
    dofs = build_taylor_hood_dofs(mesh)
    B = assemble_coupling(dofs, params.alpha)
    Mp = assemble_pressure_mass(dofs)
    u = np.empty(dofs.num_displacement_dofs)
    u[0::2] = dofs.node_coords[:, 0]
    u[1::2] = dofs.node_coords[:, 1]
    expected = 2.0 * params.alpha * (Mp @ np.ones(dofs.num_pressure_dofs))
    assert np.abs(B @ u - expected).max() <= 1e-12


def test_coupling_adjoint_identity():
    mesh = build_structured_mesh(3)
    dofs = build_taylor_hood_dofs(mesh)
    B = assemble_coupling(dofs, alpha=1.0)
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = rng.standard_normal(dofs.num_displacement_dofs)
        p = rng.standard_normal(dofs.num_pressure_dofs)
        lhs = float((B @ u) @ p)
        rhs = float(u @ (B.T @ p))
        assert abs(lhs - rhs) <= 1e-14 * max(abs(lhs), abs(rhs), 1.0)


def test_pressure_mass_total_and_closed_form():
    mesh = build_structured_mesh(5)
    dofs = build_taylor_hood_dofs(mesh)
    Mp = assemble_pressure_mass(dofs)
    assert abs(Mp.sum() - 1.0) <= 1e-14

    ref = reference_triangle_mesh()
    ref_dofs = build_taylor_hood_dofs(ref)
    local = assemble_pressure_mass(ref_dofs).toarray()
    area = 0.5
    closed = area / 12.0 * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert np.abs(local - closed).max() <= 1e-15


def test_pressure_mass_spd_dense_oracle():
    mesh = build_structured_mesh(4)
    dofs = build_taylor_hood_dofs(mesh)
    Mp = assemble_pressure_mass(dofs).toarray()
    w = np.linalg.eigvalsh(Mp)
    assert w.min() > 0.0


def test_assembled_matrices_symmetric(params):
    mesh = build_structured_mesh(4)
    dofs = build_taylor_hood_dofs(mesh)
    for mat in (
        assemble_elasticity(dofs, params),
        assemble_pressure_mass(dofs),
        assemble_divdiv(dofs),
    ):
        asym = abs(mat - mat.T).max()
        assert asym <= 1e-14 * abs(mat).max()


def test_assembled_matrices_canonical(params):
    # The scatter relies on scipy's COO to CSR conversion to sum duplicate
    # entries and sort the column indices of every row.
    mesh = build_structured_mesh(3)
    dofs = build_taylor_hood_dofs(mesh)
    for mat in (
        assemble_elasticity(dofs, params),
        assemble_coupling(dofs, params.alpha),
        assemble_pressure_mass(dofs),
        assemble_divdiv(dofs),
    ):
        assert mat.format == "csr"
        assert mat.has_canonical_format
        for row in range(mat.shape[0]):
            cols = mat.indices[mat.indptr[row]:mat.indptr[row + 1]]
            assert np.all(np.diff(cols) > 0)


def test_physical_bulk_modulus_inequality(params):
    # 2*mu*||eps||^2 + lam*||div||^2 >= (2*mu/dim + lam)*||div||^2
    mesh = build_structured_mesh(4)
    dofs = build_taylor_hood_dofs(mesh)
    A = assemble_elasticity(dofs, params)
    D = assemble_divdiv(dofs)
    k_dr = params.drained_bulk_modulus
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = rng.standard_normal(dofs.num_displacement_dofs)
        energy = u @ (A @ u)
        div_form = u @ (D @ u)
        assert energy >= k_dr * div_form * (1.0 - 1e-12)


def test_interior_stencil_translation_invariance(params):
    # Interior-vertex diagonal entries are one constant per mesh and the
    # constant is resolution independent (2D stiffness is scale invariant).
    diag_values = []
    for n in (4, 8):
        mesh = build_structured_mesh(n)
        dofs = build_taylor_hood_dofs(mesh)
        A = assemble_elasticity(dofs, params)
        diag = A.diagonal()
        x, y = dofs.node_coords[:, 0], dofs.node_coords[:, 1]
        interior_vertex = (
            (np.arange(dofs.num_nodes) < mesh.num_vertices)
            & (x > 0.0) & (x < 1.0) & (y > 0.0) & (y < 1.0)
        )
        vals = diag[2 * np.flatnonzero(interior_vertex)]
        assert np.abs(vals - vals[0]).max() <= 1e-13 * abs(vals[0])
        diag_values.append(vals[0])
    assert abs(diag_values[0] - diag_values[1]) <= 1e-13 * abs(diag_values[0])


def test_degenerate_triangle_rejected(params):
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    triangles = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [0, 2], [1, 2]])
    mesh = Mesh(vertices=vertices, triangles=triangles, edges=edges)
    dofs = build_taylor_hood_dofs(mesh)
    with pytest.raises(ValueError):
        assemble_elasticity(dofs, params)


def test_boundary_reduction_dimensions(params):
    mesh = build_structured_mesh(2)
    dofs = build_taylor_hood_dofs(mesh)
    system = build_system(dofs, params)
    assert system.n_p == 1
    assert system.B.shape == (system.n_p, system.n_u)


def test_reduced_elasticity_spd_cholesky_oracle(params):
    mesh = build_structured_mesh(4)
    dofs = build_taylor_hood_dofs(mesh)
    system = build_system(dofs, params)
    np.linalg.cholesky(system.A.toarray())  # raises if not SPD


def test_reduction_matches_full_solve_with_identity_rows(params):
    # For zero boundary data, eliminating rows/columns and replacing them
    # with identity rows give the same free-dof solution.
    mesh = build_structured_mesh(3)
    dofs = build_taylor_hood_dofs(mesh)
    A_full = assemble_elasticity(dofs, params).toarray()
    body, _ = manufactured_sources()
    f_full = bf.assemble_momentum_load(dofs, body, t=1.0)
    free = dofs.free_u
    fixed = np.setdiff1d(np.arange(dofs.num_displacement_dofs), free)
    A_mod = A_full.copy()
    A_mod[fixed, :] = 0.0
    A_mod[:, fixed] = 0.0
    A_mod[fixed, fixed] = 1.0
    rhs = f_full.copy()
    rhs[fixed] = 0.0
    full_solution = np.linalg.solve(A_mod, rhs)
    reduced = np.linalg.solve(A_full[np.ix_(free, free)], f_full[free])
    assert np.abs(full_solution[free] - reduced).max() <= 1e-12 * np.abs(reduced).max()


def test_apply_boundary_conditions_rejects_single_cell(params):
    mesh = build_structured_mesh(1)
    dofs = build_taylor_hood_dofs(mesh)
    with pytest.raises(ValueError):
        build_system(dofs, params)


def test_flow_rhs_zero_case(params):
    # A source-free problem from a zero state has a zero flow load.
    problem = bf.build_problem(3, params, sources=None)
    system = problem.system
    _, g = bf.step_loads(problem, 0.5, 0.1, np.zeros(system.n_u), np.zeros(system.n_p))
    assert np.all(g == 0.0)


def test_flow_rhs_unit_source_vs_quadrature_oracle(params):
    n = 4
    problem = bf.build_problem(n, params, sources=(None, lambda x, y, t: np.ones_like(x)))
    mesh, dofs, system = problem.dofs.mesh, problem.dofs, problem.system
    _, g = bf.step_loads(problem, 1.0, 0.1, np.zeros(system.n_u), np.zeros(system.n_p))
    # Independent oracle: tau * integral of each interior hat function.
    for row, vertex in enumerate(dofs.free_p):
        total = 0.0
        for tri in mesh.triangles:
            if vertex not in tri:
                continue
            local = int(np.where(tri == vertex)[0][0])
            v0, v1, v2 = mesh.vertices[tri]
            total += integrate_triangle(
                lambda x, y, i=local, t=tri: _hat_on_triangle(x, y, i, mesh.vertices[t]),
                v0, v1, v2,
            )
        assert abs(g[row] - 0.1 * total) <= 1e-13


def _reference_coords(x, y, verts):
    # reference coordinates (barycentric l1, l2) of (x, y) on the triangle
    v0, v1, v2 = verts
    det = (v1[0] - v0[0]) * (v2[1] - v0[1]) - (v2[0] - v0[0]) * (v1[1] - v0[1])
    l1 = ((x - v0[0]) * (v2[1] - v0[1]) - (v2[0] - v0[0]) * (y - v0[1])) / det
    l2 = ((v1[0] - v0[0]) * (y - v0[1]) - (x - v0[0]) * (v1[1] - v0[1])) / det
    return l1, l2


def _hat_on_triangle(x, y, local, verts):
    return p1_value(local, *_reference_coords(x, y, verts))


def test_flow_rhs_constant_divergence(params):
    # u = (x, 0) interpolates exactly, div u = 1: the coupling term of the
    # flow load equals alpha times the mass-matrix row sums on the interior
    # dofs. u is nonzero on Dirichlet dofs, so the full B applies it.
    mesh = build_structured_mesh(4)
    dofs = build_taylor_hood_dofs(mesh)
    u = np.zeros(dofs.num_displacement_dofs)
    u[0::2] = dofs.node_coords[:, 0]
    g = (assemble_coupling(dofs, params.alpha) @ u)[dofs.free_p]
    Mp = assemble_pressure_mass(dofs)
    expected = params.alpha * (Mp @ np.ones(dofs.num_pressure_dofs))[dofs.free_p]
    assert np.abs(g - expected).max() <= 1e-12 * np.abs(expected).max()


def test_flow_rhs_rejects_bad_lengths(params):
    problem = bf.build_problem(2, params, sources=None)
    with pytest.raises(ValueError):
        bf.step_loads(problem, 0.0, 0.1, np.zeros(3), np.zeros(problem.system.n_p))


def test_flow_rhs_matches_reduced_fast_path(params):
    # The reduced-space load used by the time march must agree with the
    # full-vector load restricted to the interior pressure dofs.
    problem = bf.build_problem(3, params)
    mesh, dofs, system = problem.dofs.mesh, problem.dofs, problem.system
    rng = np.random.default_rng(5)
    u_red = rng.standard_normal(system.n_u)
    u_full = np.zeros(dofs.num_displacement_dofs)
    u_full[dofs.free_u] = u_red
    t, tau = 0.3, 0.1
    _, g = bf.step_loads(problem, t, tau, u_red, np.zeros(system.n_p))
    B_full = assemble_coupling(dofs, params.alpha)
    moment = bf.assemble_source_moment(dofs, problem.fluid_source, t)
    reference = (B_full @ u_full + tau * moment)[dofs.free_p]
    assert np.abs(g - reference).max() <= 1e-13 * max(np.abs(reference).max(), 1.0)


def test_momentum_load_vs_per_triangle_quadrature_oracle():
    # n=3: h = 1/3 is not exact in binary. The two components differ, so a
    # swapped x/y interleave fails. Quadratic forces keep every integrand
    # within the degree-4 rule.
    mesh = build_structured_mesh(3)
    dofs = build_taylor_hood_dofs(mesh)

    def force(x, y, t):
        return t * (1.0 + x * y - y * y), t * (2.0 - x + 3.0 * x * x)

    vec = bf.assemble_momentum_load(dofs, force, 0.7)
    oracle = np.zeros(dofs.num_displacement_dofs)
    for tri, nodes in zip(mesh.triangles, dofs.tri_nodes):
        verts = mesh.vertices[tri]
        for local, node in enumerate(nodes):
            for comp in range(2):
                oracle[2 * node + comp] += integrate_triangle(
                    lambda x, y, i=local, c=comp: force(x, y, 0.7)[c]
                    * p2_value(i, *_reference_coords(x, y, verts)),
                    *verts,
                )
    scale = np.abs(oracle).max()
    assert np.abs(vec[0::2] - oracle[0::2]).max() <= 1e-13 * scale
    assert np.abs(vec[1::2] - oracle[1::2]).max() <= 1e-13 * scale
    assert np.abs(oracle[0::2] - oracle[1::2]).max() > 0.1 * scale


def test_p2_physical_gradients_vs_per_element_product():
    mesh = build_structured_mesh(3)
    pg, det = _p2_physical_gradients(mesh)
    ref = p2_gradients(TRIANGLE_QUAD_POINTS)
    expected = np.empty_like(pg)
    for e, tri in enumerate(mesh.triangles):
        v0, v1, v2 = mesh.vertices[tri]
        inv_jt = np.linalg.inv(np.column_stack([v1 - v0, v2 - v0])).T
        for q in range(ref.shape[0]):
            for i in range(6):
                expected[e, q, i] = inv_jt @ ref[q, i]
    assert np.abs(pg - expected).max() <= 1e-15 * np.abs(expected).max()
    assert np.allclose(det, 1.0 / 9.0, rtol=1e-15, atol=0.0)


def test_manufactured_sources_profile():
    body, fluid = manufactured_sources()
    y = np.linspace(0.0, 1.0, 7)
    assert np.all(fluid(np.zeros_like(y), y, 2.0) == 0.0)
    # closed-form values at the center
    assert fluid(0.5, 0.5, 1.0) == pytest.approx(0.0625, rel=1e-15)
    fx, fy = body(0.5, 0.5, 1.0)
    assert fx == pytest.approx(1.0e9 * 0.0625, rel=1e-15)
    assert fy == pytest.approx(1.0e9 * 0.0625, rel=1e-15)
    assert fluid(0.3, 0.7, 0.0) == 0.0


@pytest.mark.parametrize("block, solve", [("A", "a_solve"), ("Mp", "m_solve")])
def test_copy_with_new_matrix_solves_with_its_own_factor(problem4, block, solve):
    # A copy with a different A (or Mp) is a new system: it must not solve
    # with the factor of the prepared original.
    system = problem4.system.prepare()
    scaled = dataclasses.replace(system, **{block: 2.0 * getattr(system, block)})
    b = np.random.default_rng(4).standard_normal(getattr(system, block).shape[0])
    for copy in (scaled, system):
        x = getattr(copy, solve)(b)
        assert np.linalg.norm(getattr(copy, block) @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_system_holds_only_what_the_solves_read():
    # The three operators of the pencil and the material; no loads, no
    # Ddiv, no free-dof sets and no cache field.
    names = {f.name for f in dataclasses.fields(BiotSystem)}
    assert names == {"A", "B", "Mp", "params"}


def test_reduced_divdiv_matches_full_operator():
    mesh = build_structured_mesh(4)
    dofs = build_taylor_hood_dofs(mesh)
    D = assemble_divdiv(dofs).toarray()
    free = dofs.free_u
    assert np.array_equal(reduced_divdiv(dofs).toarray(), D[np.ix_(free, free)])
