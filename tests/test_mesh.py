import dataclasses

import numpy as np
import pytest

from biotfs.mesh import Mesh, build_structured_mesh, build_taylor_hood_dofs, mesh_to_text


def num_edges(mesh):
    """Edge count read off the dof map: one midpoint node per edge."""
    return build_taylor_hood_dofs(mesh).num_nodes - mesh.num_vertices


def test_mesh_stores_only_vertices_and_triangles():
    # One form per input: no edge table that could disagree with the
    # triangles it is derived from.
    assert {f.name for f in dataclasses.fields(Mesh)} == {"vertices", "triangles"}
    # A hand-built mesh gets one midpoint per edge, in lexicographic order:
    # (0,1) -> 3, (0,2) -> 4, (1,2) -> 5.
    mesh = Mesh(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), triangles=np.array([[0, 1, 2]]))
    assert build_taylor_hood_dofs(mesh).tri_nodes.tolist() == [[0, 1, 2, 3, 5, 4]]


def test_smallest_mesh_counts():
    m = build_structured_mesh(1)
    assert m.num_triangles == 2
    assert m.num_vertices == 4
    assert num_edges(m) == 5


def test_n2_counts_euler_formula():
    m = build_structured_mesh(2)
    assert m.num_triangles == 8
    assert m.num_vertices == 9
    assert num_edges(m) == 16
    # Euler: V - E + F = 2 with the outer face included.
    assert m.num_vertices - num_edges(m) + (m.num_triangles + 1) == 2


def test_counting_formulas_n16():
    # Independent combinatorial enumeration: n*(n+1) horizontal edges,
    # n*(n+1) vertical, n*n diagonals.
    n = 16
    m = build_structured_mesh(n)
    assert m.num_triangles == 2 * n * n == 512
    assert m.num_vertices == (n + 1) ** 2 == 289
    assert num_edges(m) == 2 * n * (n + 1) + n * n


def test_rejects_zero_subdivisions():
    with pytest.raises(ValueError):
        build_structured_mesh(0)


def test_positive_areas_and_total():
    m = build_structured_mesh(7)
    areas = 0.5 * m.geometry[2]
    assert np.all(areas > 0)
    assert abs(areas.sum() - 1.0) <= 1e-14


def test_vertices_inside_unit_square_lexicographic():
    m = build_structured_mesh(5)
    assert m.vertices.min() >= 0.0 and m.vertices.max() <= 1.0
    order = np.lexsort((m.vertices[:, 0], m.vertices[:, 1]))
    assert np.array_equal(order, np.arange(m.num_vertices))


def _edge_pairs(d):
    """Per midpoint node nv + k, the sorted vertex pair of the triangle edges
    that tri_nodes puts on it, as a dict k -> set of pairs."""
    m = d.mesh
    pairs = {}
    for tri, nodes in zip(m.triangles, d.tri_nodes):
        for local, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            pairs.setdefault(nodes[3 + local] - m.num_vertices, set()).add(key)
    return pairs


def test_edge_triangle_incidence():
    m = build_structured_mesh(4)
    d = build_taylor_hood_dofs(m)
    counts = {}
    for tri in m.triangles:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            counts[key] = counts.get(key, 0) + 1
    # Each midpoint node carries exactly one edge, every edge has one, and
    # the node sits at that edge's midpoint.
    pairs = _edge_pairs(d)
    assert sorted(pairs) == list(range(num_edges(m)))
    assert all(len(p) == 1 for p in pairs.values())
    assert {p for (p,) in pairs.values()} == set(counts)
    for k, ((a, b),) in pairs.items():
        mid = d.node_coords[m.num_vertices + k]
        assert np.array_equal(mid, 0.5 * (m.vertices[a] + m.vertices[b]))
    for (a, b), c in counts.items():
        mid = 0.5 * (m.vertices[a] + m.vertices[b])
        on_boundary = mid[0] in (0.0, 1.0) or mid[1] in (0.0, 1.0)
        assert c == (1 if on_boundary else 2)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
def test_edges_lexicographic_and_equal_to_row_unique(n):
    # The midpoint nodes follow the edges in strictly increasing
    # lexicographic order of their sorted vertex pairs, the row-unique of
    # the triangles' edges: A's minimum degree fill depends on this order,
    # not only on the set.
    m = build_structured_mesh(n)
    d = build_taylor_hood_dofs(m)
    raw = np.vstack([m.triangles[:, [a, b]] for a, b in ((0, 1), (1, 2), (2, 0))])
    raw.sort(axis=1)
    edges = np.unique(raw, axis=0)
    pairs = _edge_pairs(d)
    assert all(len(p) == 1 for p in pairs.values())
    ordered = np.array([min(pairs[k]) for k in range(len(pairs))])
    assert np.array_equal(ordered, edges)
    first, second = ordered[:-1], ordered[1:]
    increasing = (first[:, 0] < second[:, 0]) | (
        (first[:, 0] == second[:, 0]) & (first[:, 1] < second[:, 1])
    )
    assert increasing.all()
    assert np.all(ordered[:, 0] < ordered[:, 1])
    midpoints = 0.5 * (m.vertices[edges[:, 0]] + m.vertices[edges[:, 1]])
    assert np.array_equal(d.node_coords[m.num_vertices:], midpoints)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
def test_edge_numbering_matches_dict_oracle(n):
    # Independent oracle for the numbering that A's fill depends on: number
    # each triangle's sorted vertex pairs through a dict, in sorted order.
    m = build_structured_mesh(n)
    d = build_taylor_hood_dofs(m)
    nv = m.num_vertices
    tri = m.triangles.tolist()
    seen = {}
    for t in tri:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            seen[tuple(sorted((t[a], t[b])))] = None
    number = {pair: k for k, pair in enumerate(sorted(seen))}
    expected = np.array(
        [[number[tuple(sorted((t[a], t[b])))] for a, b in ((0, 1), (1, 2), (2, 0))] for t in tri]
    )
    assert np.array_equal(d.tri_nodes[:, 3:] - nv, expected)
    assert np.array_equal(d.tri_nodes[:, :3], m.triangles)
    x = m.vertices
    midpoints = np.array([[0.5 * (x[a, i] + x[b, i]) for i in (0, 1)] for a, b in sorted(seen)])
    assert np.array_equal(d.node_coords[nv:], midpoints)
    assert np.array_equal(d.node_coords[:nv], x)


def test_bit_determinism():
    m1 = build_structured_mesh(6)
    m2 = build_structured_mesh(6)
    assert np.array_equal(m1.vertices, m2.vertices)
    assert np.array_equal(m1.triangles, m2.triangles)
    d1 = build_taylor_hood_dofs(m1)
    d2 = build_taylor_hood_dofs(m2)
    assert np.array_equal(d1.node_coords, d2.node_coords)
    assert np.array_equal(d1.tri_nodes, d2.tri_nodes)
    assert np.array_equal(d1.free_u, d2.free_u)
    assert np.array_equal(d1.free_p, d2.free_p)


def test_mesh_text_dump_round_trip():
    m = build_structured_mesh(2)
    text = mesh_to_text(m)
    verts, tris = [], []
    for line in text.strip().splitlines():
        kind, *rest = line.split()
        if kind == "v":
            verts.append([float(rest[0]), float(rest[1])])
        else:
            tris.append([int(tok) for tok in rest])
    assert np.array_equal(np.array(verts), m.vertices)
    assert np.array_equal(np.array(tris), m.triangles)


def test_dof_counts_n1():
    d = build_taylor_hood_dofs(build_structured_mesh(1))
    assert d.num_displacement_dofs == 18
    assert d.num_pressure_dofs == 4


def test_dof_counts_n2_interior_pressure():
    d = build_taylor_hood_dofs(build_structured_mesh(2))
    assert d.num_displacement_dofs == 50
    assert d.num_pressure_dofs == 9
    assert d.free_p.size == 1
    # the single interior pressure dof is the center vertex
    assert np.allclose(d.mesh.vertices[d.free_p[0]], [0.5, 0.5])


def test_dof_count_formula():
    for n in (3, 5):
        m = build_structured_mesh(n)
        d = build_taylor_hood_dofs(m)
        assert d.num_displacement_dofs == 2 * (m.num_vertices + 2 * n * (n + 1) + n * n)
        assert d.num_pressure_dofs == (n + 1) ** 2


def test_top_edge_neumann_both_components():
    # brute-force scan of every node coordinate; both components of a node
    # are kept or eliminated together
    d = build_taylor_hood_dofs(build_structured_mesh(4))
    free = set(d.free_u.tolist())
    expected = []
    for k, (x, y) in enumerate(d.node_coords):
        kept = not (x in (0.0, 1.0) or y in (0.0, 1.0))
        if y == 1.0 and 0.0 < x < 1.0:
            kept = True
        assert (2 * k in free) == kept
        assert (2 * k + 1 in free) == kept
        expected += [2 * k, 2 * k + 1] if kept else []
    assert d.free_u.tolist() == expected


def test_top_corners_are_dirichlet():
    d = build_taylor_hood_dofs(build_structured_mesh(4))
    for corner in ([0.0, 1.0], [1.0, 1.0]):
        (idx,) = np.where((d.node_coords == corner).all(axis=1))
        assert 2 * idx[0] not in d.free_u
        assert 2 * idx[0] + 1 not in d.free_u


def test_tag_partition_exhaustive_disjoint():
    d = build_taylor_hood_dofs(build_structured_mesh(3))
    # free dofs are distinct, ascending and in range
    for free, size in ((d.free_u, d.num_displacement_dofs), (d.free_p, d.num_pressure_dofs)):
        assert np.all(np.diff(free) > 0)
        assert 0 <= free[0] and free[-1] < size
    # every boundary pressure dof is constrained, every interior one kept
    free_p = set(d.free_p.tolist())
    for v, (x, y) in enumerate(d.mesh.vertices):
        boundary = x in (0.0, 1.0) or y in (0.0, 1.0)
        assert (v in free_p) == (not boundary)


def test_free_dofs_are_read_only():
    d = build_taylor_hood_dofs(build_structured_mesh(3))
    for free in (d.free_u, d.free_p):
        with pytest.raises(ValueError):
            free[0] = 0
