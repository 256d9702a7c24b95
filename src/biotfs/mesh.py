"""Triangulations of the unit square and Taylor-Hood dof maps.

The structured mesh splits each of the n x n grid cells along its (+1,+1)
diagonal into two triangles. Its vertices are numbered lexicographically by
(y, x), which makes every construction bit-deterministic. Displacements
carry two components per P2 node, pressure one value per vertex.

The P2 numbering is a contract: the vertices first, then one midpoint per
edge, the edges in lexicographic order of their sorted vertex pairs. It fixes
the sparsity of every operator and so the minimum degree fill of A's factor,
4,225,024 nnz(L+U) at n=64 against 4.08M-7.22M over the 14 numberings tried
(ROADMAP); a change to it changes every factor, estimate and timing. scipy's
`L` and `U` drop the 7,936 of them that are exactly 0.0 and count 4,217,088.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """A conforming triangulation of the unit square, its triangles
    counterclockwise.

    Assembly takes any such triangulation; `build_structured_mesh` makes
    one of them, with n subdivisions per side. `build_taylor_hood_dofs`
    finds the boundary by exact coordinates, so boundary vertices must lie
    exactly on the square's sides.

    The triangles are the only connectivity stored: `build_taylor_hood_dofs`
    derives the edges from them, so no second table can disagree with them.
    It holds topology and geometry only: no load keeps arrays on it; the
    loads compute their quadrature points from `geometry` on each call.

    Attributes
    ----------
    vertices : ndarray, shape (nv, 2)
        Vertex coordinates; `build_structured_mesh` orders them
        lexicographically by (y, x).
    triangles : ndarray, shape (nt, 3)
        Vertex indices per triangle, counterclockwise.
    """

    vertices: np.ndarray
    triangles: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def geometry(self):
        """Per-triangle affine map x = origin + J x_ref, once per mesh: the
        origin (corner 0), J, det J and inv(J)'."""
        origin, v1, v2 = (self.vertices[self.triangles[:, k]] for k in range(3))
        jac = np.stack([v1 - origin, v2 - origin], axis=-1)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        if np.any(det <= 0.0):
            raise ValueError("mesh contains a degenerate or inverted triangle")
        inv_jt = np.empty_like(jac)
        inv_jt[:, 0, 0] = jac[:, 1, 1]
        inv_jt[:, 0, 1] = -jac[:, 1, 0]
        inv_jt[:, 1, 0] = -jac[:, 0, 1]
        inv_jt[:, 1, 1] = jac[:, 0, 0]
        inv_jt /= det[:, None, None]
        return _read_only(origin, jac, det, inv_jt)


def _read_only(*arrays):
    """Arrays built once per mesh are shared by every later reader: lock them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def build_structured_mesh(n: int) -> Mesh:
    """Build the diagonal-split structured triangulation of the unit square.

    Parameters
    ----------
    n : int
        Number of subdivisions per side, must be >= 1.

    Returns
    -------
    Mesh
        2*n^2 triangles on (n+1)^2 vertices with deterministic ordering.
    """
    if n < 1:
        raise ValueError(f"mesh subdivisions must be >= 1, got {n}")

    side = np.arange(n + 1, dtype=float) / n
    xg, yg = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    v00 = (iy * (n + 1) + ix).ravel()
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1

    # Cell split along the (+1,+1) diagonal: lower (v00,v10,v11) and upper
    # (v00,v11,v01), both counterclockwise.
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper
    return Mesh(vertices=vertices, triangles=triangles)


def mesh_to_text(mesh: Mesh) -> str:
    """Plain-text mesh dump: one 'v x y' line per vertex, one 't i j k' per
    triangle. Intended for debugging and external cross-checks."""
    lines = [f"v {float(x)!r} {float(y)!r}" for x, y in mesh.vertices]
    lines += [f"t {i} {j} {k}" for i, j, k in mesh.triangles]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DofMap:
    """Taylor-Hood (vector P2 / scalar P1) degrees of freedom, with the free
    dofs that Dirichlet elimination keeps.

    Displacement dofs are interleaved: node k owns dofs 2k (x component) and
    2k+1 (y component). P2 nodes list the mesh vertices first, then one
    midpoint node per mesh edge, the edges in lexicographic order of their
    sorted vertex pairs; A's fill depends on that order (module docstring).
    Pressure dofs coincide with the vertices.
    """

    mesh: Mesh
    node_coords: np.ndarray  # (num_nodes, 2) P2 node positions
    tri_nodes: np.ndarray  # (nt, 6) P2 node indices per triangle
    free_u: np.ndarray  # ascending, read-only: every reduction and load shares it
    free_p: np.ndarray  # ascending, read-only: the interior vertices

    @property
    def num_nodes(self) -> int:
        return self.node_coords.shape[0]

    @property
    def num_displacement_dofs(self) -> int:
        return 2 * self.num_nodes

    @property
    def num_pressure_dofs(self) -> int:
        return self.mesh.num_vertices


def build_taylor_hood_dofs(mesh: Mesh) -> DofMap:
    """Number the P2/P1 dofs of a mesh and select the free ones.

    Momentum gets homogeneous Dirichlet conditions on the left, right and
    bottom sides and a traction-free (Neumann) top side; the two top corners
    count as Dirichlet. Flow gets homogeneous Dirichlet conditions on the
    whole boundary. Both components of a node are free or fixed together.
    """
    nv = mesh.num_vertices
    tri = mesh.triangles
    # Local edges (0,1), (1,2), (2,0), one row each. A sorted pair a < b < nv
    # keys as a*nv + b, in the lexicographic order of (a, b), so the unique
    # keys list the edges in that order and the inverse numbers them.
    first, second = tri.T, tri[:, [1, 2, 0]].T
    keys = np.minimum(first, second) * nv + np.maximum(first, second)
    edge_keys, edge_of = np.unique(keys.ravel(), return_inverse=True)
    a, b = np.divmod(edge_keys, nv)
    node_coords = np.vstack([mesh.vertices, 0.5 * (mesh.vertices[a] + mesh.vertices[b])])
    tri_nodes = np.empty((mesh.num_triangles, 6), dtype=np.int64)
    tri_nodes[:, :3] = tri
    tri_nodes[:, 3:] = nv + edge_of.reshape(3, -1).T

    x, y = node_coords[:, 0], node_coords[:, 1]
    on_boundary = (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)
    open_top = (y == 1.0) & (x > 0.0) & (x < 1.0)
    free_nodes = np.flatnonzero(~on_boundary | open_top)
    free_u = (2 * free_nodes[:, None] + np.arange(2)).ravel()
    free_p = np.flatnonzero(~on_boundary[:nv])

    return DofMap(mesh, node_coords, tri_nodes, *_read_only(free_u, free_p))
