"""Structured triangulations of the unit square and Taylor-Hood dof maps.

The mesh splits each of the n x n grid cells along its (+1,+1) diagonal into
two triangles. Vertices are numbered lexicographically by (y, x), which makes
every construction bit-deterministic. Displacements carry two components per
P2 node (vertices plus edge midpoints), pressure one value per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .elements import TRIANGLE_QUAD_POINTS


@dataclass(frozen=True)
class Mesh:
    """Triangulation of the unit square with n subdivisions per side.

    Attributes
    ----------
    vertices : ndarray, shape (nv, 2)
        Vertex coordinates, ordered lexicographically by (y, x).
    triangles : ndarray, shape (nt, 3)
        Vertex indices per triangle, counterclockwise.
    edges : ndarray, shape (ne, 2)
        Unique edges as sorted index pairs, in lexicographic order.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def geometry(self):
        """Per-triangle affine map data, once per mesh: corners, Jacobian, det, inv(J)'."""
        v = self.vertices[self.triangles]
        jac = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        if np.any(det <= 0.0):
            raise ValueError("mesh contains a degenerate or inverted triangle")
        inv_jt = np.empty_like(jac)
        inv_jt[:, 0, 0] = jac[:, 1, 1]
        inv_jt[:, 0, 1] = -jac[:, 1, 0]
        inv_jt[:, 1, 0] = -jac[:, 0, 1]
        inv_jt[:, 1, 1] = jac[:, 0, 0]
        inv_jt /= det[:, None, None]
        return _read_only(v, jac, det, inv_jt)

    @cached_property
    def quad_coords(self):
        """Physical coordinates of all quadrature points, two (nt, nq) arrays,
        once per mesh; every step's loads evaluate their sources there."""
        v, jac, _, _ = self.geometry
        pts = v[:, None, 0, :] + np.einsum(
            "eab,qb->eqa", jac, TRIANGLE_QUAD_POINTS, optimize=True
        )
        return _read_only(pts[..., 0], pts[..., 1])


def _read_only(*arrays):
    """Per-mesh arrays are shared by every later load: lock them."""
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

    raw = np.vstack(
        [
            triangles[:, [0, 1]],
            triangles[:, [1, 2]],
            triangles[:, [2, 0]],
        ]
    )
    raw.sort(axis=1)
    # Sorted rows with 0 <= b < nv make a*nv + b a key in the lexicographic
    # order of (a, b), so the 1-D unique returns the edges in that order.
    nv = vertices.shape[0]
    keys = np.unique(raw[:, 0] * nv + raw[:, 1])
    edges = np.column_stack(np.divmod(keys, nv))

    return Mesh(vertices=vertices, triangles=triangles, edges=edges)


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
    midpoint node per mesh edge. Pressure dofs coincide with the vertices.
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
    """Number the P2/P1 dofs of a structured mesh and select the free ones.

    Momentum gets homogeneous Dirichlet conditions on the left, right and
    bottom sides and a traction-free (Neumann) top side; the two top corners
    count as Dirichlet. Flow gets homogeneous Dirichlet conditions on the
    whole boundary. Both components of a node are free or fixed together.
    """
    nv = mesh.num_vertices
    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    node_coords = np.vstack([mesh.vertices, midpoints])

    # Map each triangle edge to its midpoint node through the sorted unique
    # edge table (keys are strictly increasing, so searchsorted is exact).
    keys = mesh.edges[:, 0] * nv + mesh.edges[:, 1]
    tri = mesh.triangles
    tri_nodes = np.empty((mesh.num_triangles, 6), dtype=np.int64)
    tri_nodes[:, :3] = tri
    for local, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
        lo = np.minimum(tri[:, a], tri[:, b])
        hi = np.maximum(tri[:, a], tri[:, b])
        tri_nodes[:, 3 + local] = nv + np.searchsorted(keys, lo * nv + hi)

    x, y = node_coords[:, 0], node_coords[:, 1]
    on_boundary = (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)
    open_top = (y == 1.0) & (x > 0.0) & (x < 1.0)
    free_nodes = np.flatnonzero(~on_boundary | open_top)
    free_u = (2 * free_nodes[:, None] + np.arange(2)).ravel()
    free_p = np.flatnonzero(~on_boundary[:nv])

    return DofMap(mesh, node_coords, tri_nodes, *_read_only(free_u, free_p))
