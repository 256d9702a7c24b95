"""Reference-triangle finite element basis functions and quadrature.

Displacements use quadratic (P2) Lagrange elements with nodes at the three
vertices and the three edge midpoints; pressure uses linear (P1) elements.
Everything is evaluated on the reference triangle with vertices (0,0), (1,0),
(0,1); physical quantities follow from the affine map of each mesh cell.
"""

from __future__ import annotations

import numpy as np

# Symmetric 6-point rule on the reference triangle, exact for polynomials of
# total degree <= 4 (covers every product of P2/P1 basis functions and their
# gradients on affine cells). Weights sum to the reference area 1/2.
_QA1, _QW1 = 0.445948490915965, 0.223381589678011
_QA2, _QW2 = 0.091576213509771, 0.109951743655322

TRIANGLE_QUAD_POINTS = np.array(
    [
        [_QA1, _QA1],
        [1.0 - 2.0 * _QA1, _QA1],
        [_QA1, 1.0 - 2.0 * _QA1],
        [_QA2, _QA2],
        [1.0 - 2.0 * _QA2, _QA2],
        [_QA2, 1.0 - 2.0 * _QA2],
    ]
)
TRIANGLE_QUAD_WEIGHTS = 0.5 * np.array([_QW1, _QW1, _QW1, _QW2, _QW2, _QW2])


def p1_values(points: np.ndarray) -> np.ndarray:
    """Hat function values at reference points, shape (npts, 3)."""
    xi, eta = points[:, 0], points[:, 1]
    return np.column_stack([1.0 - xi - eta, xi, eta])


def p2_values(points: np.ndarray) -> np.ndarray:
    """Quadratic basis values at reference points, shape (npts, 6).

    Nodes 0-2 sit at the vertices; node 3 is the midpoint of edge (0,1),
    node 4 of edge (1,2), node 5 of edge (2,0).
    """
    xi, eta = points[:, 0], points[:, 1]
    l0 = 1.0 - xi - eta
    return np.column_stack(
        [
            l0 * (2.0 * l0 - 1.0),
            xi * (2.0 * xi - 1.0),
            eta * (2.0 * eta - 1.0),
            4.0 * l0 * xi,
            4.0 * xi * eta,
            4.0 * eta * l0,
        ]
    )


def p2_gradients(points: np.ndarray) -> np.ndarray:
    """Quadratic basis gradients at reference points, shape (npts, 6, 2)."""
    xi, eta = points[:, 0], points[:, 1]
    l0 = 1.0 - xi - eta
    g = np.empty((len(points), 6, 2))
    g[:, 0, 0] = 1.0 - 4.0 * l0
    g[:, 0, 1] = 1.0 - 4.0 * l0
    g[:, 1, 0] = 4.0 * xi - 1.0
    g[:, 1, 1] = 0.0
    g[:, 2, 0] = 0.0
    g[:, 2, 1] = 4.0 * eta - 1.0
    g[:, 3, 0] = 4.0 * (l0 - xi)
    g[:, 3, 1] = -4.0 * xi
    g[:, 4, 0] = 4.0 * eta
    g[:, 4, 1] = 4.0 * xi
    g[:, 5, 0] = -4.0 * eta
    g[:, 5, 1] = 4.0 * (l0 - eta)
    return g
