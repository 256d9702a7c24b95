"""Independent oracles for the test suite.

Everything here is deliberately written without the package's element or
assembly code: basis functions as explicit monomials, integration through a
Duffy-transformed tensor Gauss rule, and dense block algebra straight from
numpy. Tests compare package output against these.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss


def duffy_rule(order=8):
    """Tensor Gauss rule on the reference triangle via the Duffy transform.

    Maps the unit square with x = u, y = v*(1-u); the Jacobian is (1-u).
    Exact for all polynomial integrands appearing in these tests.
    """
    nodes, weights = leggauss(order)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    pts = []
    wts = []
    for xu, wu in zip(nodes, weights):
        for yv, wv in zip(nodes, weights):
            pts.append((xu, yv * (1.0 - xu)))
            wts.append(wu * wv * (1.0 - xu))
    return np.array(pts), np.array(wts)


def integrate_reference(f, order=8):
    """Integral of f(x, y) over the reference triangle."""
    pts, wts = duffy_rule(order)
    return float(np.sum(wts * f(pts[:, 0], pts[:, 1])))


def integrate_triangle(f, v0, v1, v2, order=8):
    """Integral of f(x, y) over the physical triangle (v0, v1, v2)."""
    v0, v1, v2 = map(np.asarray, (v0, v1, v2))
    jac = np.column_stack([v1 - v0, v2 - v0])
    det = abs(np.linalg.det(jac))
    pts, wts = duffy_rule(order)
    phys = v0[None, :] + pts @ jac.T
    return float(np.sum(wts * f(phys[:, 0], phys[:, 1])) * det)


# Quadratic basis on the reference triangle as explicit monomials; node
# order: three vertices, then midpoints of edges (0,1), (1,2), (2,0).
def p2_value(i, x, y):
    if i == 0:
        return 1.0 - 3.0 * x - 3.0 * y + 2.0 * x * x + 4.0 * x * y + 2.0 * y * y
    if i == 1:
        return x * (2.0 * x - 1.0)
    if i == 2:
        return y * (2.0 * y - 1.0)
    if i == 3:
        return 4.0 * x * (1.0 - x - y)
    if i == 4:
        return 4.0 * x * y
    if i == 5:
        return 4.0 * y * (1.0 - x - y)
    raise IndexError(i)


def p2_grad(i, x, y):
    if i == 0:
        g = -3.0 + 4.0 * x + 4.0 * y
        return g, g
    if i == 1:
        return 4.0 * x - 1.0, np.zeros_like(np.asarray(y, dtype=float))
    if i == 2:
        return np.zeros_like(np.asarray(x, dtype=float)), 4.0 * y - 1.0
    if i == 3:
        return 4.0 - 8.0 * x - 4.0 * y, -4.0 * x
    if i == 4:
        return 4.0 * y, 4.0 * x
    if i == 5:
        return -4.0 * y, 4.0 - 4.0 * x - 8.0 * y
    raise IndexError(i)


def p1_value(i, x, y):
    if i == 0:
        return 1.0 - x - y
    if i == 1:
        return np.asarray(x, dtype=float) + 0.0
    if i == 2:
        return np.asarray(y, dtype=float) + 0.0
    raise IndexError(i)


def elasticity_entry_reference(i, a, j, b, mu, lam, order=8):
    """Entry of the vector-P2 elastic bilinear form on the reference
    triangle for basis fields N_i e_a and N_j e_b."""

    def integrand(x, y):
        gi = p2_grad(i, x, y)
        gj = p2_grad(j, x, y)
        grad_dot = gi[0] * gj[0] + gi[1] * gj[1]
        val = mu * (gi[b] * gj[a])
        if a == b:
            val = val + mu * grad_dot
        return val + lam * gi[a] * gj[b]

    return integrate_reference(integrand, order)


def divdiv_entry_reference(i, a, j, b, order=8):
    def integrand(x, y):
        return p2_grad(i, x, y)[a] * p2_grad(j, x, y)[b]

    return integrate_reference(integrand, order)


def dense_blocks(system):
    """Dense copies of the reduced operators."""
    return (
        system.A.toarray(),
        system.B.toarray(),
        system.Mp.toarray(),
    )


def dense_block_solve(system, f, g):
    """Monolithic solve of the full 2x2 block system with dense numpy."""
    a, b, mp = dense_blocks(system)
    inv_m = system.params.inv_m
    n_u, n_p = a.shape[0], mp.shape[0]
    block = np.zeros((n_u + n_p, n_u + n_p))
    block[:n_u, :n_u] = a
    block[:n_u, n_u:] = -b.T
    block[n_u:, :n_u] = b
    block[n_u:, n_u:] = inv_m * mp
    rhs = np.concatenate([f, g])
    sol = np.linalg.solve(block, rhs)
    return sol[:n_u], sol[n_u:], block, rhs


def dense_fixed_stress_step(system, f, g, u_prev, p_prev, L):
    """Literal dense-algebra version of one splitting iteration."""
    a, b, mp = dense_blocks(system)
    inv_m = system.params.inv_m
    rhs = g - b @ u_prev - inv_m * (mp @ p_prev)
    dp = np.linalg.solve((L + inv_m) * mp, rhs)
    p_next = p_prev + dp
    u_next = np.linalg.solve(a, f + b.T @ p_next)
    return u_next, p_next
