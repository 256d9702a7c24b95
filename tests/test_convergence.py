"""End-to-end discretization checks on a manufactured solution.

u = t U and p = t P with

    U = 1e-3 (x(1-x) y^2 (1-y)^2 (1+x), x(1-x) y^2 (1-y)^2 (2-x)),
    P = 1e8 x(1-x) y(1-y)

meet every boundary condition the program imposes: u = 0 on the left,
right and bottom sides, a traction-free top (U, grad U and P vanish at
y = 1) and p = 0 on the whole boundary. The loads are
f = t (-div sigma(U) + alpha grad P) and s = alpha div U + inv_m P, derived
exactly from 2-D monomial coefficient arrays. Implicit Euler is exact for
solutions linear in t, so the error of the first step at t = tau is purely
spatial, and Taylor-Hood gives O(h^2) in the relative Mp norm of p and the
relative A norm of u against the interpolants.
"""

import dataclasses

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import biotfs as bf

TAU = 0.1
_BUBBLE = [0.0, 1.0, -1.0]  # x(1 - x)
_Y_PROFILE = P.polymul([0.0, 0.0, 1.0], [1.0, -2.0, 1.0])  # y^2 (1 - y)^2
U1 = 1e-3 * np.outer(P.polymul(_BUBBLE, [1.0, 1.0]), _Y_PROFILE)
U2 = 1e-3 * np.outer(P.polymul(_BUBBLE, [2.0, -1.0]), _Y_PROFILE)
PRESSURE = 1e8 * np.outer(_BUBBLE, _BUBBLE)


def _eval(c, x, y, dx=0, dy=0):
    """The (dx, dy) partial derivative of the polynomial c[i, j] x^i y^j."""
    return P.polyval2d(x, y, P.polyder(P.polyder(c, dx, axis=0), dy, axis=1))


def mms_sources(params):
    mu, lam, alpha = params.mu, params.lam, params.alpha

    def body_force(x, y, t):
        fx = -((2 * mu + lam) * _eval(U1, x, y, 2, 0) + mu * _eval(U1, x, y, 0, 2)
               + (lam + mu) * _eval(U2, x, y, 1, 1)) + alpha * _eval(PRESSURE, x, y, 1, 0)
        fy = -(mu * _eval(U2, x, y, 2, 0) + (2 * mu + lam) * _eval(U2, x, y, 0, 2)
               + (lam + mu) * _eval(U1, x, y, 1, 1)) + alpha * _eval(PRESSURE, x, y, 0, 1)
        return t * fx, t * fy

    def fluid_source(x, y, t):
        div_u = _eval(U1, x, y, 1, 0) + _eval(U2, x, y, 0, 1)
        return alpha * div_u + params.inv_m * _eval(PRESSURE, x, y)

    return body_force, fluid_source


def first_step(n, params):
    """The problem, its first-step loads, the exact discrete solution and
    the interpolants of the manufactured solution at t = tau."""
    prob = bf.build_problem(n, params, sources=mms_sources(params))
    system, dofs = prob.system, prob.dofs
    f, g = bf.step_loads(prob, TAU, TAU, np.zeros(system.n_u), np.zeros(system.n_p))
    u, p = bf.monolithic_solve(system, f, g)
    x, y = dofs.node_coords.T
    u_int = TAU * np.column_stack([_eval(U1, x, y), _eval(U2, x, y)]).ravel()[dofs.free_u]
    p_int = TAU * _eval(PRESSURE, *prob.mesh.vertices.T)[dofs.free_p]
    return system, (f, g), (u, p), (u_int, p_int)


def _rel(M, x, ref):
    return bf.m_norm(M, x - ref) / bf.m_norm(M, ref)


@pytest.mark.parametrize("inv_m", [0.0, 1e-11])
def test_first_step_converges_at_second_order(params, inv_m):
    # Measured rates at 8->16 and 16->32: p 1.93, 1.96 and u 2.54, 2.53 at
    # inv_m = 0; p 1.96, 1.98 and u 2.54, 2.53 at inv_m = 1e-11.
    material = dataclasses.replace(params, inv_m=inv_m)
    errors = []
    for n in (8, 16, 32):
        system, _, (u, p), (u_int, p_int) = first_step(n, material)
        errors.append((_rel(system.Mp, p, p_int), _rel(system.A, u, u_int)))
    rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(rates >= 1.8), f"observed (p, u) rates {rates.tolist()}"


def test_splitting_at_l_opt_lands_far_inside_the_discretization_error(params):
    # At eps_r = 1e-6 the splitting solve at the estimated l_opt lands
    # 3.4e-7 (p, Mp norm) and 1.8e-7 (u, A norm) from the exact discrete
    # solution, in 25 iterations: over 1000x below the discretization
    # error, which is what the default eps_r buys.
    system, loads, (u, p), (u_int, p_int) = first_step(16, params)
    est = bf.estimate_spectrum(system)
    config = bf.SolverConfig(L=est.l_opt, eps_r=1e-6)
    u_fs, p_fs, trace = bf.fixed_stress_solve(system, *loads, config)
    assert trace.converged
    gap_p, gap_u = _rel(system.Mp, p_fs, p), _rel(system.A, u_fs, u)
    assert gap_p <= 5e-7 and gap_u <= 3e-7
    assert gap_p <= 1e-3 * _rel(system.Mp, p, p_int)
    assert gap_u <= 1e-3 * _rel(system.A, u, u_int)
