"""Output checks that share no code with the solver's evaluation path.

Ball (radius 1, constant right-hand side psi = 1/2): the discrete problem has
the exact solution u = A - B r^2 with A = (delta + sqrt(delta^2 + 1)) / 2 and
B = 1 / (4A).  Both Schouten eigenvalues equal 2AB = 1/2 at every node, and
the second-order stencils reproduce a quadratic exactly, so the solver's
profile must match it to the size of its own stopping residual.

Annulus: the residual is recomputed here from the two eigenvalue polynomials
of the radial Schouten tensor,

    radial = u_r^2 / 2 - u u_rr,    tangential = u_r^2 / 2 - u u_r / r,

and from sigma_j of the two-valued spectrum (a, b, ..., b) after the trace
deformation, sigma_j(a, b^(n-1)) = C(n-1, j) b^j + C(n-1, j-1) a b^(j-1).
"""

from math import comb, sqrt

import numpy as np

EPS = float(np.finfo(float).eps)
PSI = 0.5

# Limits are the Newton tolerance the solve was asked for plus this many
# rounding units eps / h^2 of a second difference.  The residual recomputed
# here differs from the solver's by far less than one unit, and the ball
# profile error stays below the solver's residual (grids 1e3 and 1e5).  Two
# units still reject a uniform 1e-6 relative perturbation up to grid 1e4.
FLOOR_FACTOR = 2.0


def rounding_floor(h: float) -> float:
    """eps / h^2: the size of one rounding error in a second difference."""
    return EPS / (h * h)


def ball_solution(r: np.ndarray, delta: float) -> np.ndarray:
    """Exact discrete solution on the unit ball with u(1) = delta, psi = 1/2."""
    A = 0.5 * (delta + sqrt(delta * delta + 1.0))
    B = 1.0 / (4.0 * A)
    return A - B * r * r


def ball_error(r: np.ndarray, u: np.ndarray, delta: float) -> float:
    """Sup-norm distance from the closed-form ball solution."""
    return float(np.max(np.abs(u - ball_solution(r, delta))))


def annulus_residual(r: np.ndarray, u: np.ndarray, n: int, k: int,
                     tau: float, delta: float):
    """(sup residual, min normalized sigma_j margin) of an annulus profile.

    The residual covers the interior rows f^tau(lam) - 1/2 and the two
    Dirichlet rows u - delta.  The margin is min over interior nodes and
    j <= k of sigma_j(mu) / C(n, j); it must be positive for the profile to
    be admissible.
    """
    h = (r[-1] - r[0]) / (r.size - 1)
    um, uc, up = u[:-2], u[1:-1], u[2:]
    du = (up - um) / (2.0 * h)
    d2u = (up - 2.0 * uc + um) / (h * h)
    radial = 0.5 * du * du - uc * d2u
    tangential = 0.5 * du * du - uc * du / r[1:-1]

    trace = radial + (n - 1) * tangential
    a = tau * radial + (1.0 - tau) * trace
    b = tau * tangential + (1.0 - tau) * trace

    margin = np.inf
    for j in range(1, k + 1):
        sig = comb(n - 1, j) * b**j + comb(n - 1, j - 1) * a * b**(j - 1)
        margin = min(margin, float(np.min(sig / comb(n, j))))
    if margin <= 0.0:
        return np.inf, margin
    f = comb(n, k) ** (-1.0 / k) * sig ** (1.0 / k) / (tau + n * (1.0 - tau))
    res = max(float(np.max(np.abs(f - PSI))),
              abs(u[0] - delta), abs(u[-1] - delta))
    return res, margin


def check_profile(r, u, *, domain: str, n: int, k: int, tau: float,
                  delta: float, tol: float):
    """(ok, measured, limit) for a profile solved to Newton tolerance tol."""
    h = (r[-1] - r[0]) / (r.size - 1)
    limit = tol + FLOOR_FACTOR * rounding_floor(h)
    if domain == "ball":
        err = ball_error(r, u, delta)
        return bool(err <= limit), err, limit
    res, margin = annulus_residual(r, u, n, k, tau, delta)
    return bool(margin > 0.0 and res <= limit), res, limit
