"""Schouten-tensor spectra of exactly computable conformal metrics.

For a radial conformal factor v = v(r) over a Euclidean background,
g_v = v^-2 * delta, the eigenvalues of -g_v^{-1} A_{g_v} split into one
radial value and n-1 equal tangential values.  Writing

    lam = (v_r / (r v)) * (1 - r v_r / (2 v)),   chi = v_rr / v - v_r / (r v),

the tangential eigenvalue is -lam*v^2 and the radial one is -(lam+chi)*v^2,
which simplify to the polynomial forms used below:

    tangential = v_r^2 / 2 - v * v_r / r,
    radial     = v_r^2 / 2 - v * v_rr.

At r = 0 (even profiles on a ball) v_r / r -> v_rr and both eigenvalues
coincide at -v * v_rr.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CriticalPointError, InvalidArgumentError, InvalidProfileError


def _radial_stencil(u, r):
    """Second-order discrete (u_r, u_rr) on the uniform grid r.

    Central differences at interior nodes, one-sided second-order stencils
    at the ends; a grid starting at r = 0 is a ball centre and uses the even
    extension u(-h) = u(h).  The interior rows are written through out=, in
    the operation order of (u[2:] - u[:-2]) / (2h) and
    (u[2:] - 2 u[1:-1] + u[:-2]) / h^2.
    """
    h = r[1] - r[0]
    du = np.empty_like(u)
    d2u = np.empty_like(u)
    slope, curv = du[1:-1], d2u[1:-1]
    np.subtract(u[2:], u[:-2], out=slope)
    slope /= 2 * h
    np.multiply(u[1:-1], 2, out=curv)
    np.subtract(u[2:], curv, out=curv)
    curv += u[:-2]
    curv /= h**2
    if r[0] == 0.0:
        du[0] = 0.0
        d2u[0] = 2.0 * (u[1] - u[0]) / h**2
    else:
        du[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * h)
        d2u[0] = (2 * u[0] - 5 * u[1] + 4 * u[2] - u[3]) / h**2
    du[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * h)
    d2u[-1] = (2 * u[-1] - 5 * u[-2] + 4 * u[-3] - u[-4]) / h**2
    return du, d2u


def _eigenpair(v, v_r, v_rr, r):
    """(radial, tangential) eigenvalues in polynomial form, unchecked, as
    one array of shape (2,) + the inputs' broadcast shape.

    r = 0 entries use the even-profile centre rule v_r / r -> v_rr.  Zero v
    is allowed: the polynomial forms extend continuously to it.  The buffer
    is filled in the operation order of half_slope_sq - v * v_rr and
    half_slope_sq - v * slope_over_r, half_slope_sq = 0.5 * v_r**2.
    """
    shape = np.broadcast_shapes(np.shape(v), np.shape(v_r), np.shape(v_rr),
                                np.shape(r))
    pair = np.empty((2,) + shape)
    radial, tangential = pair[0, ...], pair[1, ...]
    half_slope_sq = np.square(v_r)
    half_slope_sq *= 0.5
    np.multiply(v, v_rr, out=radial)
    np.subtract(half_slope_sq, radial, out=radial)
    off_centre = np.greater(r, 0)
    np.divide(v_r, r, out=tangential, where=off_centre)
    np.copyto(tangential, v_rr, where=~off_centre)
    tangential *= v
    np.subtract(half_slope_sq, tangential, out=tangential)
    return pair


@dataclass(frozen=True)
class RadialProfile:
    """A conformal factor sampled on a uniform radial grid.

    The grid spans [0, b] for a ball (first node at r = 0, even profile) or
    [a, b] for an annulus, with finite radii.  Values must be finite and
    positive on the open domain, which holds a ball's centre; boundary
    values may vanish (zero Dirichlet data).  NaN is refused everywhere.
    """

    r: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        u = np.asarray(self.u, dtype=float)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "u", u)
        if r.ndim != 1 or r.shape != u.shape or r.size < 4:
            raise InvalidArgumentError("profile needs matching 1-d grids with >= 4 nodes")
        # Ends and order first, by comparisons, which neither overflow nor
        # warn: increasing radii between finite ends have finite steps.
        if not (r[0] >= 0 and r[-1] < np.inf):
            raise InvalidArgumentError("grid radii must be finite and nonnegative")
        if not (r[1:] > r[:-1]).all():
            raise InvalidArgumentError("grid radii must be strictly increasing")
        dr = np.diff(r)
        h = dr[0]
        np.subtract(dr, h, out=dr)
        if not (np.abs(dr, out=dr) <= 1e-13 * max(1.0, r[-1]) + 1e-8 * h).all():
            raise InvalidArgumentError("grid spacing must be uniform")
        ends = u[-1] >= 0 and (u[0] > 0 if r[0] == 0.0 else u[0] >= 0)
        if not (ends and (u[1:-1] > 0).all() and (u < np.inf).all()):
            raise InvalidProfileError(
                "conformal factor must be finite and positive on the open domain")

    @property
    def h(self) -> float:
        return float(self.r[1] - self.r[0])


def radial_schouten_spectrum(v, v_r, v_rr, r) -> np.ndarray:
    """Eigenvalues of -g_v^{-1} A_{g_v} for g_v = v^-2*delta, as the pairs
    (radial, tangential) along a new last axis, like spectrum_field.

    Inputs broadcast; r = 0 entries are evaluated with the even-profile center
    rule (v_r / r -> v_rr).  r = inf gives the half-space factor v(x_n), whose
    pair is the limit (v'^2/2 - v v'', v'^2/2) with v'' along the normal.
    """
    v = np.asarray(v, dtype=float)
    v_r = np.asarray(v_r, dtype=float)
    v_rr = np.asarray(v_rr, dtype=float)
    r = np.asarray(r, dtype=float)
    if not np.all(v > 0):
        raise InvalidProfileError("conformal factor must be positive")
    return np.stack(_eigenpair(v, v_r, v_rr, r), axis=-1)


def spectrum_field(profile: RadialProfile) -> np.ndarray:
    """Discrete Schouten spectra of a radial profile: per-node pairs
    (radial, tangential), shape (nodes, 2), each standing for the spectrum
    (radial, tangential, ..., tangential) in any dimension n.

    Derivatives come from the profile's second-order stencils, so for profiles
    with smooth closed forms the eigenvalues are O(h^2)-accurate.
    """
    du, d2u = _radial_stencil(profile.u, profile.r)
    return np.stack(_eigenpair(profile.u, du, d2u, profile.r), axis=-1)


def ricci_spectrum_from_schouten(schouten: np.ndarray) -> np.ndarray:
    """lam(-g^{-1} Ric) from a full spectrum lam(-g^{-1} A) of n entries:
    (n-2)*lam + sigma_1(lam)*e.

    Inverts the trace adjustment A = (Ric - R g / (2(n-1))) / (n-2) at the
    eigenvalue level.
    """
    lam = np.asarray(schouten, dtype=float)
    return (lam.shape[-1] - 2) * lam + lam.sum(axis=-1, keepdims=True)


def rescaled_metric_spectrum_bound(N, v, dv_sq, C0, C2, C3):
    """Certified lower bound for the spectrum of g^N = e^{2 e^{Nv}} g.

    The guaranteed bound is lam(-g^{-1} A_{g^N}) >= scale * (chi1, chi2, ..., chi2)
    with

        chi2  = 1 - t,    chi1 = -1 + 2 e^{-Nv} - t,    t = t2 + t3,
        t2    = 2*C0*C2 / (N^2 e^{2Nv} |dv|^2),   t3 = 2*C0*C3 / (N e^{Nv} |dv|^2),
        scale = N^2 e^{2Nv} |dv|^2 / (2*C0).

    Returns per node (t, e^{-Nv}, log(scale), q), where

        q = 2 t e^{Nv} = 4*C0*C3 / (N |dv|^2) + 4*C0*C2 e^{-Nv} / (N^2 |dv|^2)

    is the correction relative to e^{-Nv}, rounded up (t follows it, so the
    bound stays a lower bound).  The slack chi1 - (-chi2 + e^{-Nv}) equals
    e^{-Nv} (1 - q), so the bound is a valid certificate exactly where q < 1,
    which also gives chi2 > 1/2.  Nothing here forms e^{Nv}: t and e^{-Nv}
    underflow to 0 at large N*v, while q and log(scale) stay accurate.

    |dv|^2 is measured in the flat reference metric; the C0 in the scale
    converts it to a lower bound for the metric norm.
    """
    v = np.asarray(v, dtype=float)
    dv_sq = np.asarray(dv_sq, dtype=float)
    if np.any(dv_sq <= 0):
        raise CriticalPointError("auxiliary function has a critical point (|dv|^2 <= 0)")
    if not 0 < N < np.inf:
        raise InvalidArgumentError(f"N must be positive and finite, got {N}")
    if np.any(v < 1):
        raise InvalidArgumentError("auxiliary function must satisfy v >= 1")
    e_neg = np.exp(-N * v)
    # Rounded up by 2^-48, more than exp and four roundings lose when N*v is
    # exact (N a power of two, as on the scan), so q < 1 holds exactly too.
    q = 4.0 * C0 * (C3 + C2 * e_neg / N) / (N * dv_sq) * (1.0 + 2.0**-48)
    log_scale = 2.0 * np.log(N) + 2.0 * N * v + np.log(dv_sq) - np.log(2.0 * C0)
    return 0.5 * q * e_neg, e_neg, log_scale, q


def hyperbolic_ball_profile(grid: int) -> RadialProfile:
    """u(r) = (1 - r^2) / 2 on the unit ball: the Poincare-ball conformal
    factor, with all Schouten eigenvalues equal to 1/2."""
    r = np.linspace(0.0, 1.0, grid + 1)
    return RadialProfile(r=r, u=(1.0 - r**2) / 2.0)


def barrier_profile(R: float, delta: float, m: float, grid: int) -> RadialProfile:
    """v(r) = (r^2 - R^2)/R^2 on the annulus [R*sqrt(1+delta), R*sqrt(1+m)].

    Over a Euclidean background every eigenvalue equals 2/R^2 exactly, so the
    profile is a supersolution whenever 2/R^2 >= 1/2.
    """
    if not 0 < delta < m:
        raise InvalidArgumentError(f"need 0 < delta < m, got delta={delta}, m={m}")
    r = np.linspace(R * np.sqrt(1.0 + delta), R * np.sqrt(1.0 + m), grid + 1)
    return RadialProfile(r=r, u=(r**2 - R**2) / R**2)
