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
    extension u(-h) = u(h).
    """
    h = r[1] - r[0]
    du = np.empty_like(u)
    d2u = np.empty_like(u)
    du[1:-1] = (u[2:] - u[:-2]) / (2 * h)
    d2u[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
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
    """(radial, tangential) eigenvalues in polynomial form, unchecked.

    r = 0 entries use the even-profile centre rule v_r / r -> v_rr.  Zero v
    is allowed: the polynomial forms extend continuously to it.
    """
    radial = 0.5 * v_r**2 - v * v_rr
    slope_over_r = np.where(r > 0, v_r / np.where(r > 0, r, 1.0), v_rr)
    tangential = 0.5 * v_r**2 - v * slope_over_r
    return radial, tangential


def _two_valued(a, b, n: int) -> np.ndarray:
    """Spectra (a, b, ..., b) of length n along a new last axis."""
    out = np.repeat(np.asarray(b, dtype=float)[..., None], n, axis=-1)
    out[..., 0] = a
    return out


@dataclass(frozen=True)
class RadialProfile:
    """A conformal factor sampled on a uniform radial grid.

    The grid spans [0, b] for a ball (first node at r = 0, even profile) or
    [a, b] for an annulus.  Values must be positive on the open domain;
    endpoint values may vanish (zero Dirichlet data).
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
        dr = np.diff(r)
        if np.any(dr <= 0):
            raise InvalidArgumentError("grid radii must be strictly increasing")
        h = dr[0]
        if not np.allclose(dr, h, rtol=1e-8, atol=1e-13 * max(1.0, abs(r[-1]))):
            raise InvalidArgumentError("grid spacing must be uniform")
        if np.any(u[1:-1] <= 0) or (r[0] > 0 and u[0] <= 0) or u[-1] < 0 or u[0] < 0:
            raise InvalidProfileError("conformal factor must be positive on the open domain")

    @property
    def h(self) -> float:
        return float(self.r[1] - self.r[0])

    @property
    def is_ball(self) -> bool:
        return self.r[0] == 0.0

    def derivatives(self):
        """Second-order discrete (u_r, u_rr); see _radial_stencil."""
        return _radial_stencil(self.u, self.r)


@dataclass(frozen=True)
class SchoutenSpectrumField:
    """Per-node radial/tangential eigenvalues of -g_u^{-1} A_{g_u}."""

    r: np.ndarray
    radial: np.ndarray
    tangential: np.ndarray
    n: int

    def spectra(self) -> np.ndarray:
        """Full eigenvalue vectors, shape (nodes, n): radial first, then n-1 tangential."""
        return _two_valued(self.radial, self.tangential, self.n)


def radial_schouten_spectrum(v, v_r, v_rr, r, n: int):
    """Eigenvalues (radial, tangential) of -g_v^{-1} A_{g_v} for g_v = v^-2*delta.

    Inputs broadcast; r = 0 entries are evaluated with the even-profile center
    rule (v_r / r -> v_rr).
    """
    v = np.asarray(v, dtype=float)
    v_r = np.asarray(v_r, dtype=float)
    v_rr = np.asarray(v_rr, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(v <= 0):
        raise InvalidProfileError("conformal factor must be positive")
    radial, tangential = _eigenpair(v, v_r, v_rr, r)
    if radial.ndim:
        return radial, tangential
    return float(radial), float(tangential)


def halfspace_schouten_spectrum(w, w_prime, w_doubleprime, n: int) -> np.ndarray:
    """Spectrum of -g_w^{-1} A_{g_w} for g_w = w(x_n)^-2 * delta on a half-space.

    Returns (w'^2/2 - w*w'' , w'^2/2, ..., w'^2/2) with the normal direction
    first.
    """
    if w <= 0:
        raise InvalidProfileError("conformal factor must be positive")
    tangential = 0.5 * w_prime**2
    return _two_valued(tangential - w * w_doubleprime, tangential, n)


def spectrum_field(profile: RadialProfile, n: int) -> SchoutenSpectrumField:
    """Discrete Schouten spectrum field of a radial profile.

    Derivatives come from the profile's second-order stencils, so for profiles
    with smooth closed forms the eigenvalues are O(h^2)-accurate.
    """
    du, d2u = profile.derivatives()
    radial, tangential = _eigenpair(profile.u, du, d2u, profile.r)
    return SchoutenSpectrumField(r=profile.r.copy(), radial=radial,
                                 tangential=tangential, n=n)


def ricci_spectrum_from_schouten(schouten: np.ndarray, n: int) -> np.ndarray:
    """lam(-g^{-1} Ric) from lam(-g^{-1} A): (n-2)*lam + sigma_1(lam)*e.

    Inverts the trace adjustment A = (Ric - R g / (2(n-1))) / (n-2) at the
    eigenvalue level.
    """
    lam = np.asarray(schouten, dtype=float)
    return (n - 2) * lam + lam.sum(axis=-1, keepdims=True)


def rescaled_metric_spectrum_bound(N, v, dv_sq, C0, C2, C3):
    """Certified componentwise lower bound for the spectrum of g^N = e^{2 e^{Nv}} g.

    Returns (chi1, chi2, scale) with the guaranteed bound
    lam(-g^{-1} A_{g^N}) >= scale * (chi1, chi2, ..., chi2), where

        chi2  = 1 - 2*C0*C2/(N^2 e^{2Nv} |dv|^2) - 2*C0*C3/(N e^{Nv} |dv|^2),
        chi1  = -chi2 + 2 e^{-Nv} - 4*C0*C2/(N^2 e^{2Nv} |dv|^2)
                                  - 4*C0*C3/(N e^{Nv} |dv|^2),
        scale = N^2 e^{2Nv} |dv|^2 / (2*C0).

    |dv|^2 is measured in the flat reference metric; the C0 in the scale
    converts it to a lower bound for the metric norm.
    """
    v = np.asarray(v, dtype=float)
    dv_sq = np.asarray(dv_sq, dtype=float)
    if np.any(dv_sq <= 0):
        raise CriticalPointError("auxiliary function has a critical point (|dv|^2 <= 0)")
    if N <= 0:
        raise InvalidArgumentError(f"N must be positive, got {N}")
    if np.any(v < 1):
        raise InvalidArgumentError("auxiliary function must satisfy v >= 1")
    # Large N overflows e^{Nv}; the correction terms then saturate to 0 (or
    # +inf when the gradient is degenerate), and the validity checks downstream
    # handle either sign correctly, so the warnings are suppressed.
    with np.errstate(over="ignore", invalid="ignore"):
        eNv = np.exp(N * v)
        t2 = 2.0 * C0 * C2 / (N**2 * eNv**2 * dv_sq)
        t3 = 2.0 * C0 * C3 / (N * eNv * dv_sq)
        chi2 = 1.0 - t2 - t3
        chi1 = -chi2 + 2.0 / eNv - 2.0 * t2 - 2.0 * t3
        scale = 0.5 * N**2 * eNv**2 * dv_sq / C0
    if chi2.ndim:
        return chi1, chi2, scale
    return float(chi1), float(chi2), float(scale)


def hyperbolic_ball_profile(grid: int, radius: float = 1.0) -> RadialProfile:
    """u(r) = (b^2 - r^2) / (2 b): the Poincare-ball conformal factor, with
    all Schouten eigenvalues equal to 1/2."""
    r = np.linspace(0.0, radius, grid + 1)
    return RadialProfile(r=r, u=(radius**2 - r**2) / (2.0 * radius))


def barrier_profile(R: float, delta: float, m: float, grid: int) -> RadialProfile:
    """v(r) = (r^2 - R^2)/R^2 on the annulus [R*sqrt(1+delta), R*sqrt(1+m)].

    Over a Euclidean background every eigenvalue equals 2/R^2 exactly, so the
    profile is a supersolution whenever 2/R^2 >= 1/2.
    """
    if not 0 < delta < m:
        raise InvalidArgumentError(f"need 0 < delta < m, got delta={delta}, m={m}")
    r = np.linspace(R * np.sqrt(1.0 + delta), R * np.sqrt(1.0 + m), grid + 1)
    return RadialProfile(r=r, u=(r**2 - R**2) / R**2)
