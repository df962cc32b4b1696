"""Algebra of Garding cones and their trace deformations.

The supported operator family is f(lam) = c_{n,k} * sigma_k(lam)^(1/k) on the
cone Gamma_k^+ = {sigma_j(lam) > 0 for j <= k}, together with the one-parameter
deformation

    lam^tau = tau*lam + (1-tau)*sigma_1(lam)*e,
    f^tau(lam) = f(lam^tau) / (tau + n*(1-tau)),

normalised so f^tau(e) = 1 for every tau in [0, 1].  All functions accept
arrays of spectra with shape (..., n) and broadcast over the leading axes.
"""

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import ConeDomainError, DegeneratePointError, InvalidArgumentError

# Minimum normalized margin for a point to count as strictly interior
# (f is non-smooth on the cone boundary).
INTERIOR_MARGIN = 1e-12


@dataclass(frozen=True)
class ConeSpec:
    """A Garding cone Gamma_k^+ in dimension n, optionally tau-deformed.

    tau = 1 is the undeformed cone; tau = 0 collapses everything onto the
    trace, so membership degenerates to sigma_1 > 0.
    """

    n: int
    k: int
    tau: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 3):
            raise InvalidArgumentError(f"dimension n must be an integer >= 3, got {self.n}")
        if not (isinstance(self.k, (int, np.integer)) and 1 <= self.k <= self.n):
            raise InvalidArgumentError(f"order k must satisfy 1 <= k <= n, got {self.k}")
        if not (0.0 <= self.tau <= 1.0):
            raise InvalidArgumentError(f"tau must lie in [0, 1], got {self.tau}")

    @property
    def normalization(self) -> float:
        """c_{n,k} = binom(n,k)^(-1/k), so that f(e) = 1."""
        return comb(self.n, self.k) ** (-1.0 / self.k)

    @property
    def deformation_scale(self) -> float:
        """tau + n*(1-tau), the trace factor picked up by e under deformation."""
        return self.tau + self.n * (1.0 - self.tau)


class Membership(NamedTuple):
    member: np.ndarray | bool
    margin: np.ndarray | float


def sigma_all(lam: np.ndarray) -> np.ndarray:
    """All elementary symmetric polynomials of lam.

    Returns an array of shape lam.shape[:-1] + (n+1,) whose entry [..., j]
    is sigma_j(lam), with sigma_0 = 1.  Uses the stable product recurrence
    (coefficients of prod_i (t + lam_i)) rather than subset enumeration.
    Entries are sorted first so permutations give bit-identical results.
    """
    lam = np.sort(np.asarray(lam, dtype=float), axis=-1)
    n = lam.shape[-1]
    e = np.zeros(lam.shape[:-1] + (n + 1,))
    e[..., 0] = 1.0
    for i in range(n):
        e[..., 1:i + 2] += lam[..., i:i + 1] * e[..., 0:i + 1].copy()
    return e


def sigma_k(lam: np.ndarray, j: int) -> np.ndarray | float:
    """sigma_j(lam) for 1 <= j <= n."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not 1 <= j <= n:
        raise InvalidArgumentError(f"sigma index j must satisfy 1 <= j <= {n}, got {j}")
    out = sigma_all(lam)[..., j]
    return out if out.ndim else float(out)


def tau_deform(lam: np.ndarray, tau: float) -> np.ndarray:
    """lam^tau = tau*lam + (1-tau)*sigma_1(lam)*e."""
    if not 0.0 <= tau <= 1.0:
        raise InvalidArgumentError(f"tau must lie in [0, 1], got {tau}")
    lam = np.asarray(lam, dtype=float)
    # Sum in sorted order so permutations of lam give bit-identical traces.
    s1 = np.sort(lam, axis=-1).sum(axis=-1, keepdims=True)
    return tau * lam + (1.0 - tau) * s1


def cone_margin(cone: ConeSpec, lam: np.ndarray) -> np.ndarray | float:
    """Signed, scale-aware membership margin.

    min over j <= k of sigma_j(lam^tau) / (binom(n,j) * max(1, |lam^tau|_inf)^j);
    positive inside the cone, zero on the boundary, negative outside.  The
    normalization makes margins comparable across j.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape[-1] != cone.n:
        raise InvalidArgumentError(
            f"spectrum has {lam.shape[-1]} entries, cone dimension is {cone.n}")
    mu = tau_deform(lam, cone.tau)
    sig = sigma_all(mu)
    scale = np.maximum(1.0, np.abs(mu).max(axis=-1))
    margins = np.empty(mu.shape[:-1] + (cone.k,))
    for j in range(1, cone.k + 1):
        margins[..., j - 1] = sig[..., j] / (comb(cone.n, j) * scale ** j)
    out = margins.min(axis=-1)
    return out if out.ndim else float(out)


def in_cone(cone: ConeSpec, lam: np.ndarray) -> Membership:
    """Strict membership of lam in the (deformed) cone, with its margin."""
    margin = cone_margin(cone, lam)
    return Membership(margin > 0.0, margin)


def f_eval(cone: ConeSpec, lam: np.ndarray) -> np.ndarray | float:
    """f^tau(lam) = c_{n,k} * sigma_k(lam^tau)^(1/k) / (tau + n*(1-tau)).

    Degree-one homogeneous with f^tau(e) = 1.  Raises ConeDomainError if any
    point lies outside the cone.
    """
    margin = cone_margin(cone, lam)
    if not np.all(np.asarray(margin) > 0.0):
        worst = float(np.min(margin))
        raise ConeDomainError(
            f"spectrum outside Gamma (worst margin {worst:.3e})", margin=worst)
    mu = tau_deform(lam, cone.tau)
    sk = sigma_all(mu)[..., cone.k]
    out = cone.normalization * sk ** (1.0 / cone.k) / cone.deformation_scale
    return out if np.ndim(out) else float(out)


def _f_and_grad_unchecked(cone: ConeSpec, lam: np.ndarray):
    """f^tau and its gradient, assuming sigma_k(lam^tau) > 0.

    Used by the solver on iterates already certified admissible.  The gradient
    combines d sigma_k / d mu_i = sigma_{k-1}(mu with entry i removed), the
    power 1/k, and the linear deformation map.
    """
    lam = np.asarray(lam, dtype=float)
    n, k = cone.n, cone.k
    mu = tau_deform(lam, cone.tau)
    sig = sigma_all(mu)
    sk = sig[..., k]
    fk = cone.normalization * sk ** (1.0 / k)

    # sigma_{k-1} of mu with entry i deleted, via the downward recurrence
    # sigma_j(mu \ i) = sigma_j(mu) - mu_i * sigma_{j-1}(mu \ i).
    drop = np.ones_like(mu)
    for j in range(1, k):
        drop = sig[..., j][..., None] - mu * drop
    grad_F = (fk / (k * sk))[..., None] * drop

    # Chain rule through lam^tau: d mu_i / d lam_j = tau*delta_ij + (1-tau).
    g = (cone.tau * grad_F
         + (1.0 - cone.tau) * grad_F.sum(axis=-1, keepdims=True))
    s = cone.deformation_scale
    return fk / s, g / s


def grad_f(cone: ConeSpec, lam: np.ndarray) -> np.ndarray:
    """Gradient of f^tau at a strictly interior lam; all components positive."""
    margin = cone_margin(cone, lam)
    if not np.all(np.asarray(margin) >= INTERIOR_MARGIN):
        worst = float(np.min(margin))
        raise DegeneratePointError(
            f"spectrum too close to the cone boundary for a gradient "
            f"(margin {worst:.3e} < {INTERIOR_MARGIN:.0e})", margin=worst)
    _, g = _f_and_grad_unchecked(cone, lam)
    return g


def mu_plus(cone: ConeSpec) -> float:
    """The unique mu in [0, n-1] with (-mu, 1, ..., 1) on the cone boundary.

    Found by bisection on the sign of the membership margin; 60 fixed
    iterations give absolute accuracy well below 1e-10 on a bracket of
    length n-1.  Equals (n-k)/k for the undeformed Gamma_k^+.
    """
    n = cone.n
    probe = np.ones(n)

    def member(m):
        probe[0] = -m
        return cone_margin(cone, probe) > 0.0

    lo, hi = 0.0, float(n - 1)
    if not member(lo):
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def contains_ray_e1(cone: ConeSpec) -> bool:
    """Whether (1, 0, ..., 0) is strictly inside the cone.

    True marks the regime in which the limiting zero-boundary solutions stay
    smooth; false once the cone boundary touches that ray (k >= 2, tau = 1).
    """
    e1 = np.zeros(cone.n)
    e1[0] = 1.0
    return bool(cone_margin(cone, e1) > INTERIOR_MARGIN)
