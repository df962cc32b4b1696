"""Certified construction of admissible conformal rescalings.

Given a background with metric-equivalence / Schouten / Hessian bounds
(C0, C2, C3) and an auxiliary function v >= 1 with no critical points, the
rescaling g^N = e^{2 e^{N v}} g has a certified componentwise spectrum lower
bound scale * (chi1, chi2, ..., chi2).  For N large enough that

    1/2 < chi2   and   chi1 > -chi2 + e^{-N v}   at every node,

the bound lies in any cone whose mu+ exceeds 1 - e^{-N max(v)}.
"""

import json
from dataclasses import dataclass

import numpy as np

from .cones import ConeSpec, cone_margin, mu_plus
from .errors import CriticalPointError, InvalidArgumentError, NoCertificateError
from .schouten import _two_valued, rescaled_metric_spectrum_bound

# Geometric scan N in {2^j / 8 : j = 0..40}; smallest valid value is returned.
N_SCAN = [2.0**j / 8.0 for j in range(41)]

# Safety factor applied when extracting C0/C2/C3 from discrete data.
BOUND_SAFETY = 1.1


@dataclass(frozen=True)
class BackgroundData:
    """Per-node auxiliary data plus global background bounds.

    v >= 1 everywhere, |dv|^2 > 0 everywhere (no critical points); C0 >= 1
    bounds the metric equivalence and Christoffel symbols, C2 the Schouten
    tensor from above, C3 the Hessian of v.
    """

    v: np.ndarray
    dv_sq: np.ndarray
    C0: float = 1.0
    C2: float = 0.0
    C3: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        dv_sq = np.asarray(self.dv_sq, dtype=float)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "dv_sq", dv_sq)
        if v.shape != dv_sq.shape or v.ndim != 1 or v.size == 0:
            raise InvalidArgumentError("v and dv_sq must be matching non-empty 1-d arrays")
        if np.any(v < 1.0):
            raise InvalidArgumentError("auxiliary function must satisfy v >= 1 everywhere")
        if np.any(dv_sq <= 0.0):
            raise CriticalPointError("auxiliary function has a critical point (|dv|^2 <= 0)")
        if self.C0 < 1.0 or self.C2 < 0.0 or self.C3 < 0.0:
            raise InvalidArgumentError("need C0 >= 1, C2 >= 0, C3 >= 0")


@dataclass(frozen=True)
class AdmissibilityCertificate:
    """A value of N with its per-node lower-bound data.

    Valid iff at every node chi2 > 1/2 and chi1 > -chi2 + e^{-N v}; any cone
    with mu+ >= mu_required = 1 - e^{-N max(v)} then contains the bound.
    """

    N: float
    chi1: np.ndarray
    chi2: np.ndarray
    scale: np.ndarray
    mu_required: float

    def slack(self, v: np.ndarray) -> np.ndarray:
        """Per-node slack chi1 - (-chi2 + e^{-N v}); positive when valid.

        Evaluated as e^{-N v} - 2*(1 - chi2), which is algebraically identical
        (chi1 + chi2 = 2 e^{-N v} - 2*(1 - chi2)) but avoids the catastrophic
        cancellation of chi1 + chi2 when both round to +-1 at large N.
        """
        eNv = np.exp(-self.N * np.asarray(v))
        return eNv - 2.0 * (1.0 - self.chi2)

    def lower_bound_spectra(self, n: int) -> np.ndarray:
        """Certified spectrum lower bounds, shape (nodes, n)."""
        return _two_valued(self.scale * self.chi1, self.scale * self.chi2, n)

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "mu_required": self.mu_required,
            "worst_chi1": float(self.chi1.min()),
            "worst_chi2": float(self.chi2.min()),
            "worst_slack": float((self.chi1 + self.chi2).min()),
            "min_scale": float(self.scale.min()),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _certificate_at(data: BackgroundData, N: float) -> AdmissibilityCertificate:
    chi1, chi2, scale = rescaled_metric_spectrum_bound(
        N, data.v, data.dv_sq, data.C0, data.C2, data.C3)
    chi1 = np.atleast_1d(chi1)
    chi2 = np.atleast_1d(chi2)
    scale = np.atleast_1d(scale)
    mu_required = 1.0 - float(np.exp(-N * data.v.max()))
    return AdmissibilityCertificate(N=N, chi1=chi1, chi2=chi2, scale=scale,
                                    mu_required=mu_required)


def _is_valid(cert: AdmissibilityCertificate, data: BackgroundData) -> bool:
    # chi2 <= 1 holds identically (the correction terms are nonnegative), so
    # only the lower conditions need checking; equality chi2 = 1 occurs for
    # flat data and is accepted.
    return bool(np.all(cert.chi2 > 0.5) and np.all(cert.slack(data.v) > 0.0))


def find_N(data: BackgroundData) -> AdmissibilityCertificate:
    """Smallest N on the geometric scan grid with a valid certificate."""
    for N in N_SCAN:
        cert = _certificate_at(data, N)
        if _is_valid(cert, data):
            return cert
    worst = int(np.argmin(cert.slack(data.v)))
    raise NoCertificateError(
        f"no valid certificate for N up to {N_SCAN[-1]:g}; worst node {worst}",
        worst_node=worst)


def verify_admissible(data: BackgroundData, cert: AdmissibilityCertificate,
                      cone: ConeSpec):
    """Check a certificate against a concrete cone.

    ok iff mu+(cone) >= mu_required and the certified lower-bound vector lies
    in the cone at every node; the margin is the worst cone margin.  By
    monotonicity of f, membership of the lower bound implies membership of the
    true spectrum.
    """
    if cert.chi1.shape != data.v.shape:
        raise InvalidArgumentError("certificate was not produced for this data")
    spectra = cert.lower_bound_spectra(cone.n)
    margins = cone_margin(cone, spectra)
    margin = float(np.min(margins))
    ok = mu_plus(cone) >= cert.mu_required and bool(np.all(margins > 0.0))
    return ok, margin


def scan_background(v: np.ndarray, dv_sq: np.ndarray,
                    schouten_sup: float = 0.0, hessian_sup: float = 0.0,
                    metric_ratio: float = 1.0) -> BackgroundData:
    """Build BackgroundData from discrete bounds with the standard safety factor.

    metric_ratio bounds the eigenvalue spread between the background metric and
    the flat reference; flat backgrounds use the defaults unchanged.
    """
    C0 = max(1.0, BOUND_SAFETY * metric_ratio)
    C2 = BOUND_SAFETY * schouten_sup if schouten_sup > 0 else 0.0
    C3 = BOUND_SAFETY * hessian_sup if hessian_sup > 0 else 0.0
    return BackgroundData(v=v, dv_sq=dv_sq, C0=C0, C2=C2, C3=C3)


def linear_auxiliary(coords: np.ndarray) -> BackgroundData:
    """Default auxiliary function v = 1 + x along a scan coordinate in [0, inf).

    Guarantees v >= 1 and |dv|^2 = 1 everywhere, standing in for a general
    critical-point-free function on the supported geometries.
    """
    x = np.asarray(coords, dtype=float)
    if np.any(x < 0):
        raise InvalidArgumentError("scan coordinates must be nonnegative")
    return BackgroundData(v=1.0 + x, dv_sq=np.ones_like(x))
