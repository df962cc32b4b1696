"""Certified construction of admissible conformal rescalings.

Given a background with metric-equivalence / Schouten / Hessian bounds
(C0, C2, C3) and an auxiliary function v >= 1 with no critical points, the
rescaling g^N = e^{2 e^{N v}} g has a certified componentwise spectrum lower
bound scale * (chi1, chi2, ..., chi2) (see rescaled_metric_spectrum_bound).
The certificate is valid when, at every node,

    q = 4*C0*C3 / (N |dv|^2) + 4*C0*C2 e^{-N v} / (N^2 |dv|^2) < 1,

which is chi1 > -chi2 + e^{-N v} multiplied through by e^{N v}, and implies
chi2 > 1/2.  A valid bound lies in any cone whose mu+ is at least
1 - e^{-N max(v)}; verify_admissible checks a certificate against a cone.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cones import ConeSpec, _mu_plus_exact, _real_array, cone_margin
from .errors import InvalidArgumentError, NoCertificateError
from .schouten import BackgroundData, rescaled_metric_spectrum_bound

# Geometric scan N in {2^j / 8 : j = 0..40}; smallest valid value is returned.
N_SCAN = [2.0**j / 8.0 for j in range(41)]


@dataclass(frozen=True)
class AdmissibilityCertificate:
    """A value of N with the per-node (t, e^{-N v}, log(scale), q) of
    rescaled_metric_spectrum_bound.

    Valid iff q < 1 at every node; any cone with mu+ >= mu_required =
    1 - e^{-N max(v)} then contains the bound.
    """

    N: float
    t: np.ndarray
    e_neg: np.ndarray
    log_scale: np.ndarray
    q: np.ndarray
    mu_required: float

    @property
    def chi1(self) -> np.ndarray:
        return -1.0 + 2.0 * self.e_neg - self.t

    @property
    def chi2(self) -> np.ndarray:
        return 1.0 - self.t

    def slack(self) -> np.ndarray:
        """Per-node 1 - q, the slack chi1 - (-chi2 + e^{-N v}) times e^{N v}:
        positive exactly where valid, with no underflow at any N."""
        return 1.0 - self.q


def _certificate_at(data: BackgroundData, N: float) -> AdmissibilityCertificate:
    t, e_neg, log_scale, q = rescaled_metric_spectrum_bound(N, data)
    return AdmissibilityCertificate(N=N, t=t, e_neg=e_neg, log_scale=log_scale,
                                    q=q, mu_required=1.0 - float(e_neg.min()))


def find_N(data: BackgroundData) -> AdmissibilityCertificate:
    """Smallest N on the geometric scan grid with a valid certificate."""
    for N in N_SCAN:
        cert = _certificate_at(data, N)
        if np.all(cert.slack() > 0.0):
            return cert
    worst = int(np.argmin(cert.slack()))
    raise NoCertificateError(
        f"no valid certificate for N up to {N_SCAN[-1]:g}; worst node {worst}",
        worst_node=worst)


def verify_admissible(cert: AdmissibilityCertificate, cone: ConeSpec):
    """Check a certificate against a concrete cone.

    ok iff mu+(cone) >= mu_required and the certified lower bound lies in the
    cone at every node (by monotonicity of f, so then does the true
    spectrum).  The scale is positive, and a pair (chi1, chi2) with chi2 > 0
    lies in the cone exactly when chi1 + mu+ * chi2 > 0, tested in slack form

        chi1 + mu+ * chi2 = (mu+ - 1) * chi2 + e^{-N v} (2 - q),

    with e^{-N v} > 0 kept apart, so its sign survives e^{-N v} underflowing.
    Both comparisons with mu+ use its exact rational value.  Where mu+ >= 1
    and 2 - q > 0 both terms are >= 0, and the node is inside.  Otherwise the
    float sum counts only when it exceeds 2^-48 times the sum of the terms'
    magnitudes, which bounds the roundings in the terms and the sum, and the
    error of e^{-N v} when N*v is exact, as for q.  The margin is the worst
    cone_margin of the pairs (chi1, chi2), capped at 0 when a node fails the
    test above, so its sign never contradicts that test.
    """
    mu = _mu_plus_exact(cone)
    chi1, chi2 = cert.chi1, cert.chi2
    lead = float(mu - 1) * chi2
    tail = 1.0 + cert.slack()
    rest = cert.e_neg * tail
    inside = lead + rest > 2.0**-48 * (np.abs(lead) + np.abs(rest))
    if mu >= 1:
        inside |= tail > 0.0
    inside &= chi2 > 0.0
    margin = float(np.min(cone_margin(cone, np.stack((chi1, chi2), axis=-1))))
    if not np.all(inside):
        margin = min(margin, 0.0)
    ok = mu >= Fraction(cert.mu_required) and bool(np.all(inside))
    return ok, margin


def linear_auxiliary(coords: np.ndarray) -> BackgroundData:
    """Default auxiliary function v = 1 + x along a scan coordinate in [0, inf).

    Guarantees v >= 1 and |dv|^2 = 1 everywhere, standing in for a general
    critical-point-free function on the supported geometries.
    """
    x = _real_array(coords, "coords")
    if np.any(x < 0):
        raise InvalidArgumentError("scan coordinates must be nonnegative")
    return BackgroundData(v=1.0 + x, dv_sq=np.ones_like(x))
