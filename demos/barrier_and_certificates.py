"""Exact model metrics and certified admissible rescalings.

Three exactly-computable constructions:

  1. the Poincare-ball factor u = (1 - r^2)/2, whose Schouten eigenvalues
     are all 1/2 (the hyperbolic model);
  2. the exterior-sphere barrier v = (r^2 - R^2)/R^2, with eigenvalues
     2/R^2 -- a supersolution exactly when R <= 2;
  3. the rescaling g^N = e^{2 e^{Nv}} g with a certified spectrum lower
     bound, scanned for the smallest workable N.

Run:  python demos/barrier_and_certificates.py
"""

import numpy as np

from lnlab import (ConeSpec, barrier_profile, find_N, hyperbolic_ball_profile,
                   linear_auxiliary, spectrum_field, verify_admissible)


def main():
    print("=== hyperbolic model: every eigenvalue is 1/2 ===")
    radial, tangential = spectrum_field(hyperbolic_ball_profile(400)).T
    print("  max |radial - 1/2|     = %.3e" % np.max(np.abs(radial - 0.5)))
    print("  max |tangential - 1/2| = %.3e" % np.max(np.abs(tangential - 0.5)))

    print()
    print("=== exterior barrier: eigenvalues 2/R^2, supersolution iff R <= 2 ===")
    for R in (1.0, 2.0, 2.5):
        radial = spectrum_field(barrier_profile(R, delta=0.1, m=1.0, grid=64))[:, 0]
        lam = 2 / R**2
        print("  R=%.1f: eigenvalue %.4f, f = lam >= 1/2 is %s (spread %.1e)"
              % (R, lam, lam >= 0.5, np.ptp(radial)))

    print()
    print("=== certified admissible rescaling over a flat strip ===")
    data = linear_auxiliary(np.linspace(0.0, 1.0, 41))
    cert = find_N(data)
    print("  smallest N on the scan grid: %g" % cert.N)
    print("  required cone aperture mu+ >= %.4f" % cert.mu_required)
    for (n, k) in ((4, 2), (6, 3), (4, 3)):
        ok, margin = verify_admissible(cert, ConeSpec(n, k))
        print("  Gamma_%d^+ in R^%d (mu+ = %.3f): admissible=%s margin=%.3e"
              % (k, n, (n - k) / k, ok, margin))


if __name__ == "__main__":
    main()
