"""Tour of the Garding-cone algebra.

Walks through the operator family f = c_{n,k} * sigma_k^{1/k}, the trace
deformation, and the cone aperture parameter mu+ that controls which
singular boundary behaviours a cone admits.

Run:  python demos/cone_geometry_tour.py
"""

import numpy as np

from lnlab import ConeSpec, cone_margin, contains_ray_e1, f_eval, mu_plus, tau_deform


def main():
    print("=== cone apertures mu+ = (n-k)/k ===")
    for n in (3, 4, 5):
        row = "  n=%d:" % n
        for k in range(1, n + 1):
            row += "  k=%d -> %.4f" % (k, mu_plus(ConeSpec(n, k)))
        print(row)

    print()
    print("=== the ray e1 = (1,0,...,0): inside Gamma_1, on the edge of Gamma_k, k>=2 ===")
    for (n, k) in ((4, 1), (4, 2), (4, 4)):
        print("  Gamma_%d^+ in R^%d: contains e1 = %s"
              % (k, n, contains_ray_e1(ConeSpec(n, k))))

    print()
    print("=== trace deformation opens the cone back up ===")
    lam = np.array([1.0, 0.0, 0.0, 0.0])
    for tau in (1.0, 0.9, 0.5, 0.0):
        margin = cone_margin(ConeSpec(4, 2, tau), lam)
        print("  tau=%.1f: lam^tau = %s  member=%s  margin=%.3e"
              % (tau, np.round(tau_deform(lam, tau), 3), bool(margin > 0), margin))

    print()
    print("=== normalization: f^tau(e) = 1 for every cone ===")
    for cone in (ConeSpec(3, 1), ConeSpec(5, 3, 0.7), ConeSpec(6, 6, 0.2)):
        print("  %s -> f(e) = %.15f" % (cone, f_eval(cone, np.ones(cone.n))))


if __name__ == "__main__":
    main()
