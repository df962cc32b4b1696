"""Continuation solve on the unit ball, end to end.

Solves the fully nonlinear radial Dirichlet problem for the k-th root of
sigma_k of the Schouten spectrum: first continuation in the deformation
parameter tau (from the semilinear trace problem to the target operator),
then a decreasing sweep of the boundary datum delta toward the
zero-boundary problem, whose solutions behave like dist-to-boundary.

Run:  python demos/continuation_run.py
"""

import numpy as np

from lnlab import (Ball, ConeSpec, ProblemSpec, continuation_delta,
                   continuation_tau)


def main():
    spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.95, domain=Ball(1.0),
                       delta=0.1, grid=500)

    print("=== tau continuation: 0 -> %.2f (threshold cone Gamma_2^+ in R^4) ===" % spec.tau)
    rep = continuation_tau(spec)
    print("  steps=%d  newton residual=%.2e  cone margin=%.2e"
          % (rep.continuation_steps, rep.residual_sup, rep.admissibility_margin_min))
    print("  u(0)=%.6f  sup|u'|=%.4f" % (rep.profile.u[0], rep.grad_sup))

    print()
    print("=== delta sweep: boundary datum 1e-1 -> 1e-4 ===")
    sweep = continuation_delta(spec)
    for d, leg in zip(sweep.deltas, sweep.reports):
        print("  delta=%8.1e  u(0)=%.6f  slope~%.5f"
              % (d, leg.profile.u[0], leg.boundary_slope))
    final = sweep.reports[-1]
    r = final.profile.r
    inner = r <= 0.9
    dist = np.max(np.abs(final.profile.u[inner] - (1 - r[inner]**2) / 2))
    print("  monotone in delta: %s (max violation %.1e)"
          % (sweep.monotonicity_max_violation == 0.0, sweep.monotonicity_max_violation))
    print("  distance to hyperbolic model on r <= 0.9: %.2e" % dist)
    print("  boundary slope: %.5f (zero-boundary limit forces 1)"
          % final.boundary_slope)


if __name__ == "__main__":
    main()
