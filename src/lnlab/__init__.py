"""Numerical laboratory for sigma-k Loewner-Nirenberg problems."""

from .cones import (ConeSpec, contains_ray_e1, cone_margin, f_eval, grad_f,
                    mu_plus, tau_deform)
from .schouten import (RadialProfile, barrier_profile, hyperbolic_ball_profile,
                       radial_schouten_spectrum,
                       rescaled_metric_spectrum_bound,
                       ricci_spectrum_from_schouten, spectrum_field)
from .admissible import (AdmissibilityCertificate, BackgroundData, find_N,
                         linear_auxiliary, verify_admissible)
from .solver import (Annulus, Ball, DeltaContinuationResult, NewtonOptions,
                     ProblemSpec, SolveReport, boundary_slope,
                     comparison_check, continuation_delta, continuation_tau,
                     initial_profile, newton_solve, residual)

__version__ = "0.1.0"

__all__ = [
    "ConeSpec", "contains_ray_e1", "cone_margin", "f_eval", "grad_f",
    "mu_plus", "tau_deform",
    "RadialProfile", "barrier_profile", "hyperbolic_ball_profile",
    "radial_schouten_spectrum", "rescaled_metric_spectrum_bound",
    "ricci_spectrum_from_schouten", "spectrum_field",
    "AdmissibilityCertificate", "BackgroundData", "find_N",
    "linear_auxiliary", "verify_admissible",
    "Annulus", "Ball", "DeltaContinuationResult", "NewtonOptions",
    "ProblemSpec", "SolveReport", "boundary_slope",
    "comparison_check", "continuation_delta", "continuation_tau",
    "initial_profile", "newton_solve", "residual",
]
