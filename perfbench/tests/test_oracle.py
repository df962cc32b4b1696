import numpy as np
import pytest

import oracle
from lnlab.cones import ConeSpec
from lnlab.solver import (Annulus, Ball, NewtonOptions, ProblemSpec,
                          continuation_tau, residual)
from lnlab.schouten import RadialProfile

DELTA = 0.05


def solve(domain, n, k, tau, grid):
    spec = ProblemSpec(cone=ConeSpec(n, k), tau=tau, domain=domain,
                       delta=DELTA, grid=grid)
    h = spec.radii()[1] - spec.radii()[0]
    tol = oracle.rounding_floor(h)
    report = continuation_tau(spec, opts=NewtonOptions(tol=tol))
    assert report.converged
    return spec, report.profile, tol


def check(profile, name, n, k, tau, tol):
    return oracle.check_profile(profile.r, profile.u, domain=name, n=n, k=k,
                                tau=tau, delta=DELTA, tol=tol)


def test_ball_closed_form_solves_the_discrete_problem():
    spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.95, domain=Ball(1.0),
                       delta=DELTA, grid=400)
    r = spec.radii()
    u = oracle.ball_solution(r, DELTA)
    assert u[-1] == pytest.approx(DELTA, abs=1e-15)
    F = residual(RadialProfile(r=r, u=u), spec)
    assert np.max(np.abs(F)) < oracle.rounding_floor(1.0 / 400)


@pytest.mark.parametrize("grid", [1000, 10_000])
@pytest.mark.parametrize("name,n,k,tau", [("ball", 4, 2, 0.95),
                                          ("annulus", 5, 2, 0.9),
                                          ("annulus", 3, 1, 0.5)])
def test_oracle_accepts_converged_and_rejects_perturbed(name, n, k, tau, grid):
    domain = Ball(1.0) if name == "ball" else Annulus(0.5, 1.0)
    _, profile, tol = solve(domain, n, k, tau, grid)
    assert check(profile, name, n, k, tau, tol)[0]

    scaled = RadialProfile(r=profile.r, u=profile.u * (1.0 + 1e-6))
    assert not check(scaled, name, n, k, tau, tol)[0]

    rng = np.random.default_rng(0)
    noisy = profile.u * (1.0 + 1e-6 * rng.choice([-1.0, 1.0], profile.u.size))
    assert not check(RadialProfile(r=profile.r, u=noisy), name, n, k, tau, tol)[0]


@pytest.mark.parametrize("n,k,tau", [(3, 1, 0.9), (6, 3, 0.95), (5, 5, 0.5)])
def test_annulus_residual_matches_the_solver_residual(n, k, tau):
    spec, profile, _ = solve(Annulus(0.5, 1.0), n, k, tau, 500)
    res, margin = oracle.annulus_residual(profile.r, profile.u, n, k, tau, DELTA)
    F = residual(profile, spec)
    assert margin > 0
    assert res == pytest.approx(np.max(np.abs(F)), abs=oracle.rounding_floor(0.5 / 500))


def test_inadmissible_profile_fails_without_a_residual():
    r = np.linspace(0.5, 1.0, 201)
    u = DELTA + 0.0 * r   # constant: every eigenvalue is zero
    res, margin = oracle.annulus_residual(r, u, 4, 2, 0.9, DELTA)
    assert margin <= 0 and res == np.inf
