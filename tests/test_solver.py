"""Solver: residual oracles, Newton, Jacobian, continuation, comparison tools."""

import json
from dataclasses import replace

import numpy as np
import pytest

from lnlab import (Annulus, Ball, ConeSpec, NewtonOptions, ProblemSpec,
                   RadialProfile, barrier_slope_bound, boundary_slope,
                   comparison_check, continuation_delta, continuation_tau,
                   initial_profile, newton_solve, residual)
from lnlab.solver import (_analytic_jacobian, _evaluate, _fd_jacobian,
                          default_delta_schedule, node_margins)
from lnlab.errors import (ContinuationStallError, GridMismatchError,
                          InadmissibleIterateError, InvalidArgumentError)


def ball_spec(n=3, k=1, tau=0.9, delta=0.05, grid=200, rhs=0.5):
    return ProblemSpec(cone=ConeSpec(n, k), tau=tau, domain=Ball(1.0),
                       delta=delta, grid=grid, rhs=rhs)


class TestProblemSpec:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ProblemSpec(cone=ConeSpec(3, 1, 0.5), tau=0.5, domain=Ball(1.0), delta=0.1)
        with pytest.raises(InvalidArgumentError):
            ProblemSpec(cone=ConeSpec(3, 1), tau=1.5, domain=Ball(1.0), delta=0.1)
        with pytest.raises(InvalidArgumentError):
            ball_spec(delta=-0.1)
        with pytest.raises(InvalidArgumentError):
            ball_spec(grid=4)
        for grid in (100.5, 100.0, "100", True):
            with pytest.raises(InvalidArgumentError):
                ball_spec(grid=grid)
        with pytest.raises(InvalidArgumentError):
            ball_spec(rhs=0.0)
        with pytest.raises(InvalidArgumentError):
            Annulus(1.0, 0.5)
        with pytest.raises(InvalidArgumentError):
            Ball(-1.0)

    def test_ball_rejects_delta_pair(self):
        with pytest.raises(InvalidArgumentError):
            ProblemSpec(cone=ConeSpec(3, 1), tau=0.5, domain=Ball(1.0),
                        delta=(0.1, 0.2))

    def test_radii(self):
        spec = ball_spec(grid=10)
        r = spec.radii()
        assert r[0] == 0.0 and r[-1] == 1.0 and r.size == 11
        ann = ProblemSpec(cone=ConeSpec(3, 1), tau=0.5,
                          domain=Annulus(0.5, 1.5), delta=0.1, grid=10)
        r = ann.radii()
        assert r[0] == 0.5 and r[-1] == 1.5


class TestResidual:
    def test_exact_solution_residual(self):
        """u = (b^2 - r^2)/(2b): all eigenvalues 1/2, residual only at boundary."""
        spec = ball_spec(tau=0.9, delta=0.05, grid=100)
        r = spec.radii()
        u = (1 - r**2) / 2 + 0.05
        # boundary row matches delta; interior rows have constant spectra 1/2 + ...
        F = residual(RadialProfile(r=r, u=u), spec)
        assert abs(F[-1]) < 1e-14

    def test_barrier_supersolution_residual(self):
        """tau = 1 admits residual evaluation; the barrier with R = 1 has
        f = 2 > 1/2, so the PDE residual is strictly positive."""
        R = 1.0
        spec = ProblemSpec(cone=ConeSpec(3, 2), tau=1.0,
                           domain=Annulus(R * np.sqrt(1.1), R * np.sqrt(2.0)),
                           delta=(0.1, 1.0), grid=64)
        r = spec.radii()
        u = (r**2 - R**2) / R**2
        F = residual(RadialProfile(r=r, u=u), spec)
        assert np.all(F[1:-1] > 0)

    def test_inadmissible_raises_with_node(self):
        """A constant profile on an annulus has zero spectra: outside the cone."""
        spec = ProblemSpec(cone=ConeSpec(3, 1), tau=0.9,
                           domain=Annulus(0.5, 1.0), delta=1.0, grid=32)
        r = spec.radii()
        with pytest.raises(InadmissibleIterateError) as err:
            residual(RadialProfile(r=r, u=np.ones(33)), spec)
        assert err.value.worst_node is not None

    def test_grid_mismatch(self):
        """Another node count, or the same count on another radius."""
        spec = ball_spec(grid=50)
        for other in (ball_spec(grid=60), replace(spec, domain=Ball(2.0))):
            prof = initial_profile(other)
            for check in (residual, node_margins, newton_solve):
                with pytest.raises(GridMismatchError):
                    check(prof, spec)

    def test_worst_node_agrees_with_newton(self):
        """On an annulus the PDE rows start at node 1; both errors must
        still name the node of the dent."""
        spec = ProblemSpec(cone=ConeSpec(3, 1), tau=0.9,
                           domain=Annulus(0.5, 1.0), delta=1.0, grid=32)
        u = np.ones(33)
        u[9] = 0.9
        prof = RadialProfile(r=spec.radii(), u=u)
        with pytest.raises(InadmissibleIterateError) as from_residual:
            residual(prof, spec)
        with pytest.raises(InadmissibleIterateError) as from_newton:
            newton_solve(prof, spec)
        assert from_residual.value.worst_node == 9
        assert from_newton.value.worst_node == 9


class TestJacobian:
    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.2)])
    def test_analytic_matches_fd(self, domain):
        delta = 0.1 if isinstance(domain, Ball) else (0.1, 0.1)
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.8, domain=domain,
                           delta=delta, grid=24)
        # an iterate that is admissible for the deformed cone
        prof = continuation_tau(spec).profile
        r = spec.radii()
        psi = spec.rhs_values(r)
        cone = spec.solve_cone()
        _, _, state = _evaluate(prof.u, spec, r, psi, cone)
        ja = _analytic_jacobian(prof.u, spec, r, cone, state)
        jf = _fd_jacobian(prof.u, spec, r, psi, cone)
        scale = np.max(np.abs(jf))
        assert np.max(np.abs(ja - jf)) / scale < 1e-6


class TestNewton:
    def test_converges_from_perturbed_exact(self):
        spec = ball_spec(grid=200)
        r = spec.radii()
        # even perturbation (the center stencil assumes an even profile)
        u = (1 - r**2) / 2 + 0.05 + 1e-3 * np.cos(3 * r**2) * (1 - r**2)
        rep = newton_solve(RadialProfile(r=r, u=u), spec)
        assert rep.converged
        assert rep.residual_sup <= 1e-10
        assert rep.newton_iterations <= 10
        assert rep.admissibility_margin_min > 0

    def test_rejects_tau_one(self):
        spec = ProblemSpec(cone=ConeSpec(3, 1), tau=1.0, domain=Ball(1.0),
                           delta=0.1, grid=24)
        with pytest.raises(InvalidArgumentError):
            newton_solve(initial_profile(spec), spec)

    def test_rejects_inadmissible_start(self):
        spec = ProblemSpec(cone=ConeSpec(3, 1), tau=0.9,
                           domain=Annulus(0.5, 1.0), delta=1.0, grid=32)
        r = spec.radii()
        with pytest.raises(InadmissibleIterateError):
            newton_solve(RadialProfile(r=r, u=np.ones(33)), spec)

    def test_failure_reports_not_converged(self):
        spec = ball_spec(grid=100)
        prof = initial_profile(replace(spec, tau=0.0))
        rep = newton_solve(prof, spec, NewtonOptions(max_iterations=1))
        # one iteration from a rough start cannot reach 1e-10
        assert not rep.converged


class TestContinuationTau:
    def test_threshold_case(self):
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.95, domain=Ball(1.0),
                           delta=0.05, grid=300)
        rep = continuation_tau(spec)
        assert rep.converged
        assert rep.residual_sup <= 1e-10
        assert rep.continuation_steps >= 19
        assert rep.tau == 0.95

    def test_tau_zero_shortcut(self):
        spec = ball_spec(tau=0.0, grid=100)
        rep = continuation_tau(spec)
        assert rep.converged and rep.continuation_steps == 0

    def test_custom_schedule(self):
        spec = ball_spec(tau=0.6, grid=100)
        rep = continuation_tau(spec, tau_schedule=[0.3, 0.6])
        assert rep.converged and rep.continuation_steps == 2

    def test_annulus(self):
        spec = ProblemSpec(cone=ConeSpec(3, 2), tau=0.9,
                           domain=Annulus(0.5, 1.0), delta=0.05, grid=200)
        rep = continuation_tau(spec)
        assert rep.converged
        assert rep.admissibility_margin_min > 0

    def test_rejects_target_one(self):
        spec = ProblemSpec(cone=ConeSpec(3, 1), tau=1.0, domain=Ball(1.0),
                           delta=0.1, grid=24)
        with pytest.raises(InvalidArgumentError):
            continuation_tau(spec)


class TestContinuationDelta:
    def test_sweep_monotone_and_stabilizing(self):
        spec = ball_spec(grid=300)
        sweep = continuation_delta(spec)
        assert sweep.ok
        assert sweep.deltas == default_delta_schedule()
        assert sweep.monotonicity_max_violation == 0.0
        # interior values stabilize as delta -> 0
        assert sweep.interior_sup_diffs[-1] < sweep.interior_sup_diffs[0]
        final = sweep.reports[-1]
        assert abs(final.boundary_slope - 1.0) < 0.01

    def test_bad_schedule(self):
        spec = ball_spec(grid=50)
        with pytest.raises(InvalidArgumentError):
            continuation_delta(spec, delta_schedule=[0.1, 0.2])
        with pytest.raises(InvalidArgumentError):
            continuation_delta(spec, delta_schedule=[0.1, -0.05])

    def test_schedule_helper(self):
        sched = default_delta_schedule(0.1, 1e-3, 0.5)
        assert sched[0] == 0.1 and sched[-1] == 1e-3
        assert all(b < a for a, b in zip(sched, sched[1:]))


class TestDiagnostics:
    def test_boundary_slope_exact_linear(self):
        r = np.linspace(0.0, 1.0, 101)
        prof = RadialProfile(r=r, u=2.0 * (1.0 - r) + 1e-12)
        assert boundary_slope(prof) == pytest.approx(2.0, rel=1e-9)

    def test_boundary_slope_exact_quadratic(self):
        r = np.linspace(0.0, 1.0, 101)
        prof = RadialProfile(r=r, u=(1 - r**2) / 2)
        # u/(1-r) = (1+r)/2 -> 1 at the boundary; extrapolation is exact
        assert boundary_slope(prof) == pytest.approx(1.0, rel=1e-10)

    def test_comparison_check(self):
        r = np.linspace(0.0, 1.0, 51)
        a = RadialProfile(r=r, u=1.0 - 0.5 * r**2)
        b = RadialProfile(r=r, u=1.1 - 0.5 * r**2)
        assert comparison_check(a, b, "le")
        assert comparison_check(b, a, "ge")
        assert not comparison_check(b, a, "le")
        with pytest.raises(InvalidArgumentError):
            comparison_check(a, b, "lt")
        with pytest.raises(GridMismatchError):
            comparison_check(a, RadialProfile(r=r[:-1], u=b.u[:-1]), "le")

    def test_barrier_slope_bound(self):
        R, slope = barrier_slope_bound(0.1, 1.0)
        assert R == 2.0
        assert slope == pytest.approx(2 * np.sqrt(1.1) / 2)
        R, slope = barrier_slope_bound(0.1, 1.0, r_geom=1.0)
        assert R == 1.0
        with pytest.raises(InvalidArgumentError):
            barrier_slope_bound(0.5, 0.2)

    def test_node_margins_positive_on_solution(self):
        spec = ball_spec(grid=100)
        rep = continuation_tau(spec)
        margins = node_margins(rep.profile, spec)
        assert np.all(margins > 0)


class TestComparisonTheorems:
    def test_barrier_dominates_solution(self):
        """The explicit barrier is a supersolution: the solved profile with
        matching boundary data stays below it."""
        spec = ball_spec(n=3, k=1, tau=0.9, delta=0.05, grid=200)
        rep = continuation_tau(spec)
        r = spec.radii()
        barrier = RadialProfile(r=r, u=(1 - r**2) / 2 + 0.05)
        assert comparison_check(rep.profile, barrier, "le")

    def test_tau_ordering(self):
        spec0 = ball_spec(tau=0.0, grid=150)
        base = continuation_tau(spec0)
        high = continuation_tau(replace(spec0, tau=0.9))
        assert comparison_check(high.profile, base.profile, "ge")


class TestReport:
    def test_json_roundtrip_and_determinism(self):
        spec = ball_spec(grid=100)
        a = continuation_tau(spec)
        b = continuation_tau(spec)
        assert a.to_json() == b.to_json()
        payload = json.loads(a.to_json(include_profile=False))
        assert payload["converged"] is True
        assert "r" not in payload

    def test_csv_columns(self):
        spec = ball_spec(grid=50)
        rep = continuation_tau(spec)
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "r,u,residual,margin"
        assert len(lines) == 52
