"""Solver: residual oracles, Newton, Jacobian, continuation, comparison tools."""

import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lnlab import (Annulus, Ball, ConeSpec, ProblemSpec, RadialProfile,
                   boundary_slope, comparison_check, continuation_delta,
                   continuation_tau, initial_profile, newton_solve, residual)
from lnlab import _csv17, cones, solver
from lnlab.cli import _format17
from lnlab.solver import (DELTA_SCHEDULE, MARGIN_FLOOR, NEWTON_TOL, SolveReport,
                          _analytic_jacobian, _evaluate)
from lnlab.schouten import _radial_stencil
from lnlab.errors import (ContinuationStallError, GridMismatchError,
                          InadmissibleIterateError, InvalidArgumentError,
                          InvalidProfileError, LnlabError)


def ball_spec(n=3, k=1, tau=0.9, delta=0.05, grid=200):
    return ProblemSpec(cone=ConeSpec(n, k), tau=tau, domain=Ball(1.0),
                       delta=delta, grid=grid)


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
            Annulus(1.0, 0.5)
        with pytest.raises(InvalidArgumentError):
            Ball(-1.0)

    def test_grid_numpy_cannot_allocate_is_refused(self):
        """A grid whose (grid + 1) radii of 8 bytes pass the largest intp is
        refused by name.  Only specs are built: no radii are allocated."""
        largest = np.iinfo(np.intp).max // 8 - 1
        assert ball_spec(grid=largest).grid == largest
        for grid in (largest + 1, np.int64(largest + 1), 10**20):
            with pytest.raises(InvalidArgumentError, match=f"^grid {grid} is too large"):
                ball_spec(grid=grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_by_name(self, bad):
        for make, name in ((lambda: Ball(bad), "radius"),
                           (lambda: Annulus(0.5, bad), "inner < outer < inf"),
                           (lambda: ball_spec(delta=bad), "delta")):
            with pytest.raises(InvalidArgumentError, match=name):
                make()

    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.0)],
                             ids=["ball", "annulus"])
    @pytest.mark.parametrize("bad", [(0.1, 0.2), [0.1], "0.1", True],
                             ids=["tuple", "list", "str", "bool"])
    def test_delta_must_be_one_real_number(self, domain, bad):
        with pytest.raises(InvalidArgumentError, match="delta"):
            ProblemSpec(cone=ConeSpec(3, 1), tau=0.5, domain=domain, delta=bad)

    @pytest.mark.parametrize("make, name", [
        (lambda v: ProblemSpec(cone=ConeSpec(3, 1), tau=v, domain=Ball(1.0),
                               delta=0.1), "tau"),
        (lambda v: ConeSpec(3, 1, v), "tau"),
        (lambda v: Ball(v), "radius"),
        (lambda v: Annulus(v, 2.0), "inner"),
        (lambda v: Annulus(0.5, v), "outer"),
    ], ids=["problem-tau", "cone-tau", "ball-radius", "inner", "outer"])
    @pytest.mark.parametrize("bad", [True, "1", None, 1j],
                             ids=["bool", "str", "none", "complex"])
    def test_fields_must_be_real_numbers(self, make, name, bad):
        with pytest.raises(InvalidArgumentError, match=name):
            make(bad)

    @pytest.mark.parametrize("delta", [1, np.float32(0.5), np.float64(0.1)],
                             ids=["int", "float32", "float64"])
    def test_delta_is_stored_as_float(self, delta):
        spec = ball_spec(delta=delta)
        assert type(spec.delta) is float and spec.delta == float(delta)

    @pytest.mark.parametrize("domain, quantity", [
        (Ball(1e200), "h^2 overflows"),
        (Ball(1e-200), "h^2 underflows"),
        (Annulus(1e150, 2e150), "r^(2-n) underflows"),
        (Annulus(1e-60, 1.0), "r^(2-n) overflows"),
    ], ids=["ball-huge", "ball-tiny", "annulus-huge", "annulus-tiny-inner"])
    def test_radii_out_of_float_range_are_refused_by_name(self, domain,
                                                          quantity):
        """Refused before any Newton step, naming the radius and the scalar
        of h^2 or the torsion start that left float range; no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError) as err:
                ProblemSpec(cone=ConeSpec(8, 2), tau=0.5, domain=domain,
                            delta=0.1, grid=50)
        message = str(err.value)
        radius = domain.radius if isinstance(domain, Ball) else domain.inner
        assert f"{radius:g}" in message and quantity in message

    def test_tiny_inner_radius_in_float_range_still_converges(self):
        spec = ProblemSpec(cone=ConeSpec(3, 1), tau=0.5,
                           domain=Annulus(1e-60, 1.0), delta=0.1, grid=50)
        assert continuation_tau(spec).converged

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
                           delta=0.1, grid=64)
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
            for check in (residual, newton_solve):
                with pytest.raises(GridMismatchError):
                    check(prof, spec)

    @pytest.mark.parametrize("outer", [1.0, 1e6], ids=["unit", "large"])
    def test_grid_tolerance_is_absolute(self, outer):
        """Radii shifted by 1e-9 or 5e-6 (of the outer radius) are another
        grid, although a relative tolerance of 1e-5 would take them; the
        same linspace rebuilt is the problem's grid."""
        spec = ProblemSpec(cone=ConeSpec(3, 1), tau=0.5,
                           domain=Annulus(0.5 * outer, outer), delta=0.1, grid=50)
        u = initial_profile(spec).u
        rebuilt = np.linspace(0.5 * outer, outer, 51)
        assert np.array_equal(residual(RadialProfile(r=rebuilt, u=u), spec),
                              residual(initial_profile(spec), spec))
        for shift in (1e-9, 5e-6):
            shifted = RadialProfile(r=rebuilt + shift * outer, u=u)
            with pytest.raises(GridMismatchError):
                residual(shifted, spec)

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


def _fd_jacobian(u, spec: ProblemSpec, r, cone: ConeSpec):
    """Tridiagonal Jacobian by central differences (oracle for the analytic one).

    Curtis-Powell-Reid colouring: columns j and j + 3 touch disjoint rows
    of a tridiagonal matrix, so one difference per colour c = j mod 3
    recovers every column of that colour.  The difference is the
    fourth-order central one (12 evaluations in all): the u_rr stencil
    scales a step by 1/h^2, and the second-order difference is off by
    about 1e-6 relative at grid 1000.
    """
    m = u.size
    ab = np.zeros((3, m))
    steps = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(u))
    for c in range(3):
        cols = np.arange(c, m, 3)
        e = np.zeros(m)
        e[cols] = steps[cols]
        F = {t: _evaluate(u + t * e, spec, r, cone)[0] for t in (-2, -1, 1, 2)}
        diff = (8.0 * (F[1] - F[-1]) - (F[2] - F[-2])) / 12.0
        # Row j + off of the difference belongs to column j; banded layout
        # stores J[j + off, j] at ab[1 + off, j].
        for off in (-1, 0, 1):
            j = cols[(cols + off >= 0) & (cols + off < m)]
            ab[1 + off, j] = diff[j + off] / steps[j]
    return ab


class TestJacobian:
    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.2)])
    def test_analytic_matches_fd(self, domain, monkeypatch):
        delta = 0.1
        calls = []
        evaluate = _evaluate
        monkeypatch.setitem(globals(), "_evaluate",
                            lambda *args: calls.append(1) or evaluate(*args))
        # (n, k) = (3, 1) and (6, 3) weight the tangential gradient by
        # n - 1 = 2 and 5, so a wrong multiplicity cannot hide behind n - 1 = 3.
        for (n, k), grid in itertools.product([(4, 2), (3, 1), (6, 3)], [24, 1000]):
            spec = ProblemSpec(cone=ConeSpec(n, k), tau=0.8, domain=domain,
                               delta=delta, grid=grid)
            # an iterate that is admissible for the deformed cone
            prof = continuation_tau(spec).profile
            r = spec.radii()
            cone = spec.solve_cone()
            _, _, state = _evaluate(prof.u, spec, r, cone)
            ja = _analytic_jacobian(prof.u, spec, r, cone, state)
            calls.clear()
            jf = _fd_jacobian(prof.u, spec, r, cone)
            assert len(calls) == 12     # three colours, four evaluations each
            scale = np.max(np.abs(jf))
            assert np.max(np.abs(ja - jf)) / scale < 1e-6, (n, k, grid)


# _analytic_jacobian as it was before it built its bands in place.  The
# rewrite keeps the operation order, so it must give the same bits.
def pre_inplace_jacobian(u, spec, r, cone, state):
    val, du, d2u, grads = state[:4]
    h = r[1] - r[0]
    rows = solver._pde_rows(spec)
    gR = grads[:, 0]
    gT = (cone.n - 1) * grads[:, 1]
    ab = np.zeros((3, u.size))
    ab[1, 0] = ab[1, -1] = 1.0
    if rows.start == 0:
        gsum = gR[0] + gT[0]
        ab[1, 0] = gsum * (-d2u[0] + 2.0 * val[0] / h**2)
        ab[0, 1] = gsum * (-2.0 * val[0] / h**2)
    stop = rows.stop
    s = slice(1 - rows.start, None)
    val, du, d2u, gR, gT = val[s], du[s], d2u[s], gR[s], gT[s]
    rr = r[1:stop]
    diag, sup, sub = ab[1, 1:stop], ab[0, 2:stop + 1], ab[2, :stop - 1]
    np.multiply(gR, -d2u + 2.0 * val / h**2, out=diag)
    diag += gT * (-du / rr)
    du_2h, val_h2 = du / (2 * h), val / h**2
    np.multiply(gR, du_2h - val_h2, out=sup)
    np.multiply(gR, -du_2h - val_h2, out=sub)
    tangential = gT * ((du - val / rr) / (2 * h))
    sup += tangential
    sub -= tangential
    return ab


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


class TestInPlaceStages:
    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.2)],
                             ids=["ball", "annulus"])
    @pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (6, 3)])
    def test_jacobian_keeps_its_bits(self, domain, n, k):
        """The ball's centre row at r = 0 and every annulus row."""
        for grid in (8, 24, 200):
            spec = ProblemSpec(cone=ConeSpec(n, k), tau=0.8, domain=domain,
                               delta=0.1, grid=grid)
            u = continuation_tau(spec).profile.u
            r = spec.radii()
            cone = spec.solve_cone()
            state = _evaluate(u, spec, r, cone)[2]
            assert_same_arrays([_analytic_jacobian(u, spec, r, cone, state)],
                               [pre_inplace_jacobian(u, spec, r, cone, state)])

    @pytest.mark.parametrize("domain, tau", [(Ball(1.0), 0.9),
                                             (Annulus(0.5, 1.0), 0.0)],
                             ids=["ball", "annulus"])
    def test_grid_1e5_evaluation_is_one_blocked_pass(self, domain, tau,
                                                     monkeypatch):
        """At 1e5 rows the cone calls run in blocks: still one cone_margin
        and one _f_and_grad_unchecked call per evaluation, and the bits of
        the single-block pass, through the Jacobian."""
        spec = ProblemSpec(cone=ConeSpec(5, 2), tau=tau, domain=domain,
                           delta=0.05, grid=100_000)
        r = spec.radii()
        cone = spec.solve_cone()
        u = initial_profile(spec).u
        with monkeypatch.context() as m:
            m.setattr(cones, "_BLOCK_ROWS", u.size)
            want = _evaluate(u, spec, r, cone)
        calls = {"cone_margin": 0, "_f_and_grad_unchecked": 0}
        for name in calls:
            def counted(*args, name=name, original=getattr(solver, name)):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(solver, name, counted)
        got = _evaluate(u, spec, r, cone)
        assert calls == {"cone_margin": 1, "_f_and_grad_unchecked": 1}
        assert u.size > 6 * cones._BLOCK_ROWS
        F, margins, state = got
        assert np.all(margins > 0) and state[3] is not None
        assert_same_arrays((F, margins) + state[:3] + state[4:],
                           want[:2] + want[2][:3] + want[2][4:])
        assert_same_arrays([state[3]], [want[2][3]])
        assert_same_arrays([_analytic_jacobian(u, spec, r, cone, state)],
                           [pre_inplace_jacobian(u, spec, r, cone, want[2])])

    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.0)],
                             ids=["ball", "annulus"])
    def test_grad_sup_is_the_stencil_of_the_reported_iterate(self, domain):
        """The report reuses the u_r of the iterate's evaluation: the same
        bits as a stencil of its own."""
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.9, domain=domain,
                           delta=0.05, grid=300)
        rep = continuation_tau(spec)
        du = _radial_stencil(rep.profile.u, spec.radii())[0]
        assert rep.grad_sup == float(np.max(np.abs(du)))


class TestDirichletRows:
    @pytest.mark.parametrize("domain, count", [(Ball(1.0), 1),
                                               (Annulus(0.5, 1.0), 2)],
                             ids=["ball", "annulus"])
    def test_rows_outside_pde_rows_impose_u_minus_delta(self, domain, count):
        """F = u - delta bit for bit and a unit Jacobian row at every row
        that _pde_rows leaves out: the outer node, and on an annulus the
        inner one."""
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.8, domain=domain,
                           delta=0.1, grid=40)
        # Scaling by 1.1 scales every spectrum by 1.21, so u stays admissible
        # while its boundary values move off delta.
        u = 1.1 * continuation_tau(spec).profile.u
        r = spec.radii()
        cone = spec.solve_cone()
        F, margins, state = _evaluate(u, spec, r, cone)
        assert np.all(margins > 0)
        dirichlet = np.ones(u.size, dtype=bool)
        dirichlet[solver._pde_rows(spec)] = False
        assert dirichlet.sum() == count and dirichlet[-1]
        assert F[dirichlet].tobytes() == (u[dirichlet] - spec.delta).tobytes()
        assert np.all(F[dirichlet] != 0)

        ab = _analytic_jacobian(u, spec, r, cone, state)
        J = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
        for i in np.flatnonzero(dirichlet):
            row = np.zeros(u.size)
            row[i] = 1.0
            assert np.array_equal(J[i], row), i


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

    def test_failure_reports_not_converged(self, monkeypatch):
        spec = ball_spec(grid=100)
        prof = initial_profile(replace(spec, tau=0.0))
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERATIONS", 1)
        rep = newton_solve(prof, spec)
        assert rep.newton_iterations == 1
        # one iteration from a rough start cannot reach 1e-10
        assert not rep.converged

    def test_report_names_the_rule_that_stopped_newton(self, monkeypatch):
        """newton_stop is one of four rules, and to_dict() leaves it out.
        On Ball(1e-3) the line search stalls below the rounding floor but
        above NEWTON_TOL: a converged stop at the floor."""
        spec = ball_spec(tau=0.0, grid=100)
        start = initial_profile(spec)
        rep = newton_solve(start, spec)
        assert (rep.converged, rep.newton_stop) == (True, "tolerance")
        assert "newton_stop" not in rep.to_dict()
        small = ProblemSpec(cone=ConeSpec(4, 2), tau=0.0, domain=Ball(1e-3),
                            delta=0.1, grid=50)
        rep = newton_solve(initial_profile(small), small)
        assert (rep.converged, rep.newton_stop) == (True, "rounding floor")
        floor = 4 * np.finfo(float).eps * (rep.c0_bounds[1] / rep.profile.h) ** 2
        assert NEWTON_TOL < rep.residual_sup <= floor
        with monkeypatch.context() as patch:
            patch.setattr(solver, "solve_banded", lambda ab, b: np.full_like(b, np.nan))
            rep = newton_solve(start, spec)
        assert (rep.converged, rep.newton_stop) == (False, "line search")
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERATIONS", 1)
        rep = newton_solve(start, spec)
        assert (rep.converged, rep.newton_stop) == (False, "iteration limit")

    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.0)],
                             ids=["ball", "annulus"])
    def test_one_banded_solve_per_iteration_through_the_module_global(
            self, domain, monkeypatch):
        """newton_solve reaches the banded solve through lnlab.solver's
        global solve_banded, the binding perfbench's tracer wraps."""
        calls = []
        solve = solver.solve_banded

        def counted(ab, b):
            calls.append(ab.shape)
            return solve(ab, b)

        monkeypatch.setattr(solver, "solve_banded", counted)
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.0, domain=domain,
                           delta=0.05, grid=200)
        rep = newton_solve(initial_profile(spec), spec)
        assert rep.converged and rep.newton_iterations > 0
        assert calls == [(3, 201)] * rep.newton_iterations


def random_tridiagonal(m, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((3, m)), rng.standard_normal(m)


class TestBandedSolve:
    """solver.solve_banded, with the dgtsv binding GTSV (lnlab's own choice
    here: numpy's OpenBLAS where numpy's wheel ships one), against
    scipy.linalg.solve_banded((1, 1), ...)."""

    GTSV = solver._gtsv

    @pytest.fixture(autouse=True, scope="class")
    def bound(self, request):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(solver, "_gtsv", request.cls.GTSV)
            yield

    @staticmethod
    def assert_same_as_scipy(ab, b):
        want = scipy.linalg.solve_banded((1, 1), ab, b)
        got = solver.solve_banded(ab.copy(), b.copy())
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(3, 3000), seed=st.integers(0, 2**32 - 1))
    def test_matches_scipy_to_the_bit(self, m, seed):
        self.assert_same_as_scipy(*random_tridiagonal(m, seed))

    def test_matches_scipy_at_1e5_rows(self):
        self.assert_same_as_scipy(*random_tridiagonal(100_000, 7))

    @pytest.mark.parametrize("grid", [1000, 100_000])
    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.0)])
    def test_matches_scipy_on_newton_jacobians(self, domain, grid):
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.5, domain=domain,
                           delta=0.05, grid=grid)
        u, r, cone = initial_profile(spec).u, spec.radii(), spec.solve_cone()
        F, _, state = _evaluate(u, spec, r, cone)
        self.assert_same_as_scipy(_analytic_jacobian(u, spec, r, cone, state), -F)

    def test_solves_in_place(self):
        ab, b = random_tridiagonal(50, 1)
        assert solver.solve_banded(ab, b) is b

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["ab", "b"])
    def test_non_finite_input_is_refused(self, bad, where):
        ab, b = random_tridiagonal(20, 2)
        (ab[1] if where == "ab" else b)[5] = bad
        for solve in (lambda: solver.solve_banded(ab, b),
                      lambda: scipy.linalg.solve_banded((1, 1), ab, b)):
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve()

    def test_singular_matrix_is_refused(self):
        ab, b = random_tridiagonal(5, 3)
        ab[1, 2] = ab[0, 3] = ab[2, 1] = 0.0        # row 2 of the matrix is zero
        for solve in (lambda: solver.solve_banded(ab.copy(), b.copy()),
                      lambda: scipy.linalg.solve_banded((1, 1), ab, b)):
            with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
                solve()
        assert np.linalg.LinAlgError is scipy.linalg.LinAlgError

    @pytest.mark.parametrize("change", [
        lambda ab, b: (ab[:, :-1], b),
        lambda ab, b: (ab, b.astype(np.float32)),
        lambda ab, b: (np.asfortranarray(ab), b),
        lambda ab, b: (ab, np.stack((b, b), axis=1)[:, 0]),
    ], ids=["shapes-disagree", "float32", "fortran-order", "strided"])
    def test_arrays_it_cannot_solve_in_place_are_refused(self, change):
        """gtsv writes the bands and b where they lie, so anything but
        C-contiguous float64 of shapes (3, m) and (m,) is refused."""
        ab, b = change(*random_tridiagonal(20, 4))
        with pytest.raises(ValueError, match="C-contiguous float64"):
            solver.solve_banded(ab, b)

    def test_read_only_arrays_are_refused(self):
        ab, b = random_tridiagonal(20, 5)
        b.flags.writeable = False
        with pytest.raises(ValueError, match="writable"):
            solver.solve_banded(ab, b)


class TestBandedSolveOnScipy(TestBandedSolve):
    """The same checks on scipy's dgtsv, the fallback binding."""

    GTSV = solver._scipy_gtsv

    # hypothesis runs a @given test from one class only, so this one has its own.
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(3, 3000), seed=st.integers(0, 2**32 - 1))
    def test_matches_scipy_to_the_bit(self, m, seed):
        self.assert_same_as_scipy(*random_tridiagonal(m, seed))


def test_numpy_lapack_lookup_finds_nothing_outside_a_wheel(tmp_path, monkeypatch):
    """A numpy without the wheel's OpenBLAS beside it (conda, a distro
    package) binds nothing, and solve_banded keeps scipy's dgtsv."""
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert solver._numpy_gtsv() is None


@pytest.mark.skipif(solver._numpy_gtsv() is None,
                    reason="numpy ships no OpenBLAS with dgtsv")
def test_cli_starts_without_scipy():
    """Where numpy's own dgtsv is bound, importing lnlab.cli loads no scipy
    module: its import was most of every command's start-up."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, lnlab.cli; from lnlab import solver; "
            "print(solver._gtsv is not solver._scipy_gtsv, "
            "sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["True", "[]"]


def annulus_spec(n, k, tau, inner, delta=0.1, grid=200):
    return ProblemSpec(cone=ConeSpec(n, k), tau=tau, domain=Annulus(inner, 1.0),
                       delta=delta, grid=grid)


class TestInitialProfile:
    def test_ball_start_is_the_hyperbolic_model(self):
        spec = ball_spec(delta=0.05, grid=100)
        r = spec.radii()
        u = initial_profile(spec).u
        assert u.tobytes() == ((1.0**2 - r**2) / (2.0 * 1.0) + 0.05).tobytes()

    @pytest.mark.parametrize("n", [3, 5, 12])
    def test_annulus_start_is_the_scaled_torsion_function(self, n):
        """u = delta on both spheres, slope -1 at the outer one, and
        Delta u = -2n / |w'(b)| constant inside."""
        spec = annulus_spec(n, 1, 0.0, 0.3, delta=0.2, grid=4000)
        r = spec.radii()
        u = initial_profile(spec).u
        assert u[0] == pytest.approx(0.2, abs=1e-14) and u[-1] == 0.2
        du = np.gradient(u, r, edge_order=2)
        assert du[-1] == pytest.approx(-1.0, abs=1e-6)
        lap = np.gradient(du, r, edge_order=2) + (n - 1) * du / r
        assert lap[10:-10] == pytest.approx(lap[-10], rel=1e-3)

    def test_initial_profile_evaluates_no_operator(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("initial_profile called the operator")
        for name in ("_evaluate", "cone_margin", "_f_and_grad_unchecked"):
            monkeypatch.setattr(solver, name, refuse)
        initial_profile(annulus_spec(8, 2, 0.0, 0.1))

    def test_start_margins_exceed_floor_on_the_box(self):
        """sigma_1 > 0 holds for the torsion start in the continuum; at grid
        1000 the discrete margins clear MARGIN_FLOOR on n <= 12, inner radius
        0.05 .. 0.99 and delta 1e-4 .. 10.  At tau = 0 the margin does not
        depend on k."""
        for n, inner, delta in itertools.product(
                range(3, 13), np.geomspace(0.05, 0.99, 7), np.geomspace(1e-4, 10, 6)):
            spec = annulus_spec(n, 1, 0.0, float(inner), float(delta), grid=1000)
            margins = _evaluate(initial_profile(spec).u, spec, spec.radii(),
                                spec.solve_cone())[1]
            assert margins.min() > MARGIN_FLOOR, (n, inner, delta)

    def test_unresolved_inner_radius_is_named(self):
        """At grid 200 an inner radius of 0.01 is half a grid step: the
        discrete start leaves the cone next to it, and the error says so."""
        with pytest.raises(InadmissibleIterateError,
                           match=r"does not resolve the inner radius "
                                 r"\(worst node 2, r = 0.0199, margin .*, "
                                 r"h/inner = 0.495\)") as err:
            continuation_tau(annulus_spec(8, 1, 0.5, 0.01))
        assert err.value.worst_node == 2 and err.value.margin < 0


    @pytest.mark.parametrize("n, radius", [(8, 1e-150), (3, 1e-100)])
    def test_tiny_ball_start_names_the_rounded_bump(self, n, radius):
        """A ball far smaller than delta: the bump b/2 of the start is below
        delta's rounding, so the start is the constant delta in floats and
        every spectrum is 0.  The error names that cause."""
        spec = ProblemSpec(ConeSpec(n, 1), 0.5, Ball(radius), 0.1, grid=50)
        with pytest.raises(InadmissibleIterateError,
                           match=rf"start is inadmissible: its bump b/2 rounds "
                                 rf"away against delta \(ball radius {radius:g}, "
                                 rf"delta 0.1, b/\(2 delta\) = {radius / 0.2:.3g}, "
                                 rf"worst node 0, margin 0.000e\+00\)") as err:
            continuation_tau(spec)
        assert err.value.worst_node == 0 and err.value.margin == 0.0

    def test_cancelling_torsion_start_is_named(self):
        """A thin annulus at a tiny datum: b^2 - r^2 + Q (r^(2-n) - b^(2-n))
        cancels below zero in floats, and the error names the radii, n,
        delta, the grid and the node with its start value."""
        spec = ProblemSpec(ConeSpec(6, 1), 0.5,
                           Annulus(2.3512740663052053e-58, 3.7274598712693967e-44),
                           1.0122155116797562e-241, grid=1000)
        with pytest.raises(InvalidProfileError,
                           match=r"^the torsion start is not positive: annulus "
                                 r"radii \(2.35127e-58, 3.72746e-44\), n = 6, "
                                 r"delta 1.01222e-241, grid 1000: at node 0 "
                                 r"\(r = 2.35127e-58\) .* cancels in floats to a "
                                 r"start value -\d\.\d{3}e-\d+$"):
            initial_profile(spec)
        with pytest.raises(InvalidProfileError, match="torsion start"):
            continuation_tau(spec)

    @pytest.mark.parametrize("n", [8, 3])
    def test_normal_ball_start_is_unaffected(self, n):
        spec = ProblemSpec(ConeSpec(n, 1), 0.5, Ball(1.0), 0.1, grid=50)
        rep = continuation_tau(spec)
        assert rep.converged and rep.admissibility_margin_min > MARGIN_FLOOR


# Every refusal of continuation_tau names one of these causes.
CAUSES = ("does not resolve the inner radius", "the step left the cone",
          "line search found no admissible descent step",
          "iteration limit reached")


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

    def test_annulus(self):
        spec = ProblemSpec(cone=ConeSpec(3, 2), tau=0.9,
                           domain=Annulus(0.5, 1.0), delta=0.05, grid=200)
        rep = continuation_tau(spec)
        assert rep.converged
        assert rep.admissibility_margin_min > 0

    def test_inner_radius_point_one_in_dimension_five(self):
        """n >= 5 on [0.1, 1]: the start is admissible and the solve converges."""
        rep = continuation_tau(annulus_spec(5, 2, 0.9, 0.1))
        assert rep.converged and rep.residual_sup <= NEWTON_TOL

    def test_annulus_sweep_converges_or_names_the_cause(self):
        """A seeded draw from the annulus box at grid 200, plus n = 5, 6, 8 on
        [0.1, 1]: each run converges or its error names one of CAUSES.  Inner
        radii the grid does not resolve have their own test: there the step
        halvings can take seconds."""
        rng = np.random.default_rng(0)
        configs = [(n, int(rng.integers(1, n + 1)), 0.9, 0.1) for n in (5, 6, 8)]
        for _ in range(30):
            n = int(rng.integers(3, 9))
            configs.append((n, int(rng.integers(1, n + 1)),
                            float(rng.choice([0.5, 0.9, 0.99])),
                            float(rng.choice([0.1, 0.5, 0.9]))))
        for config in configs:
            try:
                assert continuation_tau(annulus_spec(*config)).converged, config
            except LnlabError as err:
                assert any(cause in str(err) for cause in CAUSES), (config, err)

    def test_start_problem_failure_names_the_newton_stop(self, monkeypatch):
        """A banded solve that returns NaN leaves no positive trial step, so
        the line search fails at the start's residual, far above the
        rounding floor; then a cut at one iteration."""
        spec = ball_spec(grid=100)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "solve_banded", lambda ab, b: np.full_like(b, np.nan))
            with pytest.raises(ContinuationStallError,
                               match=r"after 1 iterations, above tol 1.0e-10 \(line "
                                     r"search found no admissible descent step\)"):
                continuation_tau(spec)
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERATIONS", 1)
        with pytest.raises(ContinuationStallError,
                           match=r"the tau = 0 start problem did not converge: "
                                 r"Newton stopped at residual_sup \S+ after 1 "
                                 r"iterations, above tol 1.0e-10 "
                                 r"\(iteration limit reached\)"):
            continuation_tau(spec)

    def test_small_ball_stop_names_the_rounding_floor(self, monkeypatch):
        """On Ball(1e-3) the operator's size grows as 1/b^2, and so does the
        rounding floor 4*eps*max(u)^2/h^2 of its residual.  Cut at two
        iterations, which the floor does not rescue, the start problem
        stops above the default tol, and the message names a floor above
        tol, within a factor of 10 of the residual it stopped at."""
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.95, domain=Ball(1e-3),
                           delta=0.1, grid=1000)
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERATIONS", 2)
        with pytest.raises(ContinuationStallError) as err:
            continuation_tau(spec)
        found = re.search(r"residual_sup (\S+) .*\); "
                          r"rounding floor 4\*eps\*max\(u\)\^2/h\^2 = (\S+)$",
                          str(err.value))
        assert found, str(err.value)
        res, floor = (float(x) for x in found.groups())
        assert floor > NEWTON_TOL
        assert floor / 10 < res < 10 * floor

    def test_stall_names_the_refused_tau_and_the_cause(self):
        """(8, 8) on [0.1, 1] reaches the cone boundary before tau = 0.9."""
        with pytest.raises(ContinuationStallError,
                           match=r"stalled at tau = 0\.85\d*: tau = 0\.85\d* "
                                 r"refused, the step left the cone "
                                 r"\(worst node \d+, margin \S+\)"):
            continuation_tau(annulus_spec(8, 8, 0.9, 0.1))

    def test_target_on_the_step_grid_is_solved_once(self):
        """arange(0.05, 0.2, 0.05) already ends on 0.2 in floating point;
        the schedule is 0.05, 0.1, 0.15, 0.2 and no second solve at 0.2."""
        spec = ProblemSpec(cone=ConeSpec(3, 1), tau=0.2,
                           domain=Annulus(0.5, 1.0), delta=0.05, grid=100)
        rep = continuation_tau(spec)
        assert rep.converged and rep.continuation_steps == 4

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
        assert sweep.deltas == list(DELTA_SCHEDULE)
        assert sweep.monotonicity_max_violation == 0.0
        # interior values stabilize as delta -> 0
        assert sweep.interior_sup_diffs[-1] < sweep.interior_sup_diffs[0]
        final = sweep.reports[-1]
        assert abs(final.boundary_slope - 1.0) < 0.01
        assert final.boundary_slope == boundary_slope(final.profile)

    def test_sweeps_the_fixed_schedule(self):
        """Every sweep runs the same 11 legs: 0.1 * 2^-i for i < 10, then
        1e-4, whatever spec.delta is."""
        sweep = continuation_delta(ball_spec(delta=0.7, grid=50))
        assert sweep.ok
        assert sweep.deltas == [0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125,
                                0.0015625, 0.00078125, 0.000390625,
                                0.0001953125, 1e-4]
        assert [rep.profile.u[-1] for rep in sweep.reports] == sweep.deltas

    def test_rejects_target_one(self):
        """The first leg's tau continuation refuses tau = 1; the sweep does
        not swallow that as a failed leg."""
        with pytest.raises(InvalidArgumentError, match="target tau must be < 1"):
            continuation_delta(ball_spec(tau=1.0, grid=24))


def same_report(a, b):
    """Equal scalar fields, Newton stops and node arrays, bit for bit."""
    return (a.to_dict() == b.to_dict() and a.newton_stop == b.newton_stop
            and all(np.array_equal(x, y) for x, y in (
                (a.profile.u, b.profile.u), (a.residual_nodes, b.residual_nodes),
                (a.margin_nodes, b.margin_nodes))))


class TestDeltaFallback:
    """continuation_delta falls back to a fresh tau continuation when a
    leg's warm start fails, and records the first leg where that fails too."""

    SPEC = ball_spec(grid=50)
    LEG = 3

    @pytest.fixture
    def inadmissible_blend(self, monkeypatch):
        """_blend_boundary hands leg LEG a constant start, whose spectra are
        0: newton_solve refuses it as inadmissible."""
        blend = solver._blend_boundary

        def patched(profile, spec_next):
            if spec_next.delta == DELTA_SCHEDULE[self.LEG]:
                return RadialProfile(r=profile.r, u=np.ones_like(profile.u))
            return blend(profile, spec_next)

        monkeypatch.setattr(solver, "_blend_boundary", patched)

    def test_failed_warm_start_falls_back_to_tau_continuation(self, inadmissible_blend):
        sweep = continuation_delta(self.SPEC)
        assert sweep.ok and sweep.deltas == list(DELTA_SCHEDULE)
        leg_spec = replace(self.SPEC, delta=DELTA_SCHEDULE[self.LEG])
        fresh = continuation_tau(leg_spec)
        assert same_report(sweep.reports[self.LEG], fresh)
        assert fresh.continuation_steps > 0

    def test_failed_fallback_ends_the_sweep_at_that_leg(self, inadmissible_blend,
                                                        monkeypatch):
        clean = continuation_delta(self.SPEC)
        fallback = solver.continuation_tau

        def stalled(spec, opts=None):
            if spec.delta == DELTA_SCHEDULE[self.LEG]:
                raise ContinuationStallError("stalled")
            return fallback(spec, opts)

        monkeypatch.setattr(solver, "continuation_tau", stalled)
        sweep = continuation_delta(self.SPEC)
        assert not sweep.ok and sweep.failed_delta == DELTA_SCHEDULE[self.LEG]
        assert sweep.deltas == list(DELTA_SCHEDULE[:self.LEG])
        assert len(sweep.reports) == self.LEG
        assert all(same_report(a, b) for a, b in zip(sweep.reports, clean.reports))
        assert sweep.interior_sup_diffs == clean.interior_sup_diffs[:self.LEG - 1]


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
        assert comparison_check(a, b)
        assert comparison_check(a, b)       # b >= a, read as a <= b
        assert not comparison_check(b, a)
        with pytest.raises(GridMismatchError):
            comparison_check(a, RadialProfile(r=r[:-1], u=b.u[:-1]))

    def test_node_margins_positive_on_solution(self):
        """The report's per-node margins: positive on every PDE row (all
        but the outer node on a ball), 0 on the Dirichlet row."""
        spec = ball_spec(grid=100)
        rep = continuation_tau(spec)
        assert np.all(rep.margin_nodes[:-1] > 0) and rep.margin_nodes[-1] == 0
        assert rep.admissibility_margin_min == rep.margin_nodes[:-1].min()


class TestComparisonTheorems:
    def test_barrier_dominates_solution(self):
        """The explicit barrier is a supersolution: the solved profile with
        matching boundary data stays below it."""
        spec = ball_spec(n=3, k=1, tau=0.9, delta=0.05, grid=200)
        rep = continuation_tau(spec)
        r = spec.radii()
        barrier = RadialProfile(r=r, u=(1 - r**2) / 2 + 0.05)
        assert comparison_check(rep.profile, barrier)

    def test_tau_ordering(self):
        spec0 = ball_spec(tau=0.0, grid=150)
        base = continuation_tau(spec0)
        high = continuation_tau(replace(spec0, tau=0.9))
        assert comparison_check(base.profile, high.profile)


# Verbatim copy of SolveReport.to_csv before it filled one row template per
# report: the CSV bytes must not change.
def reference_to_csv(self):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["r", "u", "residual", "margin"])
    for i in range(self.profile.r.size):
        writer.writerow([format(x, ".17g") for x in
                         (self.profile.r[i], self.profile.u[i],
                          self.residual_nodes[i], self.margin_nodes[i])])
    return buf.getvalue()


def special_values_report():
    """A report whose columns hold values a float writer can get wrong."""
    odd = [np.inf, np.nan, -0.0, 5e-324, 1e22, 1 / 3]
    profile = RadialProfile(r=np.linspace(0.0, 1.0, 6),
                            u=[1 / 3, 1e22, 5e-324, 0.1, 2 / 3, -0.0])
    return SolveReport(profile=profile, residual_sup=np.inf,
                       admissibility_margin_min=-np.inf, boundary_slope=np.nan,
                       c0_bounds=(0.0, 1e22), grad_sup=np.inf,
                       newton_iterations=0, continuation_steps=0,
                       converged=False, tau=0.5, delta=0.1,
                       residual_nodes=np.array(odd),
                       margin_nodes=-np.array(odd[::-1]),
                       newton_stop="line search")


class TestReport:
    def test_json_roundtrip_and_determinism(self):
        spec = ball_spec(grid=100)
        a = continuation_tau(spec)
        b = continuation_tau(spec)
        text = _format17(a.to_dict())
        assert text == _format17(b.to_dict())
        payload = json.loads(text)
        assert payload == a.to_dict()       # 17 digits read back bit for bit
        assert payload["converged"] is True
        assert "r" not in payload

    @pytest.mark.parametrize("delta", [0.05, 1e-4])
    def test_ball_grad_sup_is_exact(self, delta):
        """The ball solution A - r^2 / (4A), A = (delta + sqrt(delta^2 + 1)) / 2,
        is quadratic, so the second-order stencil gives sup|u'| = 1 / (2A)."""
        rep = continuation_tau(ball_spec(delta=delta, grid=100))
        A = (delta + np.sqrt(delta**2 + 1)) / 2
        assert rep.grad_sup == pytest.approx(1 / (2 * A), abs=1e-12)

    def test_csv_columns(self):
        spec = ball_spec(grid=50)
        rep = continuation_tau(spec)
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "r,u,residual,margin"
        assert len(lines) == 52

    def test_csv_matches_reference_writer(self):
        annulus = ProblemSpec(cone=ConeSpec(4, 2), tau=0.9,
                              domain=Annulus(0.5, 1.0), delta=0.05, grid=60)
        reports = [continuation_tau(ball_spec(grid=50)),
                   continuation_tau(annulus), special_values_report()]
        for rep in reports:
            text = rep.to_csv()
            assert text == reference_to_csv(rep)
            back = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1,
                              ndmin=2)
            written = np.stack((rep.profile.r, rep.profile.u,
                                rep.residual_nodes, rep.margin_nodes), axis=1)
            nan = np.isnan(written)
            assert np.array_equal(np.isnan(back), nan)
            assert np.array_equal(back.view(np.int64)[~nan],
                                  written.view(np.int64)[~nan])


def format17_rows(table):
    """The CSV rows of a float table through CPython's correctly rounded
    format(x, ".17g"), value by value: the oracle of _csv17.rows."""
    return "".join(",".join(format(float(v), ".17g") for v in row) + "\n"
                   for row in table)


def assert_rows_match_format(values, cols=4):
    """values (padded with 1.0 to whole rows) written by _csv17.rows are
    format()'s bytes."""
    values = np.asarray(values, dtype=np.float64).ravel()
    table = np.concatenate((values, np.ones(-values.size % cols))).reshape(-1, cols)
    assert _csv17.rows(table) == format17_rows(table)


def ties():
    """Doubles with 18 significant digits ending in 5, which format() rounds
    half to even at 17: 10^d + k 2^(d-17) for odd k, d = 0 .. 4 (each has
    17 - d decimals after d + 1 integer digits), and their negatives."""
    out = [10.0**d + k * 2.0**(d - 17) for d in range(5)
           for k in (1, 3, 5, 7, 9, 11, 2**15 + 1, 2**16 - 1)]
    for x in out:
        digits = Decimal(x).as_tuple().digits       # exact
        assert len(digits) == 18 and digits[-1] == 5
    return out + [-x for x in out]


class TestCsvDigits:
    """_csv17.rows, the text of SolveReport.to_csv, against format()."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=40),
           cols=st.integers(1, 4))
    def test_any_float(self, values, cols):
        """nan, +-inf, subnormals and -0.0 included."""
        assert_rows_match_format(values, cols)

    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_raw_bit_patterns(self, bits):
        assert_rows_match_format(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_powers_of_ten_and_their_neighbours(self):
        """k 10^j and 10^j +- 1 ulp at every decimal exponent, inside and
        outside the double-double window."""
        tens = np.array([float(f"1e{j}") for j in range(-323, 309)])
        multiples = np.array([float(f"{k}e{j}") for j in range(-320, 308)
                              for k in (1, 2, 5, 9, 12, 99, 125, 999)])
        for values in (tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
                       multiples, -multiples):
            assert_rows_match_format(values)

    def test_exact_ties_round_half_even(self):
        assert_rows_match_format(ties())
        assert _csv17.rows(np.array([[1 + 2**-17, 1 + 3 * 2**-17]])) == (
            "1.0000076293945312,1.0000228881835938\n")

    @pytest.mark.parametrize("start, stop", [(0.0, 1.0), (0.5, 1.0), (1e-3, 7.0),
                                             (-3.0, 1e5)])
    def test_linspace_grids(self, start, stop):
        for nodes in (11, 1001, 4097):
            r = np.linspace(start, stop, nodes)
            assert_rows_match_format(np.stack((r, r**2, r / 3, -r), axis=1))

    @pytest.mark.parametrize("rows", [2, 3, 4, 11])
    def test_row_blocks(self, monkeypatch, rows):
        """B - 1, B, B + 1 and 3B + 2 rows with the block constant B = 3;
        every block holds zeros and non-finite values that format() writes."""
        monkeypatch.setattr(_csv17, "_BLOCK_ROWS", 3)
        rng = np.random.default_rng(rows)
        table = rng.normal(size=(rows, 4)) * 10.0 ** rng.integers(-30, 30, (rows, 4))
        table[:, 1] = np.resize([0.0, -np.inf, np.nan], rows)
        table[::2, 2] = 5e-324
        assert _csv17.rows(table) == format17_rows(table)

    def test_power_table_is_correctly_rounded(self):
        """Column i holds 10^(16 - p), p = _P_MIN - 1 + i, as the correctly
        rounded hi, its Veltkamp split hi1 + hi2 and the correctly rounded
        remainder lo, and 10^(p + 1) rounded; one ulp off in any lo fails
        here."""
        hi, hi1, hi2, lo = _csv17._POW10_PARTS
        assert hi.size == _csv17._P_MAX - _csv17._P_MIN + 3
        for i, p in enumerate(range(_csv17._P_MIN - 1, _csv17._P_MAX + 2)):
            exact = Fraction(10)**(16 - p)
            assert hi[i] == float(exact)
            assert Fraction(hi[i]) == Fraction(hi1[i]) + Fraction(hi2[i])
            assert lo[i] == float(exact - Fraction(hi[i]))
            assert _csv17._POW10_NEXT[i] == float(Fraction(10)**(p + 1))
