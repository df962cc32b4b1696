"""Solver: residual oracles, Newton, Jacobian, continuation, comparison tools."""

import csv
import ctypes
import functools
import importlib
import importlib.util
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lnlab import (Annulus, Ball, ConeSpec, ProblemSpec, RadialProfile,
                   boundary_slope, comparison_check, continuation_delta,
                   continuation_tau, initial_profile, newton_solve, residual)
from lnlab import _csv17, cones, solver
from lnlab.cli import _format17
from lnlab.solver import (DELTA_SCHEDULE, MARGIN_FLOOR, NEWTON_TOL, SolveReport,
                          _analytic_jacobian, _evaluate)
from lnlab.schouten import _eigenpair, _radial_stencil
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

    @pytest.mark.parametrize("bad", [-0.1, -1e-300, -np.inf, np.nan, np.inf],
                             ids=["negative", "tiny-negative", "-inf", "nan", "inf"])
    def test_delta_must_be_finite_and_nonnegative(self, bad):
        """RadialProfile's rule for boundary values: finite and >= 0."""
        for domain in (Ball(1.0), Annulus(0.5, 1.0)):
            with pytest.raises(InvalidArgumentError,
                               match="^boundary datum delta must be finite and >= 0"):
                ProblemSpec(cone=ConeSpec(3, 1), tau=0.5, domain=domain, delta=bad)

    @pytest.mark.parametrize("zero", [0, 0.0, -0.0, np.float64(-0.0), np.float32(-0.0)],
                             ids=["int", "float", "-float", "-float64", "-float32"])
    def test_zero_delta_is_stored_as_positive_zero(self, zero):
        """delta = -0.0 is stored as +0.0, so no report, JSON or CSV of a
        solve at that datum prints -0."""
        spec = ball_spec(tau=0.5, delta=zero, grid=40)
        assert type(spec.delta) is float and spec.delta == 0.0
        assert not np.signbit(spec.delta)
        rep = continuation_tau(spec)
        assert rep.converged and not np.signbit(rep.delta)
        assert not np.signbit(rep.profile.u).any()
        assert not np.signbit(rep.residual_nodes).any()
        text = rep.to_csv() + json.dumps(rep.to_dict())
        assert "-0" not in text.replace("e-0", "e")

    @pytest.mark.parametrize("delta", [1, np.float32(0.5), np.float64(0.1)],
                             ids=["int", "float32", "float64"])
    def test_delta_is_stored_as_float(self, delta):
        spec = ball_spec(delta=delta)
        assert type(spec.delta) is float and spec.delta == float(delta)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       np.uint8, np.uint16, np.uint32, np.uint64])
    def test_numpy_integer_grid_at_its_largest_value(self, dtype):
        """A NumPy integer grid is stored as a Python int, so grid + 1 does
        not wrap around: int8(127) gives 128 radii, not "-128 samples".
        Grids whose radii numpy cannot allocate are refused by name; radii
        are built only up to 65536 of them.  No warning either way."""
        grid = dtype(np.iinfo(dtype).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if (int(grid) + 1) * 8 > np.iinfo(np.intp).max:
                with pytest.raises(InvalidArgumentError, match=f"^grid {grid} is too large"):
                    ball_spec(grid=grid)
                return
            for domain in (Ball(1.0), Annulus(0.5, 1.0)):
                spec = ProblemSpec(cone=ConeSpec(3, 1), tau=0.5, domain=domain,
                                   delta=0.1, grid=grid)
                assert type(spec.grid) is int and spec.grid == int(grid)
                if grid <= 65535:
                    r = spec.radii()
                    assert r.size == int(grid) + 1 and r[-1] == 1.0

    @pytest.mark.parametrize("domain, quantity", [
        (Ball(1e200), "h^2 overflows"),
        (Ball(1e-200), "h^2 underflows"),
        (Annulus(1e200, 2e200), "h^2 overflows"),
        (Annulus(1e-200, 2e-200), "h^2 underflows"),
    ], ids=["ball-huge", "ball-tiny", "annulus-huge", "annulus-tiny-inner"])
    def test_radii_out_of_float_range_are_refused_by_name(self, domain,
                                                          quantity):
        """Refused before any Newton step, naming the radius and h^2, which
        the stencils divide by, when it leaves float range; no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError) as err:
                ProblemSpec(cone=ConeSpec(8, 2), tau=0.5, domain=domain,
                            delta=0.1, grid=50)
        message = str(err.value)
        radius = domain.radius if isinstance(domain, Ball) else domain.inner
        assert f"{radius:g}" in message and quantity in message

    @pytest.mark.parametrize("n, domain", [
        (8, Annulus(1e150, 2e150)), (8, Annulus(1e-60, 1.0)),
        (3, Annulus(1e24, 1.5e24)),
    ], ids=["huge", "tiny-inner", "thin-huge"])
    def test_annulus_radii_far_from_one_converge(self, n, domain):
        """The discrete start is formed from grid-sized numbers: radii whose
        continuum torsion scalars r^(2-n) left float range, or cancelled to a
        start below zero, are accepted and converge; no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = ProblemSpec(cone=ConeSpec(n, 1), tau=0.5, domain=domain,
                               delta=0.1, grid=50)
            rep = continuation_tau(spec)
        assert rep.converged and rep.profile.u[0] == rep.profile.u[-1] == 0.1

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

    def test_tiny_radius_grids_are_told_apart(self):
        """The tolerance scales with the outer radius below 1 too: a profile
        on Annulus(1e-14, 2e-14) is not on the grid of Annulus(3e-14,
        4e-14), while the grid of an annulus of outer radius 1e-6, each
        radius moved by one ulp, still is."""
        spec = ProblemSpec(cone=ConeSpec(3, 1), tau=0.0, domain=Annulus(3e-14, 4e-14),
                           delta=0.1, grid=50)
        other = initial_profile(replace(spec, domain=Annulus(1e-14, 2e-14)))
        for check in (residual, newton_solve):
            with pytest.raises(GridMismatchError):
                check(other, spec)
        small = replace(spec, domain=Annulus(5e-7, 1e-6))
        r = np.nextafter(small.radii(), 1.0)
        assert np.array_equal(residual(RadialProfile(r=r, u=initial_profile(small).u), small),
                              residual(initial_profile(small), small))

    def test_margin_at_or_below_the_floor_is_refused(self):
        """The one admissibility rule: a profile whose smallest PDE-row
        margin lies in (0, MARGIN_FLOOR] is refused, by residual() as by
        newton_solve, and both name its node.  A solution with a dent at
        node 9, scaled by c, whose square scales its spectra, at the datum
        c * delta: node 9's margin is 5e-13 and every other one above the
        floor."""
        spec = ProblemSpec(cone=ConeSpec(3, 1), tau=0.9,
                           domain=Annulus(0.5, 1.0), delta=0.05, grid=32)
        r, cone = spec.radii(), spec.solve_cone()
        u = continuation_tau(spec).profile.u
        u[9] *= 0.995
        rows = solver._pde_rows(spec)

        def margins(u):
            du, d2u = _radial_stencil(u, r)
            lam = _eigenpair(u[rows], du[rows], d2u[rows], r[rows]).T
            return np.atleast_1d(cones.cone_margin(cone, lam))

        c = np.sqrt(5e-13 / margins(u).min())
        u *= c
        spec = replace(spec, delta=c * spec.delta)
        assert u[0] == u[-1] == spec.delta
        low = margins(u)
        assert (rows.start + np.flatnonzero(low <= MARGIN_FLOOR)).tolist() == [9]
        assert 0.0 < low.min() <= MARGIN_FLOOR
        prof = RadialProfile(r=r, u=u)
        for check in (residual, newton_solve):
            with pytest.raises(InadmissibleIterateError) as err:
                check(prof, spec)
            assert (err.value.worst_node, err.value.margin) == (9, low.min())

    def test_profile_changed_to_non_positive_is_refused_by_name(self):
        """A RadialProfile's u set to <= 0 on a PDE row after its checks:
        residual() and newton_solve refuse it as an invalid profile, since
        it has no spectrum to name a margin from."""
        spec = ProblemSpec(cone=ConeSpec(3, 1), tau=0.5, domain=Annulus(0.5, 1.0),
                           delta=0.1, grid=20)
        for value in (0.0, -1.0):
            prof = initial_profile(spec)
            prof.u[5] = value
            for check in (residual, newton_solve):
                with pytest.raises(InvalidProfileError, match="not positive on a PDE row"):
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
            _, _, grads = _evaluate(prof.u, spec, r, cone)
            ja = _analytic_jacobian(prof.u, spec, r, cone, grads)
            calls.clear()
            # The PDE rows' block: a Dirichlet row's off-diagonal entries
            # are 0, so the corners of the block's bands are 0 as well.
            jf = _fd_jacobian(prof.u, spec, r, cone)[:, solver._pde_rows(spec)]
            assert len(calls) == 12     # three colours, four evaluations each
            assert ja.shape == jf.shape
            scale = np.max(np.abs(jf))
            assert np.max(np.abs(ja - jf)) / scale < 1e-6, (n, k, grid)


def dense_stencils(grid, ball):
    """D1 and D2, _radial_stencil's central stencils times 2h and h^2, as
    dense (grid + 1)^2 matrices, with the centre rule D1 = 0, D2 = (-2, 2)
    in row 0 on a ball.  The boundary rows are left at 0."""
    D1, D2 = np.zeros((2, grid + 1, grid + 1))
    for i in range(1, grid):
        D1[i, i - 1:i + 2] = (-1.0, 0.0, 1.0)
        D2[i, i - 1:i + 2] = (1.0, -2.0, 1.0)
    if ball:
        D2[0, :2] = (-2.0, 2.0)
    return D1, D2


@settings(max_examples=60, deadline=None)
@given(ball=st.booleans(), grid=st.integers(8, 300), seed=st.integers(0, 2**32 - 1))
def test_stencil_bands_are_the_dense_stencil_sum(ball, grid, seed):
    """_stencil_bands(ab, p, s, rows), with q in ab's row 1 and scratch in
    its other rows, is diag(p) D1 + diag(q) D2 + diag(s) on the PDE rows
    and columns, value for value, on its three bands; the corners gtsv
    ignores are 0."""
    spec = ProblemSpec(cone=ConeSpec(3, 1), tau=0.0, delta=0.1, grid=grid,
                       domain=Ball(1.0) if ball else Annulus(0.5, 1.0))
    rows = solver._pde_rows(spec)
    rng = np.random.default_rng(seed)
    m = rows.stop - rows.start
    p, q, s = rng.standard_normal((3, m)) * 10.0 ** rng.integers(-8, 9, (3, m))
    D1, D2 = (D[rows, rows] for D in dense_stencils(grid, ball))
    dense = p[:, None] * D1 + q[:, None] * D2 + np.diag(s)
    ab = np.full((3, m), np.nan)
    ab[1] = q
    assert solver._stencil_bands(ab, p, s, rows) is ab
    assert ab.shape == (3, m) and ab[0, 0] == ab[2, -1] == 0.0
    assert np.array_equal(ab[0, 1:], np.diag(dense, 1))
    assert np.array_equal(ab[1], np.diag(dense))
    assert np.array_equal(ab[2, :-1], np.diag(dense, -1))


# _analytic_jacobian as it was before it built its bands in place, with a unit
# row per Dirichlet row.  Its PDE rows' block is the reference for today's
# bands from _stencil_bands, which sum the same terms in another order.
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


# _analytic_jacobian as it was before it wrote p, q and s into the band rows,
# from the state the seed's _evaluate returned: three arrays, summed by
# _stencil_bands as it was then, into bands from np.zeros.  Today's bands
# must have its bits.
def three_array_jacobian(u, spec, r, cone, state):
    val, du, d2u, grads = state[:4]
    h = r[1] - r[0]
    rows = solver._pde_rows(spec)
    gR = grads[:, 0]
    gT = (cone.n - 1) * grads[:, 1]
    p, q, s = np.empty(val.size), np.empty(val.size), np.empty(val.size)
    if rows.start == 0:
        gsum = gR[0] + gT[0]
        p[0], q[0], s[0] = 0.0, -gsum * val[0] / h**2, -gsum * d2u[0]
    off = slice(1 - rows.start, None)
    val, du, d2u, gR, gT = val[off], du[off], d2u[off], gR[off], gT[off]
    rr = r[1:rows.stop]
    p[off] = (gR * du + gT * (du - val / rr)) / (2 * h)
    q[off] = -gR * val / h**2
    s[off] = -(gR * d2u + gT * du / rr)
    ab = np.zeros((3, q.size))
    np.add(p[:-1], q[:-1], out=ab[0, 1:])
    np.multiply(q, -2.0, out=ab[1])
    ab[1] += s
    np.subtract(q[1:], p[1:], out=ab[2, :-1])
    if rows.start == 0:
        ab[0, 1] = 2.0 * q[0]
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
        """The ball's centre row at r = 0 and every annulus row: the PDE
        rows' block of the reference, up to rounding.  Every entry holds a
        u/h^2 term, the size of its band's largest entry, and the two sum
        their terms in different orders: each band is within 4 eps of its
        largest entry (1.85 eps measured); zeros stay exact zeros."""
        for grid in (8, 24, 200):
            spec = ProblemSpec(cone=ConeSpec(n, k), tau=0.8, domain=domain,
                               delta=0.1, grid=grid)
            u = continuation_tau(spec).profile.u
            r = spec.radii()
            cone = spec.solve_cone()
            got = _analytic_jacobian(u, spec, r, cone, _evaluate(u, spec, r, cone)[2])
            want = pre_inplace_jacobian(u, spec, r, cone, seed_evaluate(u, spec, r, cone)[2])
            want = want[:, solver._pde_rows(spec)]
            assert got.shape == want.shape
            assert np.array_equal(got == 0.0, want == 0.0)
            scale = np.abs(want).max(axis=1, keepdims=True)
            assert (np.abs(got - want) <= 4 * np.finfo(float).eps * scale).all()

    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.2)],
                             ids=["ball", "annulus"])
    @pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (6, 3)])
    def test_band_rows_keep_the_bits_of_three_arrays(self, domain, n, k):
        """p, q and s written into the band rows, with gT and s formed in
        the gradients' own rows and the stencil formed again from u: the
        bits of p, q and s as three arrays summed by _stencil_bands, from
        the seed's state, at the ball's centre row too."""
        for grid in (8, 24, 200):
            spec = ProblemSpec(cone=ConeSpec(n, k), tau=0.8, domain=domain,
                               delta=0.1, grid=grid)
            u = continuation_tau(spec).profile.u
            r = spec.radii()
            cone = spec.solve_cone()
            assert_same_arrays(
                [_analytic_jacobian(u, spec, r, cone, _evaluate(u, spec, r, cone)[2])],
                [three_array_jacobian(u, spec, r, cone, seed_evaluate(u, spec, r, cone)[2])])

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
        F, margins, grads = got
        assert np.all(margins > 0) and grads is not None
        assert_same_arrays((F, margins, grads), want)
        assert_same_arrays([_analytic_jacobian(u, spec, r, cone, grads)],
                           [_analytic_jacobian(u, spec, r, cone, want[2])])

    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.0)],
                             ids=["ball", "annulus"])
    def test_grad_sup_is_the_stencil_of_the_reported_iterate(self, domain):
        """The report's grad_sup is max|u_r| of its profile's stencil, the
        stencil _evaluate forms on the solver's grid."""
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.9, domain=domain,
                           delta=0.05, grid=300)
        rep = continuation_tau(spec)
        du = _radial_stencil(rep.profile.u, spec.radii())[0]
        assert rep.grad_sup == float(np.max(np.abs(du)))


class TestOneGate:
    """_evaluate alone decides whether an iterate is admissible: its PDE
    rows positive and every PDE-row margin above MARGIN_FLOOR.  Any other
    iterate gets no residual and no gradients."""

    @pytest.fixture(scope="class")
    def solved(self):
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.8, domain=Annulus(0.5, 1.0),
                           delta=0.1, grid=40)
        return spec, continuation_tau(spec).profile.u

    @pytest.mark.parametrize("scale", [0.0, 1e-4, 9e-4],
                             ids=["zero-spectra", "margins-6e-17", "margins-4e-13"])
    def test_inadmissible_iterate_has_no_residual(self, solved, scale):
        """A constant iterate (zero spectra, margins 0), and the solution
        scaled by 1e-4 or 9e-4: its spectra fall below 1 and its margins to
        about 0.64 scale^4 (sigma_2 is quartic in u), 6e-17 and 4e-13,
        inside (0, MARGIN_FLOOR]."""
        spec, u = solved
        u = np.full_like(u, 0.1) if scale == 0.0 else scale * u
        F, margins, grads = _evaluate(u, spec, spec.radii(), spec.solve_cone())
        assert F is None and grads is None
        assert margins.size == spec.grid - 1 and margins.min() <= MARGIN_FLOOR
        if scale:
            assert margins.min() > 0.0

    @pytest.mark.parametrize("value", [0.0, -0.0, -1e-300, -0.05, np.nan],
                             ids=["zero", "negative-zero", "tiny-negative",
                                  "negative", "nan"])
    def test_iterate_with_a_non_positive_pde_row_has_no_residual(self, solved, value):
        """No stencil is formed for it, so there are no margins either;
        the Dirichlet rows are not tested (delta may be 0).  On a ball the
        centre node is a PDE row too."""
        spec, u = solved
        r, cone = spec.radii(), spec.solve_cone()
        for node in (1, 17, spec.grid - 1):
            bad = u.copy()
            bad[node] = value
            assert _evaluate(bad, spec, r, cone) == (None, None, None)
        ends = u.copy()
        ends[0] = ends[-1] = 0.0
        assert _evaluate(ends, spec, r, cone)[0] is not None
        ball = replace(spec, domain=Ball(1.0), grid=16)
        r = ball.radii()
        for node in (0, 7, ball.grid - 1):
            bad = (1.0 - r**2) / 2.0 + 0.05
            bad[node] = value
            assert _evaluate(bad, ball, r, cone) == (None, None, None)

    def test_a_nan_margin_on_any_row_refuses_the_iterate(self, solved, monkeypatch):
        """One NaN among the margins, at each PDE row in turn, fails the
        margin test as a margin under MARGIN_FLOOR does: no residual and no
        gradients, and the margins come back with the NaN in its row."""
        spec, u = solved
        r, cone = spec.radii(), spec.solve_cone()
        margin_of, row = solver.cone_margin, [None]

        def with_nan(cone, lam):
            margins = margin_of(cone, lam)
            margins[row[0]] = np.nan
            return margins

        monkeypatch.setattr(solver, "cone_margin", with_nan)
        for row[0] in range(spec.grid - 1):
            F, margins, grads = _evaluate(u, spec, r, cone)
            assert F is None and grads is None
            assert np.flatnonzero(np.isnan(margins)).tolist() == [row[0]]
        monkeypatch.undo()
        bad = u.copy()
        bad[17] = np.inf                  # NaN spectra at the nodes beside it
        with np.errstate(all="ignore"):
            F, margins, grads = _evaluate(bad, spec, r, cone)
        assert F is None and grads is None and np.isnan(margins).any()


# _evaluate as it was before its passes were cut, with the _eigenpair and
# the pair branches of the cone kernels it called, verbatim but for their
# module prefixes: admissibility by elementwise tests, the masked
# eigenpair, sigma_all's copy of b and its multiply by C(n-1, 0) = 1,
# scale ** j for every j, the copy before **=, both gradient rows of k = 1
# copied from the weight, the multiply by C(n-2, 0) = 1 for k = 2, each
# block's results copied into the output, and F = u - delta overwritten on
# the PDE rows.  _evaluate must give their bits.
def head_eigenpair(v, v_r, v_rr, r):
    shape = np.broadcast_shapes(np.shape(v), np.shape(v_r), np.shape(v_rr),
                                np.shape(r))
    pair = np.empty((2,) + shape)
    radial, tangential = pair[0, ...], pair[1, ...]
    half_slope_sq = np.square(v_r)
    half_slope_sq *= 0.5
    np.multiply(v, v_rr, out=radial)
    np.subtract(half_slope_sq, radial, out=radial)
    off_centre = np.greater(r, 0)
    np.divide(v_r, r, out=tangential, where=off_centre)
    np.copyto(tangential, v_rr, where=~off_centre)
    tangential *= v
    np.subtract(half_slope_sq, tangential, out=tangential)
    return pair


def head_sigma_pair(lam, n, k):
    a, b = lam[..., 0], lam[..., 1]
    e = np.empty((k + 1,) + lam.shape[:-1])
    e[0, ...] = 1.0
    b_pow = None
    term = np.empty_like(e[0, ...])
    for j in range(1, k + 1):
        row = e[j, ...]
        np.multiply(b, math.comb(n - 1, j), out=row)
        np.multiply(a, math.comb(n - 1, j - 1), out=term)
        row += term
        if b_pow is not None:
            row *= b_pow
            if j < k:
                b_pow *= b
        elif j < k:
            b_pow = b.copy()
    return cones._last_axis_outermost(e)


def head_margin(cone, mu, sig):
    scale = np.abs(mu[..., 0], out=np.empty(mu.shape[:-1]))
    for i in range(1, mu.shape[-1]):
        np.maximum(scale, np.abs(mu[..., i]), out=scale)
    np.maximum(scale, 1.0, out=scale)
    scale = scale[()]
    out = None
    for j in range(1, cone.k + 1):
        margin_j = sig[..., j] / (math.comb(cone.n, j) * scale ** j)
        out = margin_j if out is None else np.minimum(out, margin_j)
    return out if out.ndim else float(out)


def head_f_and_grad_pair(cone, mu, sig):
    n, k = cone.n, cone.k
    s = cone.deformation_scale
    fk = sig[..., cone.k].copy()
    fk **= 1.0 / cone.k
    fk *= cone.normalization
    weight = np.multiply(sig[..., k], k, out=sig[..., k])
    np.divide(fk, weight, out=weight)
    fk /= s
    g = np.empty((2,) + fk.shape)
    grad_a, grad_b = g[0, ...], g[1, ...]
    if k == 1:
        grad_a[...] = grad_b[...] = weight
    else:
        a, b = mu[..., 0], mu[..., 1]
        b_pow = b ** (k - 2) if k > 2 else None
        np.multiply(b, math.comb(n - 2, k - 1), out=grad_b)
        grad_b += np.multiply(a, math.comb(n - 2, k - 2), out=grad_a)
        np.multiply(b, math.comb(n - 1, k - 1), out=grad_a)
        for grad in (grad_a, grad_b):
            if b_pow is not None:
                grad *= b_pow
            grad *= weight
    shift = np.multiply(grad_b, n - 1, out=weight)
    shift += grad_a
    shift *= 1.0 - cone.tau
    for grad in (grad_a, grad_b):
        grad *= cone.tau
        grad += shift
        grad /= s
    return fk[()], cones._last_axis_outermost(g)


def head_by_blocks(cone, lam, read):
    lead = lam.shape[:-1]
    rows = math.prod(lead)

    def deformed_sigma(lam):
        mu = cones.tau_deform(lam, cone.tau, cone.n)
        return mu, head_sigma_pair(mu, cone.n, cone.k)

    if rows <= cones._BLOCK_ROWS:
        return read(*deformed_sigma(lam))
    flat = lam.reshape(rows, lam.shape[-1])
    outs = None
    for start in range(0, rows, cones._BLOCK_ROWS):
        block = slice(start, start + cones._BLOCK_ROWS)
        results = read(*deformed_sigma(flat[block]))
        if outs is None:
            outs = [np.empty(res.shape[1:] + (rows,)) for res in results]
        for out, res in zip(outs, results):
            cones._last_axis_outermost(out)[block] = res
    return tuple(out.reshape(lead) if out.ndim == 1 else
                 cones._last_axis_outermost(out.reshape(out.shape[:1] + lead))
                 for out in outs)


def head_evaluate(u, spec, r, cone):
    rows = solver._pde_rows(spec)
    if not (u[rows] > 0.0).all():
        return None, None, None
    du, d2u = _radial_stencil(u, r)
    lam = head_eigenpair(u[rows], du[rows], d2u[rows], r[rows]).T
    del du, d2u
    margins = np.atleast_1d(head_by_blocks(
        cone, lam, lambda mu, sig: (head_margin(cone, mu, sig),))[0])
    if not (margins > MARGIN_FLOOR).all():
        return None, margins, None
    fvals, grads = head_by_blocks(
        cone, lam, lambda mu, sig: head_f_and_grad_pair(cone, mu, sig))
    del lam

    F = u - spec.delta
    np.subtract(fvals, solver.RHS, out=F[rows])
    return F, margins, grads


def exact_spectrum_profile(domain, r):
    """A profile whose spectra are all equal and positive: (1 - r^2)/2 +
    0.05 on the ball (every eigenvalue 0.55) and (r^2 - R^2)/R^2 + 0.5,
    R = 0.8 inner, on an annulus (every eigenvalue 1/R^2), so it lies
    inside every cone, at every tau."""
    if isinstance(domain, Ball):
        return (1.0 - r**2) / 2.0 + 0.05
    R = 0.8 * domain.inner
    return (r**2 - R**2) / R**2 + 0.5


@st.composite
def evaluation_cases(draw):
    """(spec, u): a ball or an annulus, k in {1, 2, 3, n}, tau in {0, .5,
    .95, 1}, grid 16, 1000 or 40000 (two cone row blocks and a
    remainder), and u an exact-spectrum profile scaled by 10^[-2, 2] and
    bent by a smooth wave of relative size up to 0.3, so that some draws
    leave the cone; its Dirichlet rows are moved off delta."""
    n = draw(st.integers(3, 8))
    domain = draw(st.sampled_from([Ball(1.0), Annulus(0.5, 1.0)]))
    spec = ProblemSpec(cone=ConeSpec(n, draw(st.sampled_from([1, 2, 3, n]))),
                       tau=draw(st.sampled_from([0.0, 0.5, 0.95, 1.0])),
                       domain=domain, delta=0.05,
                       grid=draw(st.sampled_from([16, 1000, 40_000])))
    r = spec.radii()
    wave = draw(st.floats(0.0, 0.3)) * np.cos(draw(st.floats(0.0, 12.0)) * r
                                              + draw(st.floats(0.0, 6.3)))
    u = 10.0 ** draw(st.floats(-2.0, 2.0)) * exact_spectrum_profile(domain, r)
    u *= 1.0 + wave
    rows = solver._pde_rows(spec)
    u[:rows.start] = u[rows.stop:] = draw(st.floats(0.0, 1.0))
    return spec, u


class TestEvaluationPasses:
    """_evaluate with its passes cut against the pipeline it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(case=evaluation_cases())
    def test_evaluation_keeps_every_bit(self, case):
        spec, u = case
        r, cone = spec.radii(), spec.solve_cone()
        got, want = _evaluate(u, spec, r, cone), head_evaluate(u, spec, r, cone)
        assert [x is None for x in got] == [x is None for x in want]
        assert_same_arrays([x for x in got if x is not None],
                           [x for x in want if x is not None])
        if got[2] is not None:
            assert got[2].strides == want[2].strides

    def test_exact_spectrum_profiles_are_admissible(self):
        """Unbent, the profiles the cases start from are admissible at
        every k and tau, so the draws reach f and its gradients."""
        for domain in (Ball(1.0), Annulus(0.5, 1.0)):
            for k, tau in itertools.product((1, 2, 3, 5), (0.0, 0.5, 0.95, 1.0)):
                spec = ProblemSpec(cone=ConeSpec(5, k), tau=tau, domain=domain,
                                   delta=0.05, grid=40_000)
                r = spec.radii()
                u = exact_spectrum_profile(domain, r)
                assert _evaluate(u, spec, r, spec.solve_cone())[0] is not None


class TestDirichletRows:
    @pytest.mark.parametrize("domain, count", [(Ball(1.0), 1),
                                               (Annulus(0.5, 1.0), 2)],
                             ids=["ball", "annulus"])
    def test_rows_outside_pde_rows_impose_u_minus_delta(self, domain, count):
        """F = u - delta bit for bit at every row that _pde_rows leaves out:
        the outer node, and on an annulus the inner one.  Those values are
        data, so the Jacobian has no row or column for them: its bands are
        (3, grid) on a ball and (3, grid - 1) on an annulus."""
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.8, domain=domain,
                           delta=0.1, grid=40)
        # Scaling by 1.1 scales every spectrum by 1.21, so u stays admissible
        # while its boundary values move off delta.
        u = 1.1 * continuation_tau(spec).profile.u
        r = spec.radii()
        cone = spec.solve_cone()
        F, margins, grads = _evaluate(u, spec, r, cone)
        assert np.all(margins > 0)
        dirichlet = np.ones(u.size, dtype=bool)
        dirichlet[solver._pde_rows(spec)] = False
        assert dirichlet.sum() == count and dirichlet[-1]
        assert F[dirichlet].tobytes() == (u[dirichlet] - spec.delta).tobytes()
        assert np.all(F[dirichlet] != 0)

        ab = _analytic_jacobian(u, spec, r, cone, grads)
        assert ab.shape == (3, spec.grid + 1 - count)


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

    @pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (6, 3)])
    def test_solves_the_ball_at_tau_one(self, n, k):
        """tau = 1, the undeformed cone, is a tau like any other: the start's
        margins decide it.  From the tau = 0 start, the hyperbolic model to
        rounding, the ball at delta = 0 and grid 1000 converges to within
        1e-12 of (1 - r^2)/2."""
        spec = ProblemSpec(cone=ConeSpec(n, k), tau=1.0, domain=Ball(1.0),
                           delta=0.0, grid=1000)
        rep = newton_solve(initial_profile(spec), spec)
        assert rep.converged and rep.tau == 1.0
        assert rep.admissibility_margin_min > MARGIN_FLOOR
        r, u = rep.profile.r, rep.profile.u
        assert np.abs(u - (1 - r**2) / 2).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 6), k=st.integers(1, 6),
           inner=st.one_of(st.none(), st.floats(0.1, 0.9)),
           delta=st.floats(0.0, 0.2), scale=st.floats(0.2, 5.0),
           wiggle=st.floats(-0.5, 0.5), mode=st.integers(1, 4))
    @example(n=4, k=2, inner=None, delta=0.1, scale=1.0, wiggle=0.0, mode=1)
    @example(n=4, k=2, inner=0.5, delta=0.1, scale=1.0, wiggle=0.0, mode=1)
    def test_residual_and_newton_decide_a_start_alike_at_tau_one(
            self, n, k, inner, delta, scale, wiggle, mode):
        """At tau = 1, residual raises InadmissibleIterateError for a start
        exactly when newton_solve refuses it: both read _evaluate's margins.
        The starts are the tau = 0 start (k capped at n) scaled about
        delta, with a relative wiggle of at most a half that vanishes on the
        boundary.  The two examples give both outcomes: the (4, 2) ball's
        start is admissible at tau = 1, and the (4, 2) annulus's is not."""
        k = min(k, n)
        domain = Ball(1.0) if inner is None else Annulus(inner, 1.0)
        spec = ProblemSpec(cone=ConeSpec(n, k), tau=1.0, domain=domain,
                           delta=delta, grid=40)
        r = spec.radii()
        x = (r - r[0]) / (r[-1] - r[0])
        bump = initial_profile(spec).u - delta
        u = delta + bump * scale * (1.0 + wiggle * np.sin(mode * np.pi * x))
        start = RadialProfile(r=r, u=u)
        outcomes = []
        for call in (residual, newton_solve):
            try:
                call(start, spec)
                outcomes.append(False)
            except InadmissibleIterateError:
                outcomes.append(True)
        assert outcomes[0] == outcomes[1]
        if (n, k, inner, delta, scale, wiggle) in ((4, 2, None, 0.1, 1.0, 0.0),
                                                  (4, 2, 0.5, 0.1, 1.0, 0.0)):
            assert outcomes[0] == (inner is not None)

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
        floor = 4 * np.finfo(float).eps * (rep.to_dict()["c0_max"] / rep.profile.h) ** 2
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
    def test_a_stop_at_the_rounding_floor_costs_one_trial(self, domain, monkeypatch):
        """At grid 4000 the default tolerance is below the rounding floor, so
        the tau = 0 start and the target of a default tau continuation stop
        at the floor; the waypoints between stop at WAYPOINT_TOL.  At the
        floor the line search tries the full step only: one evaluation for
        the start and one per iteration, the refused last one included (when
        every solve here stopped at the floor, a search of every halving
        made 1005 and 1112 evaluations, against 44 and 105 with one trial)."""
        evaluations, reports = [], []
        evaluate, solve = solver._evaluate, solver.newton_solve

        def counted(*args):
            evaluations.append(None)
            return evaluate(*args)

        def recorded(*args):
            reports.append(solve(*args))
            return reports[-1]

        monkeypatch.setattr(solver, "_evaluate", counted)
        monkeypatch.setattr(solver, "newton_solve", recorded)
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.95, domain=domain,
                           delta=0.1, grid=4000)
        assert continuation_tau(spec).converged
        stops = [rep.newton_stop for rep in reports]
        assert stops[0] == stops[-1] == "rounding floor"
        assert set(stops[1:-1]) == {"tolerance"}
        assert len(evaluations) == len(reports) + sum(rep.newton_iterations
                                                      for rep in reports)

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

        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.0, domain=domain,
                           delta=0.05, grid=200)
        start = initial_profile(spec)
        monkeypatch.setattr(solver, "solve_banded", counted)
        rep = newton_solve(start, spec)
        assert rep.converged and rep.newton_iterations > 0
        pde_rows = 200 if isinstance(domain, Ball) else 199
        assert calls == [(3, pde_rows)] * rep.newton_iterations


    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.0)],
                             ids=["ball", "annulus"])
    def test_every_trial_holds_the_dirichlet_rows_at_delta(self, domain,
                                                           monkeypatch):
        """From a start whose boundary values are off delta by 1e-9, with
        steps 8 times too long so that the line search halves them, every
        trial newton_solve evaluates is delta at its Dirichlet rows."""
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.0, domain=domain,
                           delta=0.05, grid=200)
        u = initial_profile(spec).u
        rows = solver._pde_rows(spec)
        u[:rows.start] *= 1 + 1e-9
        u[rows.stop:] *= 1 + 1e-9
        ends, evaluate, solve = [], solver._evaluate, solver.solve_banded
        monkeypatch.setattr(solver, "solve_banded", lambda ab, b: 8.0 * solve(ab, b))
        monkeypatch.setattr(solver, "_evaluate", lambda u, *args: ends.append(
            np.concatenate((u[:rows.start], u[rows.stop:]))) or evaluate(u, *args))
        assert newton_solve(RadialProfile(r=spec.radii(), u=u), spec).converged
        assert len(ends) > 2 and all((end == 0.05).all() for end in ends[1:])

    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.0)],
                             ids=["ball", "annulus"])
    def test_first_evaluation_sees_delta_at_the_dirichlet_rows(self, domain,
                                                               monkeypatch):
        """The Dirichlet values are data: newton_solve sets them to delta in
        its copy of a start that is off delta there, before it evaluates
        anything, and leaves the start itself alone."""
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.0, domain=domain,
                           delta=0.05, grid=200)
        start = initial_profile(spec)
        rows = solver._pde_rows(spec)
        u = start.u.copy()
        u[:rows.start] = u[rows.stop:] = 0.07
        off = RadialProfile(r=start.r, u=u)
        ends, evaluate = [], solver._evaluate
        monkeypatch.setattr(solver, "_evaluate", lambda u, *args: ends.append(
            np.concatenate((u[:rows.start], u[rows.stop:]))) or evaluate(u, *args))
        rep = newton_solve(off, spec)
        assert rep.converged and ends
        assert all((end == 0.05).all() for end in ends)
        assert rep.profile.u[-1] == 0.05 and off.u[-1] == 0.07

    def test_steps_leave_the_dirichlet_rows_alone(self, monkeypatch):
        """Every Newton step has one entry per PDE row, and every iterate
        newton_solve evaluates is delta exactly at the Dirichlet rows."""
        spec = ProblemSpec(cone=ConeSpec(5, 3), tau=0.0, domain=Annulus(0.5, 1.0),
                           delta=0.05, grid=10_000)
        start = continuation_tau(spec).profile
        solve, steps, ends = solver.solve_banded, [], []
        evaluate = solver._evaluate
        monkeypatch.setattr(solver, "solve_banded",
                            lambda ab, b: steps.append(solve(ab, b)) or steps[-1])
        monkeypatch.setattr(solver, "_evaluate", lambda u, *args: ends.append(
            (u[0], u[-1])) or evaluate(u, *args))
        assert newton_solve(start, replace(spec, tau=0.5)).converged
        assert steps and all(step.shape == (spec.grid - 1,) for step in steps)
        assert len(ends) > len(steps) and set(ends) == {(0.05, 0.05)}


# newton_solve as it was before it held one iterate at a time, with the
# _evaluate, _make_report and _problem_grid it called, verbatim but for the
# solver. prefixes and its Newton step, which now solves -F[rows] for the PDE
# rows and adds t * step to those rows only, the Dirichlet values being data,
# and passes _analytic_jacobian the state's gradients, all it now reads.  Every
# report of the rewrite must have the same bits; the seed's own max|u_r|, u
# bounds and boundary slope must be what the report reads from its profile.
def seed_problem_grid(profile, spec):
    r = spec.radii()
    if profile.r.shape == r.shape:
        gap = np.subtract(profile.r, r)
        if (np.abs(gap, out=gap) <= 1e-12 * max(1.0, abs(r[-1]))).all():
            return r
    raise GridMismatchError("profile grid does not match the problem grid")


def seed_evaluate(u, spec, r, cone):
    rows = solver._pde_rows(spec)
    du_full, d2u = _radial_stencil(u, r)
    val, du, d2u = u[rows], du_full[rows], d2u[rows]
    lam = solver._eigenpair(val, du, d2u, r[rows]).T
    margins = np.atleast_1d(solver.cone_margin(cone, lam))

    F = u - spec.delta
    if (margins > 0.0).all():
        fvals, grads = solver._f_and_grad_unchecked(cone, lam)
        F[rows] = fvals - solver.RHS
    else:
        grads = None
        F[rows] = np.nan
    return F, margins, (val, du, d2u, grads, du_full)


def seed_make_report(u, spec, r, F, margins, state, iters, stop):
    du = state[-1]
    profile = RadialProfile(r=r, u=u)
    res_nodes = np.abs(F)
    margin_full = np.zeros(r.size)
    margin_full[solver._pde_rows(spec)] = margins
    report = SolveReport(
        spec=spec,
        profile=profile,
        newton_iterations=iters,
        continuation_steps=0,
        residual_nodes=res_nodes,
        margin_nodes=margin_full,
        newton_stop=stop,
    )
    summary = report.to_dict()
    assert report.residual_sup == summary["residual_sup"] == float(res_nodes.max())
    assert (report.admissibility_margin_min == summary["admissibility_margin_min"]
            == float(margins.min()))
    assert report.converged is summary["converged"] is (stop in ("tolerance",
                                                                 "rounding floor"))
    assert (report.tau, report.delta) == (summary["tau"], summary["delta"]) == (spec.tau,
                                                                               spec.delta)
    assert report.grad_sup == summary["grad_sup"] == float(np.abs(du).max())
    assert report.boundary_slope == summary["boundary_slope"] == boundary_slope(profile)
    assert (summary["c0_min"], summary["c0_max"]) == (float(u.min()), float(u.max()))
    return report


def seed_newton_solve(init, spec, opts=None):
    opts = opts or solver.NewtonOptions()
    r = seed_problem_grid(init, spec)
    cone = spec.solve_cone()

    u = init.u.copy()
    rows = solver._pde_rows(spec)
    F, margins, state = seed_evaluate(u, spec, r, cone)
    if not (margins > MARGIN_FLOOR).all():
        raise solver._inadmissible(spec, margins, "initial profile inadmissible")

    res = float(np.abs(F).max())
    for it in range(1, solver.MAX_NEWTON_ITERATIONS + 1):
        if res <= opts.tol:
            return seed_make_report(u, spec, r, F, margins, state, it - 1, "tolerance")
        ab = _analytic_jacobian(u, spec, r, cone, state[3])
        step = solver.solve_banded(ab, -F[rows])

        at_floor = res <= solver._rounding_floor(u.max(), r[1] - r[0])
        t = 1.0
        for _ in range(1 if at_floor else solver.MAX_HALVINGS + 1):
            u_try = u.copy()
            u_try[rows] += t * step
            if (u_try[rows] > 0.0).all():
                F_try, m_try, s_try = seed_evaluate(u_try, spec, r, cone)
                if (m_try > MARGIN_FLOOR).all():
                    res_try = float(np.abs(F_try).max())
                    if res_try < res:
                        u, F, margins, state, res = u_try, F_try, m_try, s_try, res_try
                        break
            t *= 0.5
        else:
            return seed_make_report(u, spec, r, F, margins, state, it,
                                    "rounding floor" if at_floor else "line search")
    return seed_make_report(u, spec, r, F, margins, state, solver.MAX_NEWTON_ITERATIONS,
                            "tolerance" if res <= opts.tol else "iteration limit")


def assert_same_reports(got, want):
    assert_same_arrays([got.profile.r, got.profile.u, got.residual_nodes,
                        got.margin_nodes],
                       [want.profile.r, want.profile.u, want.residual_nodes,
                        want.margin_nodes])
    assert_same_arrays(list(got.to_dict().values()), list(want.to_dict().values()))
    assert got.newton_stop == want.newton_stop


# One tau step at grid 2e4 holds at most this many full-length float64
# arrays at its peak, above its start: 14.9 measured when each stage holds
# only what the next one reads, in the f-gradient pass of the one trial made
# at the rounding floor, through which the iterate's F and margins live for
# the report (12.9 in a trial off the floor; 21.7 when the trial's stencil,
# the iterate's F and margins and the pair kernel's gradient scratch
# outlived their use in every trial, 29.7 before that).
ONE_STEP_PEAK_ARRAYS = 16


def one_step_problem():
    """benchmarks/compare.py's ONE_STEP_PROBLEM, the tau step that
    compare.py's newton_peaks measures too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        return importlib.import_module("compare").ONE_STEP_PROBLEM


class TestOneIterate:
    GRID = 20_000

    @pytest.fixture(scope="class")
    def tau_step(self):
        """ONE_STEP_PROBLEM's converged profile at its tau, and the spec of
        its next step."""
        one = one_step_problem()
        spec = ProblemSpec(cone=ConeSpec(one["n"], one["k"]), tau=one["tau"],
                           domain=Annulus(*one["annulus"]), delta=one["delta"],
                           grid=self.GRID)
        start = continuation_tau(spec)
        assert start.converged
        return start.profile, replace(spec, tau=one["next_tau"])

    def test_peak_memory_of_one_tau_step(self, tau_step):
        import tracemalloc
        profile, spec = tau_step
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rep = newton_solve(profile, spec)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert rep.converged and rep.newton_iterations > 1
        arrays = peak / (8 * (self.GRID + 1))
        assert arrays <= ONE_STEP_PEAK_ARRAYS, arrays

    def test_report_keeps_the_bits_of_the_seed_loop(self, tau_step):
        profile, spec = tau_step
        assert_same_reports(newton_solve(profile, spec),
                            seed_newton_solve(profile, spec))

    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.0)],
                             ids=["ball", "annulus"])
    def test_every_stop_rule_keeps_the_bits_of_the_seed_loop(self, domain,
                                                             monkeypatch):
        """Tolerance, rounding floor, line search (a NaN step) and the
        iteration limit; a step 8 times too long makes the line search
        halve it and refuse trials before it accepts one."""
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.0, domain=domain,
                           delta=0.05, grid=200)
        start = initial_profile(spec)
        for target in (spec, replace(spec, tau=0.9, grid=4000)):
            profile = initial_profile(replace(target, tau=0.0))
            assert_same_reports(newton_solve(profile, target),
                                seed_newton_solve(profile, target))
        solve, evaluate, evaluations = solver.solve_banded, solver._evaluate, []
        with monkeypatch.context() as patch:
            patch.setattr(solver, "solve_banded", lambda ab, b: 8.0 * solve(ab, b))
            patch.setattr(solver, "_evaluate",
                          lambda *args: evaluations.append(1) or evaluate(*args))
            got, want = newton_solve(start, spec), seed_newton_solve(start, spec)
        assert got.converged and len(evaluations) > 2 * (got.newton_iterations + 1)
        assert_same_reports(got, want)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "solve_banded", lambda ab, b: np.full_like(b, np.nan))
            got, want = newton_solve(start, spec), seed_newton_solve(start, spec)
        assert got.newton_stop == "line search"
        assert_same_reports(got, want)
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERATIONS", 1)
        got, want = newton_solve(start, spec), seed_newton_solve(start, spec)
        assert got.newton_stop == "iteration limit"
        assert_same_reports(got, want)

    def test_reports_share_the_grid_array_of_their_start(self, tau_step):
        """A start on the solver's grid gives the report that array; a grid
        that only matches within tolerance (here -0.0 at a ball's centre)
        gets the solver's grid too."""
        profile, spec = tau_step
        assert newton_solve(profile, spec).profile.r is profile.r
        ball = ball_spec(grid=100)
        r = ball.radii()
        r[0] = -0.0
        start = initial_profile(ball)
        rep = newton_solve(RadialProfile(r=r, u=start.u), ball)
        assert rep.profile.r is not r and not np.signbit(rep.profile.r[0])


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
        F, _, grads = _evaluate(u, spec, r, cone)
        self.assert_same_as_scipy(_analytic_jacobian(u, spec, r, cone, grads),
                                  -F[solver._pde_rows(spec)])

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


def glibc_mallinfo2():
    """glibc's mallinfo2 through ctypes, or None where the C library has none."""
    try:
        return ctypes.CDLL(None).mallinfo2
    except (OSError, AttributeError, TypeError):
        return None


@pytest.mark.skipif(glibc_mallinfo2() is None, reason="the C library is not glibc")
def test_grid_arrays_come_from_the_heap():
    """After `import lnlab`, a 4 MiB array (about five grid arrays at 1e5 nodes)
    is carved from the heap, not mapped on its own: mallinfo2's hblkhd,
    the bytes in mapped blocks, does not grow while it is held.  With
    glibc's start values it grows by 4.0 MiB.  A fresh interpreter, so no
    earlier free has moved glibc's own threshold."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    code = """if True:
        import ctypes
        import numpy as np
        import lnlab
        class Mallinfo2(ctypes.Structure):
            _fields_ = [(name, ctypes.c_size_t) for name in (
                "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                "fsmblks", "uordblks", "fordblks", "keepcost")]
        mallinfo2 = ctypes.CDLL(None).mallinfo2
        mallinfo2.restype = Mallinfo2
        before = mallinfo2().hblkhd
        held = np.ones(1 << 19)
        print(mallinfo2().hblkhd - before, held.nbytes)
    """
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["0", str(4 << 20)]


@pytest.mark.parametrize("refusal", [OSError("no C library by that name"),
                                     TypeError("CDLL(None) is not supported"), None],
                         ids=["OSError", "TypeError", "no-mallopt"])
def test_heap_policy_is_skipped_where_there_is_no_mallopt(monkeypatch, refusal):
    """Where the C library cannot be opened or has no mallopt (Windows,
    macOS), the import-time helper returns without error; where it has
    one, it sets glibc's M_MMAP_THRESHOLD (-3) to 32 MiB and
    M_TRIM_THRESHOLD (-1) to 64 MiB."""
    def library(name):
        if refusal is not None:
            raise refusal
        return SimpleNamespace()

    monkeypatch.setattr(solver.ctypes, "CDLL", library)
    assert solver._heap_policy() is None
    calls = []
    monkeypatch.setattr(solver.ctypes, "CDLL", lambda name: SimpleNamespace(
        mallopt=lambda *args: calls.append(args)))
    solver._heap_policy()
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


def annulus_spec(n, k, tau, inner, delta=0.1, grid=200):
    return ProblemSpec(cone=ConeSpec(n, k), tau=tau, domain=Annulus(inner, 1.0),
                       delta=delta, grid=grid)


class TestInitialProfile:
    def test_ball_start_is_the_hyperbolic_model(self):
        """The stencils are exact on quadratics, so the discrete torsion
        start is (b^2 - r^2) / (2b) + delta to rounding: 3.0e-15 measured
        here, against a bound of 1e-14.  The datum is exact."""
        spec = ball_spec(delta=0.05, grid=100)
        r = spec.radii()
        u = initial_profile(spec).u
        assert np.abs(u - ((1.0**2 - r**2) / (2.0 * 1.0) + 0.05)).max() <= 1e-14
        assert u[-1] == 0.05

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
        """A start the discrete torsion problem cannot rescue: on this thin
        annulus of radius 3.7e-44 the bump max(w)/|w'(b)| is 3e-44, which
        rounds away against delta = 0.1.  The start is the constant delta
        in floats, every margin is 0, and the error names the bump."""
        spec = ProblemSpec(ConeSpec(6, 1), 0.5,
                           Annulus(2.3512740663052053e-58, 3.7274598712693967e-44),
                           0.1, grid=1000)
        with pytest.raises(InadmissibleIterateError,
                           match=r"^the tau = 0 start is inadmissible: its bump "
                                 r"max\(w\)/\|w'\(b\)\| = 2.98e-44 rounds away "
                                 r"against delta \(annulus radii \(2.35127e-58, "
                                 r"3.72746e-44\), n = 6, delta 0.1, grid 1000, "
                                 r"worst node \d+, margin 0.000e\+00\)$") as err:
            continuation_tau(spec)
        assert err.value.margin == 0.0

    @pytest.mark.parametrize("n, radius", [(8, 1e-150), (3, 1e-100)])
    def test_tiny_ball_start_names_the_rounded_bump(self, n, radius):
        """A ball far smaller than delta: the bump b/2 of the start is below
        delta's rounding, so the start is the constant delta in floats and
        every spectrum is 0.  The error names that cause, in the words it
        uses on an annulus."""
        spec = ProblemSpec(ConeSpec(n, 1), 0.5, Ball(radius), 0.1, grid=50)
        with pytest.raises(InadmissibleIterateError,
                           match=rf"start is inadmissible: its bump max\(w\)/\|w'\(b\)\| "
                                 rf"= {radius / 2:.3g} rounds away against delta "
                                 rf"\(ball outer radius {radius:g}, n = {n}, "
                                 rf"delta 0.1, grid 50, worst node 0, "
                                 rf"margin 0.000e\+00\)") as err:
            continuation_tau(spec)
        assert err.value.worst_node == 0 and err.value.margin == 0.0

    def test_cancelling_torsion_start_is_named(self):
        """In high dimension on a coarse grid, h/r >= 2/(n - 1), L_h is no
        M-matrix and the discrete torsion function dips below zero near the
        outer sphere: the start cancels to u <= 0 there.  The error names the
        radii, n, delta, the grid, the node and h/r against 2/(n - 1)."""
        spec = ProblemSpec(ConeSpec(100, 1), 0.5, Annulus(1e-6, 1.0), 0.01, grid=9)
        with pytest.raises(InvalidProfileError,
                           match=r"^the tau = 0 start is not finite and positive: "
                                 r"annulus radii \(1e-06, 1\), n = 100, delta 0.01, "
                                 r"grid 9: at node 8 \(r = 0.888889\) it is "
                                 r"-\d\.\d{3}e-02, where h/r = 0.125 against "
                                 r"2/\(n - 1\) = 0.0202 "):
            initial_profile(spec)
        with pytest.raises(InvalidProfileError, match="not finite and positive"):
            continuation_tau(spec)

    def test_thin_annulus_start_stays_positive_at_a_tiny_datum(self):
        """The continuum start b^2 - r^2 + Q (r^(2-n) - b^(2-n)) cancelled
        below zero in floats on this annulus at delta = 1e-241; the discrete
        start is delta exactly at the spheres and above it inside."""
        spec = ProblemSpec(ConeSpec(6, 1), 0.5,
                           Annulus(2.3512740663052053e-58, 3.7274598712693967e-44),
                           1.0122155116797562e-241, grid=1000)
        u = initial_profile(spec).u
        assert u[0] == u[-1] == spec.delta and (u[1:-1] > spec.delta).all()

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 12), k_share=st.floats(0.0, 1.0),
           outer_exp=st.floats(-3.0, 3.0), ratio_exp=st.floats(-3.0, np.log10(0.99)),
           delta_exp=st.floats(-6.0, 1.0), grid=st.integers(8, 400))
    @example(n=4, k_share=0.5, outer_exp=0.0, ratio_exp=-1.0, delta_exp=-20.0,
             grid=1000)
    def test_tau_zero_converges_or_names_its_cause_on_the_box(
            self, n, k_share, outer_exp, ratio_exp, delta_exp, grid):
        """Annuli with n = 3..12, a/b = 1e-3..0.99, delta/b = 1e-6..10 and
        grid 8..400: the tau = 0 problem converges or its error names one of
        CAUSES, with no warning.  Where h < 2a/(n - 1), L_h is an M-matrix
        and the start is returned with w >= 0, that is u >= delta.  The
        example, (4, 2) on [0.1, 1] at delta = 1e-20, is a start the
        continuum torsion formula cancelled below zero."""
        outer = 10.0**outer_exp
        inner = outer * 10.0**ratio_exp
        spec = ProblemSpec(ConeSpec(n, 1 + int(k_share * (n - 1))), 0.0,
                           Annulus(inner, outer), outer * 10.0**delta_exp, grid=grid)
        r = spec.radii()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if r[1] - r[0] < 2 * r[0] / (n - 1):
                assert (initial_profile(spec).u >= spec.delta).all()
            try:
                rep = continuation_tau(spec)
            except LnlabError as err:
                assert any(cause in str(err) for cause in CAUSES), str(err)
            else:
                assert rep.converged

    @pytest.mark.parametrize("n", [8, 3])
    def test_normal_ball_start_is_unaffected(self, n):
        spec = ProblemSpec(ConeSpec(n, 1), 0.5, Ball(1.0), 0.1, grid=50)
        rep = continuation_tau(spec)
        assert rep.converged and rep.admissibility_margin_min > MARGIN_FLOOR


# Every refusal of continuation_tau names one of these causes.
CAUSES = ("the tau = 0 start is inadmissible",
          "the tau = 0 start is not finite and positive",
          "the predicted start is not finite and positive", "the step left the cone",
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
        radii near a grid step are left to benchmarks/census.py: there the
        step halvings can take seconds."""
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

    @pytest.mark.parametrize("inner", [0.5, 0.1])
    @pytest.mark.parametrize("n, k, tau", [(3, 1, 0.9), (4, 2, 0.95)])
    def test_tiny_datum_keeps_the_dirichlet_rows_exact(self, n, k, tau, inner):
        """The banded solve returns a Dirichlet row's step with a rounding
        error, which at a tiny datum took u(a) to -1e-20 or 1e-25 while the
        datum was 1e-30.  Every trial sets those rows to delta: the solve
        converges with u = delta exactly at both spheres."""
        for delta in (1e-12, 1e-20, 1e-30, 1e-100, 1e-300):
            rep = continuation_tau(annulus_spec(n, k, tau, inner, delta, grid=1000))
            assert rep.converged, delta
            assert rep.profile.u[0] == rep.profile.u[-1] == delta

    def test_start_problem_failure_names_the_newton_stop(self, monkeypatch):
        """A banded solve that returns NaN leaves no positive trial step, so
        the line search fails at the start's residual, far above the
        rounding floor; then a cut at one iteration.  The first banded
        solve, the start's torsion problem, goes through."""
        spec = ball_spec(grid=100)
        solve, calls = solver.solve_banded, []

        def nan_after_the_start(ab, b):
            calls.append(None)
            return solve(ab, b) if len(calls) == 1 else np.full_like(b, np.nan)

        with monkeypatch.context() as patch:
            patch.setattr(solver, "solve_banded", nan_after_the_start)
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

    def test_coarse_inner_sphere_start_names_h_over_a(self):
        """(8, 8, tau = 0) on Annulus(0.11488, 33.828), delta 0.0042825,
        grid 331, a census spec: h/a = 0.887 against 2/(n - 1) = 0.286, the
        discrete start overshoots at node 1 and the start problem stops in
        the line search.  The message keeps the prefix the census classes
        it by and names h/a in initial_profile's words."""
        spec = ProblemSpec(cone=ConeSpec(8, 8), tau=0.0, domain=Annulus(0.11488, 33.828),
                           delta=0.0042825, grid=331)
        with pytest.raises(ContinuationStallError) as err:
            continuation_tau(spec)
        message = str(err.value)
        assert message.startswith("the tau = 0 start problem did not converge: "
                                  "Newton stopped at residual_sup "), message
        assert "(line search found no admissible descent step)" in message
        assert message.endswith(
            "; the start is coarse at the inner sphere: h/a = 0.887 against "
            "2/(n - 1) = 0.286 (L_h is an M-matrix, so w >= 0, when h/r < "
            "2/(n - 1) at every PDE row)"), message

    def test_tiny_annulus_at_a_tiny_datum_converges(self):
        """Annulus(2.3513e-58, 3.7275e-44), n = 6, delta = 1.0122e-241 at
        grid 1000, the spec of an old torsion-start refusal: the discrete
        start is positive and admissible, the tau = 0 problem converges by
        tolerance in 5 Newton iterations (residual 1.94e-11), and so does
        the tau continuation of (6, 1, .9)."""
        spec = ProblemSpec(cone=ConeSpec(6, 1), tau=0.0,
                           domain=Annulus(2.3512740663052053e-58, 3.7274598712693967e-44),
                           delta=1.0122155116797562e-241, grid=1000)
        rep = continuation_tau(spec)
        assert rep.converged and rep.newton_stop == "tolerance"
        assert rep.newton_iterations == 5 and rep.residual_sup <= 2e-11
        rep = continuation_tau(replace(spec, tau=0.9))
        assert rep.converged and rep.newton_stop == "tolerance"
        assert rep.continuation_steps == 18 and rep.residual_sup <= NEWTON_TOL

    def test_start_stop_on_a_resolved_annulus_names_no_h_over_a(self, monkeypatch):
        """Where h/a < 2/(n - 1) the start problem's stop names the Newton
        stop and the rounding floor only."""
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERATIONS", 1)
        with pytest.raises(ContinuationStallError) as err:
            continuation_tau(annulus_spec(8, 8, 0.5, 0.1))
        assert re.fullmatch(r"the tau = 0 start problem did not converge: .*\(iteration "
                            r"limit reached\); rounding floor 4\*eps\*max\(u\)\^2/h\^2 "
                            r"= \S+", str(err.value)), str(err.value)

    @pytest.mark.parametrize("case", ["refused reports", "left the cone"])
    def test_no_earlier_step_report_lives_into_the_next_solve(self, case,
                                                               monkeypatch):
        """Between tau steps continuation_tau holds the accepted profile
        only: while it solves a step, no report of an earlier one (the
        start's, an accepted step's or a refused one's) is alive.  (4, 2,
        0.95) on [0.5, 1] with 2 Newton iterations per step after the start
        refuses steps with non-converged reports and converges; (8, 8) on
        [0.1, 1] has steps leave the cone and stalls before tau = 0.9."""
        refs, alive, stops = [], [], []
        solve = solver.newton_solve

        def tracked(*args):
            alive.append([i for i, ref in enumerate(refs) if ref() is not None])
            report = solve(*args)
            refs.append(weakref.ref(report))
            stops.append(report.converged)
            if case == "refused reports":
                solver.MAX_NEWTON_ITERATIONS = 2
            return report

        monkeypatch.setattr(solver, "newton_solve", tracked)
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERATIONS", solver.MAX_NEWTON_ITERATIONS)
        if case == "refused reports":
            assert continuation_tau(annulus_spec(4, 2, 0.95, 0.5)).converged
            assert False in stops
        else:
            with pytest.raises(ContinuationStallError):
                continuation_tau(annulus_spec(8, 8, 0.9, 0.1))
        assert len(alive) > 3 and alive == [[]] * len(alive)

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

    @pytest.mark.parametrize("delta", [0.1, 0.0])
    @pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (6, 3)])
    def test_target_one_on_the_ball(self, n, k, delta, monkeypatch):
        """The schedule runs 0.05, ..., 0.95 and then tau = 1, the undeformed
        cone.  The ball's solution does not depend on tau, so every step
        after tau = 0 takes 0 iterations; at grid 1000 the profile passes
        perfbench's closed-form check, and at delta = 0 it lies within
        1e-12 of (1 - r^2)/2."""
        spec = ProblemSpec(ConeSpec(n, k), 1.0, Ball(1.0), delta, grid=1000)
        calls = recorded_solves(monkeypatch)
        rep = continuation_tau(spec)
        assert rep.converged and rep.continuation_steps == 20
        assert [call["tau"] for call in calls[1:]] == [
            *np.arange(solver.TAU_STEP, 1.0, solver.TAU_STEP), 1.0]
        assert [call["report"].newton_iterations for call in calls[1:]] == [0] * 20
        r, u = rep.profile.r, rep.profile.u
        ok, err, limit = load_perfbench_oracle().check_profile(
            r, u, domain="ball", n=n, k=k, tau=1.0, delta=delta, tol=NEWTON_TOL)
        assert ok, (err, limit)
        if delta == 0.0:
            assert np.abs(u - (1 - r**2) / 2).max() <= 1e-12

    @pytest.mark.parametrize("delta", [0.1, 0.0])
    @pytest.mark.parametrize("n, inner", [(3, 0.5), (3, 0.1), (5, 0.5), (5, 0.1)])
    def test_k1_annulus_converges_at_target_one(self, n, inner, delta):
        """For k = 1, f^tau = f at every tau, and the annulus converges at
        tau = 1 with its margins off 0, to perfbench's independent residual."""
        spec = annulus_spec(n, 1, 1.0, inner, delta=delta, grid=1000)
        rep = continuation_tau(spec)
        assert rep.converged and rep.admissibility_margin_min > 0.05
        ok, err, limit = load_perfbench_oracle().check_profile(
            rep.profile.r, rep.profile.u, domain="annulus", n=n, k=1, tau=1.0,
            delta=delta, tol=NEWTON_TOL)
        assert ok, (err, limit)

    @pytest.mark.parametrize("n, k", [(4, 2), (6, 3), (5, 4)])
    def test_annulus_with_k_above_1_stalls_short_of_target_one(self, n, k):
        """k >= 2 on [0.5, 1] at grid 1000: the annulus solutions are only
        Lipschitz at tau = 1 (YanYan Li and Luc Nguyen, 2021), their margins
        go to 0 as tau -> 1, and the continuation stalls past tau = 0.999
        with an error that names the tau and its cause."""
        with pytest.raises(ContinuationStallError,
                           match=r"tau continuation stalled at tau = 0\.999\d+: "
                                 r"tau = 0\.999\d+ refused, ") as err:
            continuation_tau(annulus_spec(n, k, 1.0, 0.5, grid=1000))
        assert any(cause in str(err.value) for cause in CAUSES), str(err.value)


def recorded_solves(monkeypatch):
    """Wrap solver.newton_solve: the returned list gets, per call, the tau,
    a copy of the start's u, the tol it ran with and the report (None if
    it raised)."""
    calls, solve = [], solver.newton_solve

    def recorded(init, spec, opts=None):
        call = {"tau": spec.tau, "start": init.u.copy(), "tol": opts.tol, "report": None}
        calls.append(call)
        call["report"] = solve(init, spec, opts)
        return call["report"]

    monkeypatch.setattr(solver, "newton_solve", recorded)
    return calls


def refused(call) -> bool:
    return call["report"] is None or not call["report"].converged


class TestSolverGrid:
    """The solver forms one read-only grid array per (domain, grid), checks
    a profile on it at once and builds its own profiles on it with only u
    checked; every other array gets the full grid check."""

    SPEC = annulus_spec(4, 2, 0.95, 0.5, delta=0.05, grid=100)

    def test_reports_of_one_continuation_share_one_read_only_grid(self, monkeypatch):
        """Every start and report of continuation_tau, and of each delta
        leg, lies on the one array initial_profile gives, which refuses
        writes; spec.radii() stays a new writable array of its values."""
        grids, solve = [], solver.newton_solve

        def recorded(init, spec, opts=None):
            report = solve(init, spec, opts)
            grids.append((spec.grid, init.r, report.profile.r))
            return report

        monkeypatch.setattr(solver, "newton_solve", recorded)
        rep = continuation_tau(self.SPEC)
        sweep = continuation_delta(replace(self.SPEC, grid=40))
        assert rep.converged and sweep.ok and len(grids) > 30
        solver_grids = {grid: initial_profile(replace(self.SPEC, grid=grid)).r
                        for grid in (40, 100)}
        assert all(start is end is solver_grids[grid] for grid, start, end in grids)
        assert all(leg.profile.r is solver_grids[40] for leg in sweep.reports)
        r = solver_grids[100]
        assert rep.profile.r is r
        with pytest.raises(ValueError, match="read-only"):
            rep.profile.r[0] = 0.25
        radii = self.SPEC.radii()
        radii[0] = 0.25
        assert radii is not r and r[0] == 0.5

    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.0)], ids=["ball", "annulus"])
    def test_a_fresh_array_of_the_same_values_gives_the_same_bits(self, domain):
        """newton_solve and residual from a profile on a new array with the
        grid's values give the bits they give on the solver's own, and the
        report lies on the solver's grid."""
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.0, domain=domain, delta=0.05,
                           grid=200)
        start = initial_profile(spec)
        fresh = RadialProfile(r=start.r.copy(), u=start.u.copy())
        got, want = newton_solve(fresh, spec), newton_solve(start, spec)
        assert got.newton_iterations > 1
        assert_same_reports(got, want)
        assert got.profile.r is want.profile.r is start.r
        assert_same_arrays([residual(fresh, spec)], [residual(start, spec)])

    def test_another_grid_is_still_refused(self):
        """The solver's grid of another domain or grid, a new array a few
        rounding units off, and one of another length: GridMismatchError
        from newton_solve and residual alike."""
        u = initial_profile(self.SPEC).u
        grid = initial_profile(self.SPEC).r
        for r in (initial_profile(replace(self.SPEC, domain=Annulus(0.5, 1.5))).r,
                  np.nextafter(grid, 2.0) * (1 + 1e-11), grid[:-1]):
            profile = RadialProfile(r=r, u=u[:r.size])
            for call in (newton_solve, residual):
                with pytest.raises(GridMismatchError,
                                   match="^profile grid does not match the problem grid$"):
                    call(profile, self.SPEC)
        other = initial_profile(replace(self.SPEC, grid=101))
        with pytest.raises(GridMismatchError):
            newton_solve(other, self.SPEC)

    @pytest.mark.parametrize("spoil", ["short", "negative", "nan", "inf", "zero-centre",
                                       "negative-end"])
    def test_profiles_on_the_grid_check_u_as_radial_profile_does(self, spoil):
        """RadialProfile._on_grid refuses every u that RadialProfile refuses
        on that grid, with the same error and message; _corrector refuses
        such a prediction with its cause."""
        ball = ball_spec(grid=50)
        r, u = initial_profile(ball).r, initial_profile(ball).u.copy()
        u = {"short": u[:-1], "negative": np.where(np.arange(u.size) == 7, -u, u),
             "nan": np.where(np.arange(u.size) == 7, np.nan, u),
             "inf": np.where(np.arange(u.size) == 7, np.inf, u),
             "zero-centre": np.where(np.arange(u.size) == 0, 0.0, u),
             "negative-end": np.where(np.arange(u.size) == u.size - 1, -1e-300, u)}[spoil]
        with pytest.raises(LnlabError) as public:
            RadialProfile(r=r, u=u)
        with pytest.raises(type(public.value), match=f"^{re.escape(str(public.value))}$"):
            RadialProfile._on_grid(r, u)
        if spoil != "short":
            assert solver._corrector(lambda: RadialProfile._on_grid(r, u), ball,
                                     solver.NewtonOptions()) == (
                None, "the predicted start is not finite and positive")


# Cones (n, k, tau) and domains (as (inner, outer), inner None for a ball)
# that the dilation test scales; its exponents m span the float range's
# middle at grid 200.
DILATION_CONES = [(3, 1, 0.9), (4, 2, 0.95), (6, 3, 0.9), (5, 4, 0.9)]
DILATION_DOMAINS = [(None, 1.0), (0.5, 1.0), (0.1, 1.0)]


@functools.lru_cache(maxsize=None)
def dilated_solve(cone, domain, m):
    """continuation_tau at grid 200 and delta 0.05, with the domain and
    delta dilated by 2^m."""
    (n, k, tau), (inner, outer), scale = cone, domain, 2.0**m
    region = Ball(outer * scale) if inner is None else Annulus(inner * scale, outer * scale)
    return continuation_tau(ProblemSpec(cone=ConeSpec(n, k), tau=tau, domain=region,
                                        delta=0.05 * scale, grid=200))


@pytest.mark.parametrize("m", [-30, -7, 5, 40])
@pytest.mark.parametrize("domain", DILATION_DOMAINS, ids=["ball", "annulus-0.5", "annulus-0.1"])
@pytest.mark.parametrize("cone", DILATION_CONES, ids=lambda cone: "-".join(map(str, cone)))
def test_continuation_tau_is_bit_covariant_under_dilation(cone, domain, m):
    """x -> 2^m x maps the solution u to 2^m u(x / 2^m) with datum 2^m delta:
    h scales by 2^m, the spectra and every tolerance are scale-free, and
    floating point keeps powers of 2 exact.  So the dilated solve gives
    2^m times the grid and the profile, the same residuals and margins,
    and the same counts, bit for bit; with one grid cached for every
    domain it would not."""
    got, want = dilated_solve(cone, domain, m), dilated_solve(cone, domain, 0)
    scale = 2.0**m
    assert want.converged
    assert_same_arrays([got.profile.r, got.profile.u, got.residual_nodes, got.margin_nodes],
                       [want.profile.r * scale, want.profile.u * scale,
                        want.residual_nodes, want.margin_nodes])
    assert ((got.newton_iterations, got.continuation_steps, got.newton_stop)
            == (want.newton_iterations, want.continuation_steps, want.newton_stop))


def dilated(spec: ProblemSpec, m: int) -> ProblemSpec:
    """spec with its radii and its datum multiplied by 2^m."""
    d = spec.domain
    domain = (Ball(np.ldexp(d.radius, m)) if isinstance(d, Ball)
              else Annulus(np.ldexp(d.inner, m), np.ldexp(d.outer, m)))
    return replace(spec, domain=domain, delta=float(np.ldexp(spec.delta, m)))


def outcome_of(run, spec):
    """run(spec), or for an lnlab error its scale-free part: its type, its
    worst node and margin, and a stall's message, which names only
    scale-free numbers (tau, the residual, the rounding floor, h/a)."""
    try:
        return run(spec)
    except LnlabError as err:
        return (type(err), getattr(err, "worst_node", None), getattr(err, "margin", None),
                str(err) if isinstance(err, ContinuationStallError) else None)


def assert_dilated_report(got, want, scale):
    assert_same_arrays([got.profile.r, got.profile.u, got.residual_nodes, got.margin_nodes],
                       [want.profile.r * scale, want.profile.u * scale,
                        want.residual_nodes, want.margin_nodes])
    assert ((got.newton_iterations, got.continuation_steps, got.newton_stop)
            == (want.newton_iterations, want.continuation_steps, want.newton_stop))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(3, 12), data=st.data(),
       tau=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True),
                     st.floats(1.0, 4.0).map(lambda e: 1.0 - 10.0**-e)),
       outer=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
       ratio=st.one_of(st.none(), st.floats(-3.0, np.log10(0.99)).map(lambda e: 10.0**e)),
       datum=st.one_of(st.just(0.0), st.floats(-6.0, 1.0).map(lambda e: 10.0**e)),
       grid=st.integers(8, 100), m=st.integers(-60, 60))
def test_both_continuations_are_bit_covariant_on_the_census_box(n, data, tau, outer, ratio,
                                                                  datum, grid, m):
    """The census box (benchmarks/census.py) at grids up to 100, dilated
    by 2^m: continuation_tau and continuation_delta give 2^m times the
    grid and every profile, the same residuals, margins, counts and
    stops, bit for bit, and the same refusals; a stopped sweep stops at
    2^m times the same datum, for the same warm-start refusal."""
    k = data.draw(st.integers(1, n), label="k")
    domain = Ball(outer) if ratio is None else Annulus(ratio * outer, outer)
    spec = ProblemSpec(cone=ConeSpec(n, k), tau=tau, domain=domain, delta=datum * outer,
                       grid=grid)
    scale = 2.0**m
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (continuation_tau, continuation_delta):
            got, want = outcome_of(run, dilated(spec, m)), outcome_of(run, spec)
            if isinstance(want, tuple):
                assert got == want
            elif run is continuation_tau:
                assert_dilated_report(got, want, scale)
            else:
                assert len(got.reports) == len(want.reports)
                for a, b in zip(got.reports, want.reports):
                    assert_dilated_report(a, b, scale)
                assert got.failed_delta == (None if want.ok else want.failed_delta * scale)
                warm = [sweep.failure and sweep.failure.partition("fresh")[0]
                        for sweep in (got, want)]
                assert warm[0] == warm[1]


# Found by the census: on this annulus (6, 1) converges, and k >= 2 stalls
# for any target tau.  Before the predictor-corrector steps, continuation_tau
# stalled here after 458 (k = 2) and 508 (k = 3) newton_solve calls at every
# target; loose waypoints through the whole halving chain made up to 8,979.
TINY_ANNULUS = Annulus(2.3512740663052053e-58, 3.7274598712693967e-44)
TINY_DATUM = 1.0122155116797562e-241
TINY_ANNULUS_K2 = ProblemSpec(ConeSpec(6, 2), 0.4, TINY_ANNULUS, TINY_DATUM, grid=1000)
PARENT_NEWTON_CALLS = {2: 458, 3: 508}


class TestPredictorCorrector:
    """continuation_tau's steps: the secant predictor, one Newton solve
    from it per step, and the loose corrector at waypoints."""

    SPEC = annulus_spec(4, 2, 0.95, 0.5, delta=0.05, grid=100)

    def test_each_step_starts_from_the_secant_through_the_last_two(self, monkeypatch):
        """Nothing is refused on (4, 2, .95) over [0.5, 1]: one solve per
        tau of the fixed schedule.  The first step starts from the tau = 0
        solution; each later one from the secant through the last two
        accepted profiles, the very array _secant gives."""
        calls = recorded_solves(monkeypatch)
        rep = continuation_tau(self.SPEC)
        assert rep.converged and rep.continuation_steps == 19
        assert [c["tau"] for c in calls] == [0.0] + [t for t in np.arange(0.05, 0.95, 0.05)
                                                     if t < 0.95] + [0.95]
        assert not any(refused(c) for c in calls)
        accepted = [(c["tau"], c["report"].profile.u) for c in calls]
        assert np.array_equal(calls[1]["start"], accepted[0][1])
        for i in range(2, len(calls)):
            (t0, u0), (t1, u1) = accepted[i - 2], accepted[i - 1]
            assert np.array_equal(calls[i]["start"],
                                  solver._secant(calls[i]["tau"], t1, u1, t0, u0)), i

    def test_secant_is_one_array_and_exact_on_a_line(self):
        """u1 + (x - x1)(u1 - u0)/(x1 - x0): exact on profiles linear in x,
        and equal to u1, bit for bit, where u0 == u1 (the ball's tau steps)."""
        u0, u1 = np.array([1.0, 2.0, 4.0]), np.array([1.5, 2.5, 5.0])
        assert np.array_equal(solver._secant(0.3, 0.2, u1, 0.1, u0), [2.0, 3.0, 6.0])
        assert np.array_equal(solver._secant(0.95, 0.9, u1, 0.85, u1.copy()), u1)

    @pytest.mark.parametrize("bad, cause", [
        ("negative", "the predicted start is not finite and positive"),
        ("dip", "the step left the cone"),
        ("spike", "line search found no admissible descent step")],
        ids=["negative", "dip", "spike"])
    def test_a_refused_prediction_refuses_the_step(self, bad, cause, monkeypatch):
        """A step is one Newton solve, from its prediction.  With every
        prediction spoiled, one that RadialProfile refuses (negative), that
        Newton refuses (a dip that leaves the cone) or from which Newton
        stops short (a spike) refuses its step: no solve after the first
        step starts from the last profile, each refused tau is halved, and
        the continuation stalls at tau = 0.05 naming the spoil's cause."""
        def spoiled(x, x1, u1, x0, u0):
            u = u1.copy()
            if bad == "negative":
                return np.negative(u, out=u)
            u[u.size // 2] *= 0.1 if bad == "dip" else 10.0
            return u

        calls = recorded_solves(monkeypatch)
        monkeypatch.setattr(solver, "_secant", spoiled)
        with pytest.raises(ContinuationStallError,
                           match=r"stalled at tau = 0\.050000: tau = 0\.0500\d* "
                                 r"refused, .*" + re.escape(cause)):
            continuation_tau(self.SPEC)
        assert [c["tau"] for c in calls[:2]] == [0.0, 0.05]
        assert np.array_equal(calls[1]["start"], calls[0]["report"].profile.u)
        last = calls[1]["report"].profile.u
        # RadialProfile refuses a negative start before newton_solve.
        assert len(calls) == 2 if bad == "negative" else len(calls) > 2
        assert all(refused(c) for c in calls[2:])
        assert all((c["report"] is None) == (bad == "dip") for c in calls[2:])
        assert not any(np.array_equal(c["start"], last) for c in calls[2:])
        assert [c["tau"] for c in calls[2:]] == [0.05 + 0.05 * 0.5**i
                                                 for i in range(len(calls) - 2)]

    def test_waypoints_stop_at_waypoint_tol_and_the_target_at_tol(self, monkeypatch):
        """The tau = 0 start and the target run to opts.tol, every waypoint
        between to WAYPOINT_TOL, and stops there: one report per tau, each
        at "tolerance" with a residual within its own tol.  With opts.tol
        above WAYPOINT_TOL every solve runs to opts.tol."""
        calls = recorded_solves(monkeypatch)
        continuation_tau(self.SPEC)
        tols = [c["tol"] for c in calls]
        assert tols == [NEWTON_TOL] + [solver.WAYPOINT_TOL] * 18 + [NEWTON_TOL]
        for c in calls:
            assert c["report"].newton_stop == "tolerance"
            assert c["report"].residual_sup <= c["tol"]
        calls.clear()
        continuation_tau(self.SPEC, solver.NewtonOptions(tol=1e-2))
        assert {c["tol"] for c in calls} == {1e-2}

    @pytest.mark.parametrize("spec", [annulus_spec(8, 8, 0.9, 0.1), TINY_ANNULUS_K2],
                             ids=["8-8-annulus-0.1", "tiny-annulus-6-2"])
    def test_after_the_first_refused_step_every_solve_runs_to_tol(self, spec,
                                                                 monkeypatch):
        """Waypoints run to WAYPOINT_TOL until a step is refused (its one
        solve, from the prediction, refused), and every later solve to
        opts.tol: loose waypoints crept on through the halving chain (6, 3,
        .4) on the tiny annulus made 8,979 newton_solve calls that way."""
        calls = recorded_solves(monkeypatch)
        with pytest.raises(ContinuationStallError):
            continuation_tau(spec)
        tols = [c["tol"] for c in calls]
        first = tols.index(NEWTON_TOL, 1)
        assert set(tols[1:first]) == {solver.WAYPOINT_TOL}
        assert set(tols[first:]) == {NEWTON_TOL}
        # The refused solve from the prediction, then the halved step.
        assert refused(calls[first - 1]) and calls[first]["tau"] < calls[first - 1]["tau"]

    def test_a_refused_waypoint_names_the_tol_it_ran_with(self, monkeypatch):
        """A waypoint solve stopped short names WAYPOINT_TOL, not opts.tol:
        from the tau = 0 solution the residual at tau = 0.9 is 0.18, and
        Newton is cut at 0 iterations."""
        spec = replace(self.SPEC, tau=0.0)
        start = newton_solve(initial_profile(spec), spec).profile
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERATIONS", 0)
        trial, refusal = solver._corrector(lambda: start, replace(spec, tau=0.9),
                                           solver.NewtonOptions(tol=solver.WAYPOINT_TOL))
        assert trial is None
        assert "after 0 iterations, above tol 1.0e-03 (iteration limit reached)" in refusal

    def test_the_prediction_is_freed_once_newton_copies_it(self, monkeypatch):
        """Between tau steps continuation_tau holds one u array beyond the
        last profile: the prediction it builds for a step is gone before
        newton_solve's first evaluation."""
        refs, alive = [], []
        secant, evaluate = solver._secant, solver._evaluate

        def tracked_secant(*args):
            u = secant(*args)
            refs.append(weakref.ref(u))
            return u

        def tracked_evaluate(*args):
            alive.append(sum(ref() is not None for ref in refs))
            return evaluate(*args)

        monkeypatch.setattr(solver, "_secant", tracked_secant)
        monkeypatch.setattr(solver, "_evaluate", tracked_evaluate)
        assert continuation_tau(self.SPEC).converged
        assert len(refs) == 18 and set(alive) == {0}


@pytest.mark.parametrize("tau", [0.4, 0.5, 0.9])
@pytest.mark.parametrize("k", [2, 3])
def test_tiny_annulus_stalls_within_the_parents_newton_calls(k, tau, monkeypatch):
    """(6, k) on the tiny annulus stalls, naming its cause, in at most as
    many newton_solve calls as the fixed schedule made before the
    predictor-corrector steps (75 and 98 with them), counted at the module
    global.  A call past
    that bound fails the test at once, so a creep fails in a fraction of a
    second, not after minutes."""
    calls, solve = [], solver.newton_solve

    def bounded(*args):
        calls.append(None)
        assert len(calls) <= PARENT_NEWTON_CALLS[k], "newton_solve calls past the bound"
        return solve(*args)

    monkeypatch.setattr(solver, "newton_solve", bounded)
    spec = ProblemSpec(ConeSpec(6, k), tau, TINY_ANNULUS, TINY_DATUM, grid=1000)
    with pytest.raises(ContinuationStallError, match="tau continuation stalled at") as err:
        continuation_tau(spec)
    assert any(cause in str(err.value) for cause in CAUSES), str(err.value)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 8), data=st.data(),
       tau=st.one_of(st.floats(0.0, 0.95), st.just(1.0)),
       inner=st.one_of(st.none(), st.floats(0.1, 0.9)), grid=st.integers(8, 60),
       delta=st.one_of(st.just(0.0), st.floats(0.0, 0.2)))
def test_cold_tau_continuation_converges_or_names_its_cause(n, data, tau, inner,
                                                            grid, delta):
    """With warnings as errors, a cold continuation_tau on a ball or an
    annulus [a, 1] with a in [0.1, 0.9] converges, its target report
    stopped at "tolerance" or "rounding floor", or raises an error that
    names one of CAUSES.  On a ball the solution does not depend on tau, so
    every tau step after the start takes 0 Newton iterations (perfbench
    pins the same for (4, 2, .95) at grid 200)."""
    k = data.draw(st.integers(1, n), label="k")
    domain = Ball(1.0) if inner is None else Annulus(inner, 1.0)
    spec = ProblemSpec(cone=ConeSpec(n, k), tau=tau, domain=domain, delta=delta, grid=grid)
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        calls = recorded_solves(patch)
        try:
            rep = continuation_tau(spec)
        except LnlabError as err:
            assert any(cause in str(err) for cause in CAUSES), str(err)
            return
    assert rep.converged and rep.newton_stop in ("tolerance", "rounding floor")
    if inner is None:
        assert [c["report"].newton_iterations for c in calls[1:]] == [0] * (len(calls) - 1)


class TestContinuationDelta:
    def test_sweep_monotone_and_stabilizing(self):
        spec = ball_spec(grid=300)
        sweep = continuation_delta(spec)
        assert sweep.ok
        assert sweep.deltas == list(DELTA_SCHEDULE)
        assert sweep.monotonicity_max_violation == 0.0
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

    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.0)],
                             ids=["ball", "annulus"])
    def test_warm_legs_start_on_the_secant(self, domain, monkeypatch):
        """Leg 1 starts at u_0 + (delta_1 - delta_0); leg i >= 2 at
        u_{i-1} + (delta_i - delta_{i-1}) / (delta_{i-1} - delta_{i-2})
        (u_{i-1} - u_{i-2}), from the converged legs' reports, and Newton
        takes every such start without a fallback."""
        starts, calls = [], []
        leg_start, fallback = solver._leg_start, solver.continuation_tau

        def recorded(reports, delta):
            start = leg_start(reports, delta)
            starts.append((len(reports), delta, start.u))
            return start

        def counted(spec, opts=None):
            calls.append(spec.delta)
            return fallback(spec, opts)

        monkeypatch.setattr(solver, "_leg_start", recorded)
        monkeypatch.setattr(solver, "continuation_tau", counted)
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.9, domain=domain, delta=0.1, grid=60)
        sweep = continuation_delta(spec)
        d = DELTA_SCHEDULE
        assert sweep.ok and calls == [d[0]]
        assert [(legs, delta) for legs, delta, _ in starts] == [(i, d[i]) for i in range(1, 11)]
        u = [rep.profile.u for rep in sweep.reports]
        assert np.array_equal(starts[0][2], u[0] + (d[1] - d[0]))
        for i in range(2, 11):
            want = u[i - 1] + (d[i] - d[i - 1]) / (d[i - 1] - d[i - 2]) * (u[i - 1] - u[i - 2])
            got = starts[i - 1][2]
            assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * u[i - 1].max()
            assert got[-1] == pytest.approx(d[i], rel=1e-12)

    @pytest.mark.parametrize("domain, most", [(Ball(1.0), 16), (Annulus(0.5, 1.0), 22)],
                             ids=["ball", "annulus"])
    def test_warm_leg_newton_iterations(self, domain, most):
        """(4, 2, .95) at grid 200: the ten warm legs take 16 Newton
        iterations on the ball and 22 on [0.5, 1] from the secant start; a
        start that only moves the boundary values takes 24 and 28."""
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.95, domain=domain, delta=0.1, grid=200)
        sweep = continuation_delta(spec)
        assert sweep.ok
        assert all(rep.continuation_steps == 0 for rep in sweep.reports[1:])
        assert sum(rep.newton_iterations for rep in sweep.reports[1:]) <= most

    def test_target_one_on_the_ball_runs_every_leg(self):
        """At tau = 1 the first leg's tau continuation converges on the
        (4, 2) ball, and so do all 11 legs, each at tau = 1."""
        sweep = continuation_delta(ball_spec(n=4, k=2, tau=1.0, grid=24))
        assert sweep.ok and sweep.deltas == list(DELTA_SCHEDULE)
        assert all(rep.converged and rep.tau == 1.0 for rep in sweep.reports)

    def test_summaries_follow_the_reports(self):
        """deltas and monotonicity_max_violation are read from the reports:
        a copy with the first 4 reads 4 deltas, and its monotonicity over
        those legs alone."""
        sweep = continuation_delta(ball_spec(grid=50))
        short = replace(sweep, reports=sweep.reports[:4])
        assert short.deltas == sweep.deltas[:4] == list(DELTA_SCHEDULE[:4])
        rising = replace(sweep, reports=sweep.reports[:4] + sweep.reports[:1])
        excess = float(np.max(sweep.reports[0].profile.u - sweep.reports[3].profile.u))
        assert rising.monotonicity_max_violation == excess > 0.0
        assert replace(rising, reports=rising.reports[:4]).monotonicity_max_violation == 0.0
        assert sweep.monotonicity_max_violation == 0.0

    def test_monotonicity_flags_the_legs_comparison_check_refuses(self):
        """A leg is recorded exactly when comparison_check refuses it
        against the leg before, past the allowance h^2/b: on the ball of
        radius 2 at grid 50, a leg half that amount above the last is not,
        one twice that amount above it is."""
        sweep = continuation_delta(ProblemSpec(cone=ConeSpec(3, 1), tau=0.9,
                                               domain=Ball(2.0), delta=0.1, grid=50))
        first = sweep.reports[0]
        allowance = first.profile.h**2 / 2.0
        for rise, flagged in ((0.5 * allowance, False), (2.0 * allowance, True)):
            raised = replace(first, profile=RadialProfile(r=first.profile.r,
                                                          u=first.profile.u + rise))
            refused = not comparison_check(raised.profile, first.profile)
            record = replace(sweep, reports=[first, raised]).monotonicity_max_violation
            assert refused == flagged
            assert record == (float(np.max(raised.profile.u - first.profile.u))
                              if flagged else 0.0)

    def test_records_a_monotonicity_violation_above_h_squared(self, monkeypatch):
        """A leg whose profile exceeds the last one's by more than h^2
        somewhere is recorded: monotonicity_max_violation is the largest
        such excess.  With the datum raised leg by leg, each profile lies
        above the last, by the datum's rise at the boundary."""
        monkeypatch.setattr(solver, "DELTA_SCHEDULE", (0.05, 0.1, 0.2))
        sweep = continuation_delta(ball_spec(grid=50))
        assert sweep.ok and sweep.deltas == [0.05, 0.1, 0.2]
        u = [rep.profile.u for rep in sweep.reports]
        excess = [float(np.max(b - a)) for a, b in zip(u, u[1:])]
        assert min(excess) > (1 / 50)**2
        assert sweep.monotonicity_max_violation == max(excess) >= 0.1


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 8), data=st.data(),
       tau=st.one_of(st.floats(0.0, 0.95), st.just(1.0)),
       inner=st.one_of(st.none(), st.floats(0.1, 0.9)), grid=st.integers(8, 60))
def test_delta_sweep_completes_or_names_its_leg(n, data, tau, inner, grid):
    """With warnings as errors, a delta sweep on a ball or an annulus [a, 1]
    with a in [0.1, 0.9] raises nothing: it runs every leg of
    DELTA_SCHEDULE, or names in failed_delta the leg after its last
    converged one."""
    k = data.draw(st.integers(1, n), label="k")
    domain = Ball(1.0) if inner is None else Annulus(inner, 1.0)
    spec = ProblemSpec(cone=ConeSpec(n, k), tau=tau, domain=domain, delta=0.1, grid=grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = continuation_delta(spec)
    done = len(sweep.reports)
    assert sweep.deltas == list(DELTA_SCHEDULE[:done])
    assert all(rep.converged for rep in sweep.reports)
    if sweep.ok:
        assert done == len(DELTA_SCHEDULE) and sweep.failure is None
    else:
        assert sweep.failed_delta == DELTA_SCHEDULE[done]
        assert ("warm start refused: " in sweep.failure) == (done > 0)
        assert "fresh tau continuation failed: " in sweep.failure


def same_report(a, b):
    """Equal scalar fields, Newton stops and node arrays, bit for bit."""
    return (a.to_dict() == b.to_dict() and a.newton_stop == b.newton_stop
            and all(np.array_equal(x, y) for x, y in (
                (a.profile.u, b.profile.u), (a.residual_nodes, b.residual_nodes),
                (a.margin_nodes, b.margin_nodes))))


def load_perfbench_oracle():
    """perfbench/oracle.py, the ball's closed form and the limit the
    benchmark's output checks hold a profile to."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


class TestZeroDatum:
    """delta = 0, the Loewner-Nirenberg problem itself, is an ordinary
    datum: a cold tau continuation converges, u is +0.0 at every Dirichlet
    row, and on the ball the profile is (1 - r^2)/2."""

    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.0), Annulus(0.1, 1.0)],
                             ids=["ball", "annulus-0.5", "annulus-0.1"])
    @pytest.mark.parametrize("n, k, tau", [(3, 1, 0.9), (4, 2, 0.95), (5, 4, 0.9)])
    def test_tau_continuation_at_zero_datum(self, domain, n, k, tau):
        spec = ProblemSpec(cone=ConeSpec(n, k), tau=tau, domain=domain,
                           delta=0.0, grid=250)
        rep = continuation_tau(spec)
        assert rep.converged and rep.newton_stop in ("tolerance", "rounding floor")
        assert rep.delta == 0.0 and rep.admissibility_margin_min > MARGIN_FLOOR
        rows = solver._pde_rows(spec)
        ends = np.concatenate((rep.profile.u[:rows.start], rep.profile.u[rows.stop:]))
        assert ends.size == (1 if isinstance(domain, Ball) else 2)
        assert (ends == 0.0).all() and not np.signbit(ends).any()
        assert (rep.profile.u[rows] > 0.0).all()
        if isinstance(domain, Ball):
            oracle = load_perfbench_oracle()
            r, u = rep.profile.r, rep.profile.u
            ok, err, limit = oracle.check_profile(r, u, domain="ball", n=n, k=k,
                                                  tau=tau, delta=0.0, tol=NEWTON_TOL)
            assert ok, (err, limit)
            assert np.abs(u - (1 - r**2) / 2).max() <= limit
            assert abs(rep.boundary_slope - 1.0) <= 1e-9


class TestDeltaFallback:
    """continuation_delta falls back to a fresh tau continuation when a
    leg's warm start fails, and records the first leg where that fails too."""

    SPEC = ball_spec(grid=50)
    LEG = 3

    @pytest.fixture
    def inadmissible_start(self, monkeypatch):
        """_leg_start hands leg LEG a constant start, whose spectra are 0:
        newton_solve refuses it as inadmissible."""
        leg_start = solver._leg_start

        def patched(reports, delta):
            if delta == DELTA_SCHEDULE[self.LEG]:
                r = reports[-1].profile.r
                return RadialProfile(r=r, u=np.ones_like(r))
            return leg_start(reports, delta)

        monkeypatch.setattr(solver, "_leg_start", patched)

    def test_failed_warm_start_falls_back_to_tau_continuation(self, inadmissible_start):
        sweep = continuation_delta(self.SPEC)
        assert sweep.ok and sweep.deltas == list(DELTA_SCHEDULE)
        leg_spec = replace(self.SPEC, delta=DELTA_SCHEDULE[self.LEG])
        fresh = continuation_tau(leg_spec)
        assert same_report(sweep.reports[self.LEG], fresh)
        assert fresh.continuation_steps > 0

    def test_start_refused_by_radial_profile_falls_back(self, monkeypatch):
        """Leg LEG's start is the secant rule run to a datum far below 0,
        which is negative inside: RadialProfile refuses it, and the leg is
        a fresh tau continuation."""
        leg_start, refused = solver._leg_start, []

        def patched(reports, delta):
            if delta == DELTA_SCHEDULE[self.LEG]:
                try:
                    return leg_start(reports, -10.0)
                except InvalidProfileError:
                    refused.append(delta)
                    raise
            return leg_start(reports, delta)

        monkeypatch.setattr(solver, "_leg_start", patched)
        sweep = continuation_delta(self.SPEC)
        assert refused == [DELTA_SCHEDULE[self.LEG]]
        assert sweep.ok and sweep.deltas == list(DELTA_SCHEDULE)
        fresh = continuation_tau(replace(self.SPEC, delta=DELTA_SCHEDULE[self.LEG]))
        assert same_report(sweep.reports[self.LEG], fresh)

    def test_census_sweep_completes_through_the_fallback(self, monkeypatch):
        """(7, 7, .98542) on Annulus(5.5610, 8.1530) at grid 324, a census
        spec: Newton refuses leg 2's warm start, outside the cone, and the
        fresh tau continuation that leg falls back to (20 steps) lets the
        sweep run all 11 legs, DELTA_SCHEDULE times the outer radius."""
        spec = ProblemSpec(cone=ConeSpec(7, 7), tau=0.9854235510351995,
                           domain=Annulus(5.5609770835545245, 8.153023285648048),
                           delta=0.1, grid=324)
        calls, fallback = [], solver.continuation_tau

        def counted(spec, opts=None):
            calls.append(spec.delta)
            return fallback(spec, opts)

        monkeypatch.setattr(solver, "continuation_tau", counted)
        sweep = continuation_delta(spec)
        legs = [d * spec.domain.outer for d in DELTA_SCHEDULE]
        assert sweep.ok and sweep.deltas == legs
        assert calls == [legs[0], legs[2]]
        assert [rep.continuation_steps for rep in sweep.reports[1:]] == [0, 20] + [0] * 8

    def test_failed_fallback_ends_the_sweep_at_that_leg(self, inadmissible_start,
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
        assert re.fullmatch(r"warm start refused: the step left the cone \(worst node "
                            r"\d+, margin \S+\); fresh tau continuation failed: stalled",
                            sweep.failure)
        assert sweep.deltas == list(DELTA_SCHEDULE[:self.LEG])
        assert len(sweep.reports) == self.LEG
        assert all(same_report(a, b) for a, b in zip(sweep.reports, clean.reports))


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

    def test_boundary_slope_refuses_fewer_than_five_nodes(self):
        """The three interior nodes and the boundary node it reads, and one
        more: four nodes are refused by name."""
        r = np.linspace(0.0, 1.0, 4)
        with pytest.raises(InvalidArgumentError, match="at least 5 grid nodes"):
            boundary_slope(RadialProfile(r=r, u=1.0 - r**2 / 2))
        r = np.linspace(0.0, 1.0, 5)
        assert boundary_slope(RadialProfile(r=r, u=1.0 - r)) == pytest.approx(1.0)

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
    odd = [np.inf, np.nan, -0.0, 5e-324, 1e22, 1 / 3, 2.2250738585072014e-308,
           -1e-300, 123456789.0]
    profile = RadialProfile(r=np.linspace(0.0, 1.0, 9),
                            u=[1 / 3, 1e22, 5e-324, 0.1, 2 / 3, 1e-310, 7e300, 0.5, -0.0])
    return SolveReport(spec=ball_spec(delta=0.0, grid=8), profile=profile,
                       newton_iterations=0, continuation_steps=0,
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

    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.0)],
                             ids=["ball", "annulus"])
    def test_profile_summaries_follow_a_replaced_profile(self, domain):
        """grad_sup, boundary_slope, c0_min and c0_max are read from the
        profile, so a copy with another profile reports that profile's.
        Doubling u doubles each of them exactly: every stencil, difference
        quotient and bound scales by 2 without rounding."""
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.9, domain=domain,
                           delta=0.05, grid=100)
        rep = continuation_tau(spec)
        before = rep.to_dict()
        doubled = replace(rep, profile=RadialProfile(r=rep.profile.r, u=2 * rep.profile.u))
        after = doubled.to_dict()
        for name in ("grad_sup", "boundary_slope", "c0_min", "c0_max"):
            assert after[name] == 2 * before[name] != before[name], name
        assert (doubled.grad_sup, doubled.boundary_slope) == (after["grad_sup"],
                                                              after["boundary_slope"])
        assert rep.to_dict() == before

    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.0)],
                             ids=["ball", "annulus"])
    def test_stored_summaries_follow_a_replaced_field(self, domain):
        """converged is read from newton_stop, residual_sup from
        residual_nodes, admissibility_margin_min from the PDE rows of
        margin_nodes, and tau and delta from the spec: a copy with another
        of them reports that one's."""
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.9, domain=domain,
                           delta=0.05, grid=100)
        rep = continuation_tau(spec)
        assert rep.converged and replace(rep, newton_stop="rounding floor").converged
        assert not replace(rep, newton_stop="line search").converged
        assert not replace(rep, newton_stop="iteration limit").converged
        doubled = replace(rep, residual_nodes=2 * rep.residual_nodes)
        assert doubled.residual_sup == 2 * rep.residual_sup != rep.residual_sup
        rows = solver._pde_rows(spec)
        margins = rep.margin_nodes.copy()
        margins[-1] = -1.0                      # a Dirichlet row: not read
        assert rep.admissibility_margin_min == float(rep.margin_nodes[rows].min())
        assert (replace(rep, margin_nodes=margins).admissibility_margin_min
                == rep.admissibility_margin_min)
        margins[rows.stop - 1] = 1e-20
        assert replace(rep, margin_nodes=margins).admissibility_margin_min == 1e-20
        other = replace(rep, spec=replace(spec, tau=0.5, delta=0.01))
        assert (other.tau, other.delta) == (0.5, 0.01)
        assert (other.to_dict()["tau"], other.to_dict()["delta"]) == (0.5, 0.01)

    @pytest.mark.parametrize("domain", [Ball(1.0), Annulus(0.5, 1.0)],
                             ids=["ball", "annulus"])
    def test_residual_nodes_are_the_residual_of_the_profile_and_spec(self, domain):
        """A report carries the spec it solved, so residual() re-checks it
        with no second argument: |residual(profile, spec)| is
        residual_nodes bit for bit, for a tau continuation and every leg of
        a delta sweep."""
        spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.9, domain=domain,
                           delta=0.05, grid=100)
        for rep in [continuation_tau(spec), *continuation_delta(spec).reports]:
            assert_same_arrays([np.abs(residual(rep.profile, rep.spec))],
                               [rep.residual_nodes])

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
