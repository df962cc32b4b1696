"""Schouten spectra: exact model metrics, convergence order, rescaling bounds."""

import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnlab import (BackgroundData, RadialProfile, barrier_profile,
                   hyperbolic_ball_profile, radial_schouten_spectrum,
                   ricci_spectrum_from_schouten, spectrum_field)
from lnlab.admissible import N_SCAN, find_N
from lnlab.schouten import (_eigenpair, _radial_stencil,
                            rescaled_metric_spectrum_bound)
from lnlab.errors import (InvalidArgumentError, InvalidProfileError, LnlabError,
                          NoCertificateError)


class TestRadialProfile:
    def test_validation(self):
        r = np.linspace(0, 1, 11)
        with pytest.raises(InvalidArgumentError):
            RadialProfile(r=r, u=np.ones(5))
        with pytest.raises(InvalidArgumentError):
            RadialProfile(r=r[::-1], u=np.ones(11))
        with pytest.raises(InvalidProfileError):
            RadialProfile(r=r, u=np.linspace(1, -0.1, 11))
        # zero at the endpoint is allowed (Dirichlet data)
        RadialProfile(r=r, u=(1 - r**2))
        # a ball's centre is interior: zero there is refused
        with pytest.raises(InvalidProfileError):
            RadialProfile(r=r, u=(1 - r**2)[::-1])
        # an annulus's inner end is a boundary: zero there is allowed
        annulus = np.linspace(0.5, 1.0, 11)
        RadialProfile(r=annulus, u=(annulus - 0.5) * (1.5 - annulus))
        with pytest.raises(InvalidProfileError):
            RadialProfile(r=annulus, u=annulus - 0.55)
        # Arrays of strings, bools or objects are refused by name; integer
        # arrays convert.
        for bad in (["0", "0.5", "1", "1.5"], [False, True, True, True],
                    [None, 0.5, 1.0, 1.5]):
            with pytest.raises(InvalidArgumentError, match="^r must be an array of real"):
                RadialProfile(r=bad, u=[1, 1, 1, 0])
            with pytest.raises(InvalidArgumentError, match="^u must be an array of real"):
                RadialProfile(r=np.linspace(0, 1.5, 4), u=bad)
        prof = RadialProfile(r=[0, 1, 2, 3], u=[3, 2, 1, 0])
        assert prof.r.dtype == prof.u.dtype == np.float64

    def test_nonuniform_rejected(self):
        r = np.array([0.0, 0.1, 0.25, 0.4, 0.5])
        with pytest.raises(InvalidArgumentError):
            RadialProfile(r=r, u=np.ones(5))

    def test_spacing_floor_scales_with_the_outer_radius(self):
        """Below radius 1 the absolute floor shrinks with the outer radius:
        these radii, steps 1e-14 and 3e-14 apart, are not uniform, while a
        grid a + h * arange on an annulus of outer radius 1e-6 still is."""
        with pytest.raises(InvalidArgumentError, match="^grid spacing must be uniform$"):
            RadialProfile(r=[1e-14, 2e-14, 5e-14, 6e-14, 7e-14], u=np.ones(5))
        a, h = 5e-7, 5e-7 / 50
        RadialProfile(r=a + h * np.arange(51), u=np.ones(51))

    def test_non_finite_factors_refused(self):
        r = np.linspace(0, 1, 5)
        for u in ([np.nan, 1, np.nan, 1, np.inf], [1, 1, 1, 1, np.nan],
                  [1, 1, np.inf, 1, 0], [1, 1, -np.inf, 1, 0], [1, 1, 1, 1, -np.inf]):
            with pytest.raises(InvalidProfileError, match="^conformal factor must be finite"):
                RadialProfile(r=r, u=u)

    @settings(max_examples=400, deadline=None)
    @given(start=st.floats(allow_nan=False), step=st.floats(min_value=0.0),
           nodes=st.integers(4, 9), node=st.integers(0, 8),
           jitter=st.sampled_from([0.0, 1e-16, 1e-9, 9.9e-9, 1e-8, 2e-8, 1e-6]),
           end=st.sampled_from([None, np.inf, np.nan, 1e308]))
    def test_spacing_check_refuses_what_allclose_refuses(
            self, start, step, nodes, node, jitter, end):
        """Grids near the 1e-8 relative tolerance, with steps and radii up to
        overflow and a last radius that may be inf or nan."""
        with np.errstate(all="ignore"):
            r = start + step * np.arange(nodes)
            r[node % nodes] *= 1.0 + jitter
            if end is not None:
                r[-1] = end
            dr = np.diff(r)
        self.assert_allclose_verdict(r, dr)

    @pytest.mark.parametrize("r", [
        [-1.7e308, 1.7e308, 1.75e308, 1.79e308],
        [-np.inf, -1e308, 0.8e308, np.inf],
        [-np.inf, 0.0, 1.0, 2.0],
        [0.0, 1.0, 2.0, np.inf],
        [np.nan, 0.0, 1.0, 2.0],
        np.linspace(-1, 1, 9),
    ], ids=["overflowing-first-step", "every-step-inf", "first-step-inf",
            "last-step-inf", "nan-first", "negative-radii"])
    def test_spacing_check_on_non_finite_steps(self, r):
        """Radii that are negative or not finite are refused before any
        step is taken, so no overflow warning is printed either."""
        r = np.array(r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError,
                               match="^grid radii must be finite and nonnegative$"):
                RadialProfile(r=r, u=np.ones(r.size))

    @pytest.mark.parametrize("r", [
        [8.98e307, np.inf, np.inf, 1e308],
        [0.0, -1.8e308, 1.7e308, 1.0],
        [0.0, np.nan, 2.0, 3.0],
    ], ids=["inf-interior", "overflowing-interior-step", "nan-interior"])
    def test_bad_interior_radii_are_refused_without_a_warning(self, r):
        """Between valid ends, radii that np.diff would meet as inf - inf or
        as an overflowing step are refused by the order check, silently."""
        r = np.array(r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError,
                               match="^grid radii must be strictly increasing$"):
                RadialProfile(r=r, u=np.ones(r.size))

    @settings(max_examples=600, deadline=None)
    @given(nodes=st.integers(4, 12), start=st.just(0.0) | st.floats(1e-300, 1e300),
           step=st.floats(1e-300, 1e300), value=st.floats(1e-300, 1e300),
           data=st.data())
    def test_one_pass_checks_decide_as_the_per_node_checks(self, nodes, start, step,
                                                          value, data):
        """On grids with NaN, +-inf, repeated, swapped or nudged radii (a
        few ulps, or about the spacing tolerance either way) and factors
        that are 0, negative or not finite at an end or inside,
        RadialProfile refuses with the type and message of
        pre_one_pass_checks, or accepts where it does, without a warning."""
        with np.errstate(all="ignore"):
            r = start + step * np.arange(nodes)
        u = np.full(nodes, value)
        index = st.integers(0, nodes - 1)
        for kind, i in data.draw(st.lists(st.tuples(st.sampled_from(
                ["nan", "inf", "-inf", "repeat", "swap", "ulps", "tol"]), index),
                max_size=3), label="grid edits"):
            j = max(i - 1, 0)
            if kind in ("nan", "inf", "-inf"):
                r[i] = float(kind)
            elif kind == "repeat":
                r[i] = r[j]
            elif kind == "swap":
                r[i], r[j] = r[j], r[i]
            elif kind == "ulps":
                for _ in range(data.draw(st.integers(1, 4), label="ulps")):
                    with np.errstate(all="ignore"):
                        r[i] = np.nextafter(r[i], data.draw(st.sampled_from([-np.inf,
                                                                              np.inf])))
            else:
                scale = data.draw(st.sampled_from([-3.0, -1.001, -1.0, -0.999, 0.5,
                                                   0.999, 1.0, 1.001, 3.0]), label="tols")
                with np.errstate(all="ignore"):
                    r[i] += scale * (1e-13 * r[-1] + 1e-8 * (r[1] - r[0]))
        for i, bad in data.draw(st.lists(st.tuples(st.sampled_from([0, -1, nodes // 2]),
                                                   st.sampled_from([0.0, -0.0, -1.0, 5e-324,
                                                                    np.nan, np.inf, -np.inf])),
                                         max_size=2), label="factor edits"):
            u[i] = bad
        with np.errstate(all="ignore"):
            want = pre_one_pass_checks(r, u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is None:
                RadialProfile(r=r, u=u)
                return
            with pytest.raises(LnlabError) as err:
                RadialProfile(r=r, u=u)
        assert (type(err.value), str(err.value)) == want

    @staticmethod
    def assert_allclose_verdict(r, dr):
        """RadialProfile refuses radii that are negative, not finite or not
        increasing, and on every other grid refuses the spacing exactly when
        np.allclose does, with its absolute floor scaled by the last radius."""
        with np.errstate(all="ignore"):
            valid = bool(np.isfinite(r).all() and r[0] >= 0 and (dr > 0).all())
        if not valid:
            # Between valid ends, the order check meets inf - inf and
            # overflowing steps without a warning.
            with warnings.catch_warnings(), pytest.raises(InvalidArgumentError,
                                                          match="^grid radii must"):
                warnings.simplefilter("error")
                RadialProfile(r=r, u=np.ones(r.size))
            return
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            uniform = np.allclose(dr, dr[0], rtol=1e-8,
                                  atol=1e-13 * r[-1])
        if uniform:
            RadialProfile(r=r, u=np.ones(r.size))
        else:
            with pytest.raises(InvalidArgumentError,
                               match="^grid spacing must be uniform$"):
                RadialProfile(r=r, u=np.ones(r.size))

    def test_derivatives_exact_on_quadratics(self):
        r = np.linspace(0.5, 1.5, 33)
        prof = RadialProfile(r=r, u=1.0 + r - 0.5 * r**2 + 0.25)
        du, d2u = _radial_stencil(prof.u, prof.r)
        # interior rows exact for quadratics; ends use one-sided 2nd order
        assert np.allclose(du, 1.0 - r, atol=1e-12)
        assert np.allclose(d2u, -1.0, atol=1e-10)

    def test_center_even_extension(self):
        r = np.linspace(0.0, 1.0, 21)
        prof = RadialProfile(r=r, u=2.0 - r**2)
        du, d2u = _radial_stencil(prof.u, prof.r)
        assert du[0] == 0.0
        assert d2u[0] == pytest.approx(-2.0, abs=1e-12)


def pre_one_pass_checks(r, u):
    """RadialProfile's checks of r and u, node by node, before each took
    one pass: the (type, message) of the refusal, or None.  The reference
    of test_one_pass_checks_decide_as_the_per_node_checks."""
    if not (r[0] >= 0 and r[-1] < np.inf):
        return InvalidArgumentError, "grid radii must be finite and nonnegative"
    if not (r[1:] > r[:-1]).all():
        return InvalidArgumentError, "grid radii must be strictly increasing"
    dr = np.diff(r)
    h = dr[0]
    np.subtract(dr, h, out=dr)
    if not (np.abs(dr, out=dr) <= 1e-13 * r[-1] + 1e-8 * h).all():
        return InvalidArgumentError, "grid spacing must be uniform"
    ends = u[-1] >= 0 and (u[0] > 0 if r[0] == 0.0 else u[0] >= 0)
    if not (ends and (u[1:-1] > 0).all() and (u < np.inf).all()):
        return (InvalidProfileError,
                "conformal factor must be finite and positive on the open domain")
    return None


class TestModelSpectra:
    def test_hyperbolic_is_half(self):
        prof = hyperbolic_ball_profile(200)
        pairs = spectrum_field(prof)
        assert pairs.shape == (201, 2)
        assert np.allclose(pairs, 0.5, atol=1e-12)

    def test_hyperbolic_scaled_radius(self):
        r = np.linspace(0.0, 3.0, 101)
        prof = RadialProfile(r=r, u=(9.0 - r**2) / 6.0)
        assert np.allclose(spectrum_field(prof)[:, 0], 0.5, atol=1e-12)

    def test_barrier_exact(self):
        for R in (0.5, 1.0, 2.0):
            prof = barrier_profile(R, delta=0.2, m=1.5, grid=40)
            assert np.allclose(spectrum_field(prof), 2 / R**2, atol=1e-10)

    def test_barrier_validation(self):
        with pytest.raises(InvalidArgumentError):
            barrier_profile(1.0, delta=0.5, m=0.2, grid=10)

    def test_builder_scalars_refused_by_name_before_any_arithmetic(self):
        """No numpy error or RuntimeWarning first: each refusal names the
        argument."""
        cases = [
            (lambda: hyperbolic_ball_profile(3.5), "^grid must be an integer"),
            (lambda: hyperbolic_ball_profile(-5), "^grid must be an integer"),
            (lambda: hyperbolic_ball_profile(True), "^grid must be an integer"),
            (lambda: hyperbolic_ball_profile("10"), "^grid must be an integer"),
            (lambda: hyperbolic_ball_profile(2), "^grid must be an integer"),
            (lambda: barrier_profile(1.0, 0.1, 1.0, 2.5), "^grid must be an integer"),
            (lambda: barrier_profile(1.0, 0.1, 1.0, True), "^grid must be an integer"),
            (lambda: barrier_profile(1.0, True, 2.0, 10), "^delta must be a real"),
            (lambda: barrier_profile("1", 0.1, 1.0, 10), "^R must be a real"),
            (lambda: barrier_profile(1.0, 0.1, None, 10), "^m must be a real"),
            (lambda: barrier_profile(0.0, 0.1, 1.0, 10), "^R must be positive"),
            (lambda: barrier_profile(-1.0, 0.1, 1.0, 10), "^R must be positive"),
            (lambda: barrier_profile(np.inf, 0.1, 1.0, 10), "^R must be positive"),
            (lambda: barrier_profile(np.nan, 0.1, 1.0, 10), "^R must be positive"),
            (lambda: barrier_profile(1.0, 0.1, np.inf, 10), "m < inf"),
            (lambda: barrier_profile(1.0, np.nan, 1.0, 10), "delta < m"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call, match in cases:
                with pytest.raises(InvalidArgumentError, match=match):
                    call()
        assert hyperbolic_ball_profile(np.int64(3)).r.size == 4
        assert barrier_profile(1, 0.1, 1, 3).r.size == 4

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8, np.uint16])
    def test_numpy_integer_grid_at_its_largest_value(self, dtype):
        """grid + 1 is formed on a Python int: int8(127) gives 128 radii,
        not a wrapped-around sample count, and no overflow warning."""
        grid = dtype(np.iinfo(dtype).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hyperbolic_ball_profile(grid).r.size == int(grid) + 1
            assert barrier_profile(1.0, 0.1, 1.0, grid).r.size == int(grid) + 1

    @pytest.mark.parametrize("grid", [10**20, 2**62])
    def test_grid_numpy_cannot_create_is_refused(self, grid):
        """Refused by name before any allocation, with ProblemSpec's words:
        numpy's own errors were "Maximum allowed size exceeded" (10**20) and
        "array is too big" (2**62).  No warning either."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (lambda: hyperbolic_ball_profile(grid),
                          lambda: barrier_profile(1.0, 0.1, 1.0, grid)):
                with pytest.raises(InvalidArgumentError,
                                   match=f"^grid {grid} is too large: numpy cannot "
                                         f"create its {grid + 1} radii$"):
                    build()

    @pytest.mark.parametrize("R, m, match", [
        (1e200, 1.0, r"^R = 1e\+200 is out of float range: R\^2 overflows"),
        (10**400, 1.0, r"R\^2 overflows"),
        (np.float32(1e20), 1.0, r"^R = np.float32\(1e\+20\) .*R\^2 overflows"),
        (1e-200, 1.0, r"^R = 1e-200 is out of float range: R\^2 underflows"),
        (1e-154, 1.0, r"^R = 1e-154 .*R\^2 underflows"),
        (1e154, 1.0, r"^R = 1e\+154 and m = 1.0 .*R\^2 \(1 \+ m\) overflows"),
        (2.0, 1e308, r"^R = 2.0 and m = 1e\+308 .*R\^2 \(1 \+ m\) overflows"),
    ], ids=["huge", "huge-int", "huge-float32", "tiny", "subnormal-square",
            "huge-outer", "huge-m"])
    def test_barrier_out_of_float_range_refused_by_name(self, R, m, match):
        """An R whose square, or an outer radius whose square, leaves the
        normal float range is refused before any arithmetic, without a
        warning: it used to raise a bare OverflowError or a refusal of the
        conformal factor, after a RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match=match):
                barrier_profile(R, 0.1, m, 10)

    # The 11 barrier_profile calls of benchmarks/census.py's
    # builder_sample(3000) whose radii do not increase: (R, delta, m, grid).
    CROWDED = [
        (1.0286944047066015e-112, 4.376785937220198e-21, 5.6053269384687626e-14, 358),
        (5.516291742804235e-112, 1.3633484797705796e-33, 1.2628800247829188e-15, 1621),
        (2.094712856537005e+57, 3.359368817182622e-24, 6.168372077192432e-19, 1061),
        (1.4292288956970921e-95, 2.3843678973018265e-21, 4.943594486908859e-15, 1920),
        (6.528001257084402e-64, 3.246239680238469e-22, 7.58289461579618e-16, 1650),
        (3375519237.5360365, 3.922479543322061e-29, 1.473008865125229e-20, 1680),
        (5.609869521694266e+38, 7.338041948842928e-21, 2.059618433766494e-16, 143),
        (2.4581053504929245e+48, 3.4884708103979504e-29, 8.793109425033911e-20, 1090),
        (3.951524012188811e-123, 1.2573337123603335e-36, 3.6827516106325464e-19, 704),
        (3.496934326853172e-61, 1.8616705818098988e-20, 1.3586504705769383e-18, 1989),
        (4.7019420642077415e-20, 1.5812742381966846e-18, 1.1808352486024295e-15, 727),
    ]

    @pytest.mark.parametrize("R, delta, m, grid", CROWDED)
    def test_barrier_radii_too_close_refused_by_name(self, R, delta, m, grid):
        """An m so close to delta that the grid's radii round to equal or
        decreasing floats is refused naming m, delta and the grid, not by
        RadialProfile's "grid radii must be strictly increasing"."""
        match = (rf"^m = {re.escape(repr(m))} is too close to delta = "
                 rf"{re.escape(repr(delta))} for grid {grid}: .* strictly increasing floats$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match=match):
                barrier_profile(R, delta, m, grid)

    def test_barrier_radii_few_floats_apart_accepted(self):
        """Radii a few floats apart that still increase build a profile."""
        prof = barrier_profile(1.0, 1e-14, 1e-12, 10)
        assert (np.diff(prof.r) > 0).all()

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1.5e-154, 1e153), st.sampled_from([0.1, 0.5]),
           st.sampled_from([1.0, 3.0]))
    def test_barrier_keeps_its_bits(self, R, delta, m):
        """Every R in range gives the bits of the builder's arithmetic as it
        was before the range check."""
        prof = barrier_profile(R, delta, m, 16)
        r = np.linspace(R * np.sqrt(1.0 + delta), R * np.sqrt(1.0 + m), 17)
        assert prof.r.tobytes() == r.tobytes()
        assert prof.u.tobytes() == ((r**2 - R**2) / R**2).tobytes()

    def test_halfspace_exponential(self):
        # w = e^{-x}: w' = -w, w'' = w, so normal = -w^2/2, tangential = w^2/2
        w = 0.7
        spec = radial_schouten_spectrum(w, -w, w, np.inf)
        assert spec.shape == (2,)
        assert spec[0] == pytest.approx(-0.5 * w**2)
        assert spec[1] == pytest.approx(0.5 * w**2)

    def test_positive_factor_required(self):
        for r in (1.0, np.inf):
            for v in (-1.0, np.nan, [1.0, np.nan], np.inf, -np.inf, [1.0, np.inf]):
                with pytest.raises(InvalidProfileError):
                    radial_schouten_spectrum(v, 0.0, 0.0, r)

    @pytest.mark.parametrize("r", [-1.0, np.nan, -np.inf, -0.5e-300,
                                   [0.0, 1.0, np.nan], [np.inf, -2.0]],
                             ids=["minus-one", "nan", "minus-inf", "tiny-negative",
                                  "nan-in-array", "negative-in-array"])
    def test_negative_or_nan_radius_refused_by_name(self, r):
        """They used to get the r = 0 centre rule: (-1.875, -1.875) here."""
        with pytest.raises(InvalidArgumentError, match="^radius r must be >= 0"):
            radial_schouten_spectrum(1.0, 0.5, 2.0, r)

    def test_centre_and_halfspace_radii_keep_their_bits(self):
        """r = 0 (and -0.0, which compares equal) is the centre rule and
        r = inf the half-space limit, as _eigenpair computes them."""
        for r in (0.0, -0.0, np.inf, [0.0, 0.25, np.inf]):
            want = np.stack(_eigenpair(1.0, 0.5, 2.0, np.asarray(r, dtype=float)),
                            axis=-1)
            assert_same_bits(radial_schouten_spectrum(1.0, 0.5, 2.0, r), want)
        assert radial_schouten_spectrum(1.0, 0.5, 2.0, 0.0).tolist() == [-1.875, -1.875]
        assert radial_schouten_spectrum(1.0, 0.5, 2.0, np.inf).tolist() == [-1.875, 0.125]

    def test_zero_factor_accepted(self):
        """v = 0 is a boundary value a RadialProfile accepts; the polynomial
        forms give (v_r^2/2, v_r^2/2) there."""
        for r in (0.0, 1.0, np.inf):
            assert radial_schouten_spectrum(0.0, 1.0, 5.0, r).tolist() == [0.5, 0.5]
        # A valid annulus profile on [0.5, 1] vanishing at r = 1: the builder
        # takes its stencil values and gives spectrum_field's pairs.
        r = np.linspace(0.5, 1.0, 11)
        prof = RadialProfile(r=r, u=(1.0 - r**2) / 2.0)
        assert prof.u[-1] == 0.0
        du, d2u = _radial_stencil(prof.u, r)
        pairs = radial_schouten_spectrum(prof.u, du, d2u, r)
        assert pairs[-1].tolist() == pytest.approx([0.5, 0.5])
        assert_same_bits(spectrum_field(prof), pairs)

    def test_non_real_arrays_refused_by_name(self):
        args = dict(v=1.0, v_r=1.0, v_rr=1.0, r=1.0)
        for name in args:
            for bad in ("1", True, [1.0, None], ["1", "2"]):
                with pytest.raises(InvalidArgumentError,
                                   match=f"^{name} must be an array of real"):
                    radial_schouten_spectrum(**dict(args, **{name: bad}))
        assert radial_schouten_spectrum(1, 1, 1, 1).tolist() == [-0.5, -0.5]

    def test_center_rule(self):
        pair = radial_schouten_spectrum(2.0, 0.0, -1.5, 0.0)
        assert pair.shape == (2,)
        assert pair.tolist() == pytest.approx([3.0, 3.0])


class TestConvergenceOrder:
    def test_grid_doubling_ratio(self):
        """Quartic profile (not captured exactly): error must drop 4x."""
        def exact_field(r):
            u = 1.0 + 0.25 * r**4
            du = r**3
            d2u = 3 * r**2
            radial = 0.5 * du**2 - u * d2u
            tangential = 0.5 * du**2 - u * np.where(r > 0, du / np.where(r > 0, r, 1), d2u)
            return radial, tangential

        errs = []
        for grid in (64, 128):
            r = np.linspace(0.0, 1.0, grid + 1)
            prof = RadialProfile(r=r, u=1.0 + 0.25 * r**4)
            exact = np.stack(exact_field(r), axis=-1)
            errs.append(np.max(np.abs(spectrum_field(prof) - exact)))
        assert 3.5 <= errs[0] / errs[1] <= 4.5


class TestRicci:
    def test_linear_relation(self):
        rng = np.random.default_rng(12)
        lam = rng.normal(size=(50, 5))
        ric = ricci_spectrum_from_schouten(lam)
        assert np.allclose(ric, 3 * lam + lam.sum(axis=1, keepdims=True))

    def test_trace_consistency(self):
        # sigma_1(Ric) = 2(n-1) sigma_1(A) at the eigenvalue level
        rng = np.random.default_rng(13)
        for n in (3, 4, 6):
            lam = rng.normal(size=(20, n))
            ric = ricci_spectrum_from_schouten(lam)
            assert np.allclose(ric.sum(axis=1), 2 * (n - 1) * lam.sum(axis=1))

    def test_refusals(self):
        """A 0-d spectrum is refused with its shape, as the cone functions
        refuse it; spectra of bools or strings by name."""
        for lam in (1.0, np.float64(2.0)):
            with pytest.raises(InvalidArgumentError, match=r"shape \(\)"):
                ricci_spectrum_from_schouten(lam)
        for lam in ([True, False, True], ["1", "2", "3"], [None, 1.0, 2.0]):
            with pytest.raises(InvalidArgumentError,
                               match="^schouten must be an array of real"):
                ricci_spectrum_from_schouten(lam)
        assert ricci_spectrum_from_schouten([1, 2, 3]).tolist() == [7.0, 8.0, 9.0]


def bound(N, v, dv_sq, C0, C2, C3):
    return rescaled_metric_spectrum_bound(N, BackgroundData(v, dv_sq, C0, C2, C3))


class TestRescaledBound:
    def test_flat_case(self):
        v = np.array([1.0, 1.5, 2.0])
        t, e_neg, log_scale, q = bound(2.0, v, np.ones(3), 1.0, 0.0, 0.0)
        assert np.array_equal(t, np.zeros(3))
        assert np.array_equal(q, np.zeros(3))
        assert np.allclose(e_neg, np.exp(-2.0 * v))
        assert np.allclose(log_scale, np.log(2.0) + 4.0 * v)

    def test_matches_direct_formula(self):
        """Against the (chi1, chi2, scale) formulas with e^{Nv} formed
        directly, where it does not overflow."""
        v = np.linspace(1.0, 2.0, 7)
        dv_sq = np.full(7, 0.8)
        N, C0, C2, C3 = 3.0, 1.4, 0.6, 0.9
        t, e_neg, log_scale, q = bound(N, v, dv_sq, C0, C2, C3)
        eNv = np.exp(N * v)
        t2 = 2 * C0 * C2 / (N**2 * eNv**2 * dv_sq)
        t3 = 2 * C0 * C3 / (N * eNv * dv_sq)
        chi2 = 1 - t2 - t3
        chi1 = -chi2 + 2 / eNv - 2 * t2 - 2 * t3
        assert np.allclose(1 - t, chi2, rtol=1e-14)
        assert np.allclose(-1 + 2 * e_neg - t, chi1, rtol=1e-14)
        assert np.allclose(np.exp(log_scale), 0.5 * N**2 * eNv**2 * dv_sq / C0, rtol=1e-13)
        # q is the slack chi1 - (-chi2 + e^{-Nv}) = e^{-Nv} (1 - q), rescaled.
        assert np.allclose(q, 1 - (chi1 + chi2 - 1 / eNv) * eNv, rtol=1e-12)

    def test_large_N_limits(self):
        v = np.array([1.0, 1.2])
        dv_sq = np.ones(2)
        for N in (5.0, 10.0):
            t, _, _, _ = bound(N, v, dv_sq, 2.0, 1.0, 1.0)
            assert np.all(t > 0.0)
        # Past N v ~ 745, e^{-Nv} and t underflow to 0; q keeps its value
        # 4*C0*C3 / (N |dv|^2) + 4*C0*C2 e^{-Nv} / (N^2 |dv|^2) and log(scale)
        # stays finite, with no overflow on the way.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            t, e_neg, log_scale, q = bound(1e4, v, dv_sq, 2.0, 1.0, 1.0)
        assert np.array_equal(t, np.zeros(2)) and np.array_equal(e_neg, np.zeros(2))
        assert np.allclose(q, 8e-4, rtol=1e-15)
        assert np.allclose(log_scale, 2 * np.log(1e4) + 2e4 * v - np.log(4.0))

    def test_validation(self):
        data = BackgroundData(np.ones(3), np.ones(3))
        for N in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(InvalidArgumentError, match="^N must be positive"):
                rescaled_metric_spectrum_bound(N, data)
        # N is refused by name, bools included.
        for bad in (True, "1", None):
            with pytest.raises(InvalidArgumentError, match="^N must be a real"):
                rescaled_metric_spectrum_bound(bad, data)
        # The data must be a BackgroundData, which has checked it: arrays
        # and look-alikes are refused by name.
        look_alike = SimpleNamespace(v=np.ones(3), dv_sq=np.ones(3), C0=1.0,
                                     C2=0.0, C3=0.0)
        for bad in (look_alike, np.ones(3), (np.ones(3), np.ones(3), 1, 0, 0), None):
            with pytest.raises(InvalidArgumentError,
                               match="^data must be a BackgroundData"):
                rescaled_metric_spectrum_bound(1.0, bad)

    @pytest.mark.parametrize("fields, match", [
        (dict(C0=0.5), "need C0 >= 1"),
        (dict(C2=-5.0), "C2 >= 0"),
        (dict(v=np.array([1.0, np.inf, 1.0])), "^v must be finite"),
        (dict(dv_sq=np.array([1.0, np.nan, 1.0])), "^dv_sq must be finite"),
        (dict(v=np.array([1.0, np.nan, 1.0])), "^v must be finite"),
        (dict(v=np.ones((3, 1)), dv_sq=np.ones((3, 1))), "^v and dv_sq must be"),
    ], ids=["C0-below-1", "negative-C2", "infinite-v", "nan-dv_sq", "nan-v", "2-d-v"])
    def test_background_escapes_refused_by_name(self, fields, match):
        """Inputs the bound used to check with a weaker rule of its own,
        and turned into numbers: q = 0 for C0 = 0.5, a negative q for
        C2 = -5, q = 0 with log(scale) = inf for v = inf, NaN arrays, a 2-d
        bound.  The one way in is BackgroundData, which refuses each."""
        values = dict(dict(v=np.ones(3), dv_sq=np.ones(3), C0=1.0, C2=0.0, C3=0.0),
                      **fields)
        with pytest.raises(InvalidArgumentError, match=match):
            rescaled_metric_spectrum_bound(1.0, BackgroundData(**values))

    def test_C0_whose_quadruple_overflows_is_refused_by_name(self):
        """q takes 4*C0: past a quarter of the largest float it is inf, and
        q was NaN, with a warning, where C2 e^{-Nv} and C3 are 0."""
        with pytest.raises(InvalidArgumentError,
                           match=r"^C0 = 1e\+308 is out of float range: 4\*C0"):
            BackgroundData(np.ones(3), np.ones(3), C0=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = find_N(BackgroundData(np.ones(3), np.ones(3), C0=4e307))
        assert cert.N == N_SCAN[0] and (cert.q == 0.0).all()
        assert np.isfinite(cert.log_scale).all()

    def test_arithmetic_past_the_float_range_saturates_without_a_warning(self):
        """Builder census calls that warned.  On linspace(0, 2.6e179, 39)
        with C0 = 9.6e203 and C3 = 2.1e227, q overflows at every N of the
        scan: no certificate, by name.  On linspace(0, 1.2e269, 312) with
        C0 = 1.7e109 and C2 = 2.8e197, q overflows at small N and vanishes
        at large N: a certificate at N = 1024."""
        coords = np.linspace(0.0, 2.6458706531233993e179, 39)
        no_cert = BackgroundData(1.0 + coords, np.ones(39), 9.625644011656387e203,
                                 0.0, 2.1045494310838803e227)
        coords = np.linspace(0.0, 1.1603909682645186e269, 312)
        late = BackgroundData(1.0 + coords, np.ones(312), 1.6658283171087807e109,
                              2.769549729043412e197, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoCertificateError):
                find_N(no_cert)
            assert (rescaled_metric_spectrum_bound(N_SCAN[-1], no_cert)[3] == np.inf).all()
            assert rescaled_metric_spectrum_bound(N_SCAN[0], late)[3][0] == np.inf
            cert = find_N(late)
        assert cert.N == 1024.0 and (cert.q == 0.0).all()
        assert np.isfinite(cert.log_scale).all()

    @settings(max_examples=300, deadline=None)
    @given(nodes=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           N=st.sampled_from(N_SCAN) | st.floats(0.0, 1e4, exclude_min=True),
           C0=st.floats(1.0, 1e6), C2=st.floats(0.0, 1e6) | st.just(0),
           C3=st.floats(0.0, 1e6) | st.just(0))
    def test_keeps_the_bits_of_the_checking_formula(self, nodes, seed, N, C0, C2, C3):
        """The bound reads a BackgroundData and keeps the bits of the formula
        that took (v, dv_sq, C0, C2, C3) and checked them itself."""
        rng = np.random.default_rng(seed)
        v = 1.0 + rng.uniform(0.0, 1.0, nodes) * 10.0 ** rng.integers(-3, 3, nodes)
        dv_sq = rng.uniform(0.1, 1.0, nodes) * 10.0 ** rng.integers(-8, 8, nodes)
        data = BackgroundData(v, dv_sq, C0, C2, C3)
        with np.errstate(all="ignore"):
            got = rescaled_metric_spectrum_bound(N, data)
            want = checking_bound(N, v, dv_sq, C0, C2, C3)
        assert_same_bits(got, want)


def checking_bound(N, v, dv_sq, C0, C2, C3):
    """rescaled_metric_spectrum_bound's arithmetic as it was when it took
    the background data as six arguments, its checks left out."""
    v = np.asarray(v, dtype=float)
    dv_sq = np.asarray(dv_sq, dtype=float)
    e_neg = np.exp(-N * v)
    q = 4.0 * C0 * (C3 + C2 * e_neg / N) / (N * dv_sq) * (1.0 + 2.0**-48)
    log_scale = 2.0 * np.log(N) + 2.0 * N * v + np.log(dv_sq) - np.log(2.0 * C0)
    return 0.5 * q * e_neg, e_neg, log_scale, q


# The stencil and the eigenvalue pair as they were before they wrote through
# out= into buffers of their own.  The rewrites keep the operation order,
# so they must give the same bits.
def pre_inplace_stencil(u, r):
    h = r[1] - r[0]
    du = np.empty_like(u)
    d2u = np.empty_like(u)
    du[1:-1] = (u[2:] - u[:-2]) / (2 * h)
    d2u[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
    if r[0] == 0.0:
        du[0] = 0.0
        d2u[0] = 2.0 * (u[1] - u[0]) / h**2
    else:
        du[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * h)
        d2u[0] = (2 * u[0] - 5 * u[1] + 4 * u[2] - u[3]) / h**2
    du[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * h)
    d2u[-1] = (2 * u[-1] - 5 * u[-2] + 4 * u[-3] - u[-4]) / h**2
    return du, d2u


def pre_inplace_eigenpair(v, v_r, v_rr, r):
    half_slope_sq = 0.5 * v_r**2
    off_centre = r > 0
    slope_over_r = np.where(off_centre, v_r / np.where(off_centre, r, 1.0), v_rr)
    return half_slope_sq - v * v_rr, half_slope_sq - v * slope_over_r


def assert_same_bits(got, want):
    """Equal types, shapes and bytes, element by element for tuples."""
    assert type(got) is type(want)
    if isinstance(got, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
        return
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


class TestInPlaceStages:
    @settings(max_examples=200, deadline=None)
    @given(nodes=st.integers(4, 40), start=st.just(0.0) | st.floats(1e-3, 5.0),
           span=st.floats(1e-2, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_stencil_and_eigenpair_keep_their_bits(self, nodes, start, span, seed):
        """Ball grids (centre row at r = 0) and annulus grids, on profiles of
        both signs and of very different sizes."""
        rng = np.random.default_rng(seed)
        r = np.linspace(start, start + span, nodes)
        u = rng.normal(size=nodes) * 10.0 ** rng.integers(-3, 4, size=nodes)
        du, d2u = _radial_stencil(u, r)
        assert_same_bits((du, d2u), pre_inplace_stencil(u, r))
        pair = _eigenpair(u, du, d2u, r)
        assert_same_bits(pair, np.stack(pre_inplace_eigenpair(u, du, d2u, r)))
        prof = RadialProfile(r=r, u=np.abs(u) + 1.0)
        du, d2u = pre_inplace_stencil(prof.u, r)
        assert_same_bits(spectrum_field(prof), np.stack(
            pre_inplace_eigenpair(prof.u, du, d2u, r), axis=-1))

    @settings(max_examples=200, deadline=None)
    @given(nodes=st.integers(4, 40), start=st.just(0.0) | st.floats(1e-3, 5.0),
           span=st.floats(1e-2, 10.0), seed=st.integers(0, 2**32 - 1),
           zero_ends=st.sampled_from(["none", "outer", "inner", "both"]))
    def test_spectrum_field_keeps_its_bits(self, nodes, start, span, seed, zero_ends):
        """spectrum_field, through radial_schouten_spectrum, against the
        stack of _eigenpair it used to make itself, on ball and annulus
        profiles whose boundary values may be 0."""
        rng = np.random.default_rng(seed)
        r = np.linspace(start, start + span, nodes)
        u = rng.uniform(0.1, 1.0, nodes) * 10.0 ** rng.integers(-3, 4, nodes)
        if zero_ends in ("outer", "both"):
            u[-1] = 0.0
        if zero_ends in ("inner", "both") and start > 0.0:
            u[0] = 0.0
        prof = RadialProfile(r=r, u=u)
        du, d2u = _radial_stencil(prof.u, prof.r)
        assert_same_bits(spectrum_field(prof),
                         np.stack(_eigenpair(prof.u, du, d2u, prof.r), axis=-1))

    @pytest.mark.parametrize("r, want", [(2.0, (-1.0, 1.0)), (0.0, (-1.0, -1.0)),
                                         (np.inf, (-1.0, 2.0))],
                             ids=["off-centre", "centre", "half-space"])
    def test_eigenpair_of_a_python_float_radius(self, r, want):
        """A Python-float r picks its rule like a 0-d array r does."""
        got = _eigenpair(1.0, 2.0, 3.0, r)
        assert got.tolist() == list(want)
        assert_same_bits(got, _eigenpair(1.0, 2.0, 3.0, np.array(r)))

    def test_halfspace_spectrum_keeps_its_bits(self):
        """The r = inf pair of radial_schouten_spectrum against the half-space
        closed form (w'^2/2 - w w'', w'^2/2)."""
        rng = np.random.default_rng(5)
        for size in (1, 7, 300):
            w = rng.uniform(1e-3, 1e3, size)
            w_p, w_pp = (rng.normal(size=size) * 10.0 ** rng.integers(-4, 5, size)
                         for _ in range(2))
            tangential = 0.5 * w_p**2
            want = np.stack((tangential - w * w_pp, tangential), axis=-1)
            assert_same_bits(radial_schouten_spectrum(w, w_p, w_pp, np.inf), want)

    @pytest.mark.parametrize("shapes", [
        ((), (), (), ()),
        ((5,), (5,), (5,), (5,)),
        ((3, 1), (1, 4), (4,), (3, 1)),
        ((2, 3), (3,), (), (1, 3)),
    ], ids=["0-d", "1-d", "broadcast", "scalar-v_rr"])
    def test_radial_schouten_spectrum_keeps_its_bits(self, shapes):
        """Broadcast inputs (r = 0 entries among them) and 0-d inputs, each
        coming back as pairs along a new last axis."""
        rng = np.random.default_rng(3)
        v, v_r, v_rr, r = (rng.uniform(0.1, 3.0, size=shape) for shape in shapes)
        r = np.where(rng.uniform(size=np.shape(r)) < 0.3, 0.0, r)
        got = radial_schouten_spectrum(v, v_r, v_rr, r)
        assert_same_bits(got, np.stack(pre_inplace_eigenpair(v, v_r, v_rr, r), axis=-1))


# _eigenpair as it was before its division went unmasked: a masked division
# where r > 0, a masked copy of v_rr elsewhere, and the shape from
# np.broadcast_shapes.  _eigenpair must give its bits and shape.
def masked_eigenpair(v, v_r, v_rr, r):
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


RADIUS_SHAPES = (((), (), (), ()), ((6,),) * 4, ((3, 1), (1, 4), (4,), (3, 1)),
                 ((2, 3), (3,), (), (1, 3)), ((5,), (), (), (5,)),
                 ((), (), (), (2, 2)), ((0,),) * 4)


@st.composite
def radius_cases(draw):
    """(v, v_r, v_rr, r) of broadcast shapes (0-d and empty among them):
    v >= 0 and slopes finite, and radii either all positive floats or
    mixed with 0.0, -0.0, inf, NaN and -1.0 at any position."""
    shapes = draw(st.sampled_from(RADIUS_SHAPES))

    def array(shape, elements):
        size = math.prod(shape)
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    finite = st.floats(-1e3, 1e3)
    radii = st.floats(1e-300, 1e300)
    if draw(st.booleans()):
        radii |= st.sampled_from([0.0, -0.0, np.inf, np.nan, -1.0])
    return (np.abs(array(shapes[0], finite)), array(shapes[1], finite),
            array(shapes[2], finite), array(shapes[3], radii))


class TestUnmaskedDivision:
    @settings(max_examples=300, deadline=None)
    @given(case=radius_cases())
    def test_eigenpair_keeps_the_masked_bits(self, case):
        """The centre rule wherever r is not > 0 (0, -0, NaN, negative),
        the quotient elsewhere (inf included), for array and scalar radii."""
        with np.errstate(all="ignore"):
            assert_same_bits(_eigenpair(*case), masked_eigenpair(*case))
            if not case[3].ndim:
                scalars = [float(x) for x in case]
                assert_same_bits(_eigenpair(*scalars), masked_eigenpair(*scalars))

    @settings(max_examples=300, deadline=None)
    @given(case=radius_cases())
    def test_spectrum_keeps_the_masked_bits(self, case):
        """radial_schouten_spectrum: the stacked masked pair where every r
        is >= 0, the refusal by name where one is NaN or negative."""
        r = case[3]
        with np.errstate(all="ignore"):
            if not (r >= 0).all():
                with pytest.raises(InvalidArgumentError, match="^radius r must be >= 0"):
                    radial_schouten_spectrum(*case)
                return
            assert_same_bits(radial_schouten_spectrum(*case),
                             np.stack(masked_eigenpair(*case), axis=-1))
