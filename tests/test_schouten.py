"""Schouten spectra: exact model metrics, convergence order, rescaling bounds."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnlab import (RadialProfile, barrier_profile, hyperbolic_ball_profile,
                   radial_schouten_spectrum,
                   ricci_spectrum_from_schouten, spectrum_field)
from lnlab.schouten import (_eigenpair, _radial_stencil,
                            rescaled_metric_spectrum_bound)
from lnlab.errors import (CriticalPointError, InvalidArgumentError,
                          InvalidProfileError)


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

    def test_nonuniform_rejected(self):
        r = np.array([0.0, 0.1, 0.25, 0.4, 0.5])
        with pytest.raises(InvalidArgumentError):
            RadialProfile(r=r, u=np.ones(5))

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

    @staticmethod
    def assert_allclose_verdict(r, dr):
        """RadialProfile refuses radii that are negative, not finite or not
        increasing, and on every other grid refuses the spacing exactly when
        the np.allclose test it replaced does."""
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
                                  atol=1e-13 * max(1.0, abs(r[-1])))
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

    def test_halfspace_exponential(self):
        # w = e^{-x}: w' = -w, w'' = w, so normal = -w^2/2, tangential = w^2/2
        w = 0.7
        spec = radial_schouten_spectrum(w, -w, w, np.inf)
        assert spec.shape == (2,)
        assert spec[0] == pytest.approx(-0.5 * w**2)
        assert spec[1] == pytest.approx(0.5 * w**2)

    def test_positive_factor_required(self):
        for r in (1.0, np.inf):
            for v in (-1.0, np.nan, [1.0, np.nan]):
                with pytest.raises(InvalidProfileError):
                    radial_schouten_spectrum(v, 0.0, 0.0, r)

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


class TestRescaledBound:
    def test_flat_case(self):
        v = np.array([1.0, 1.5, 2.0])
        t, e_neg, log_scale, q = rescaled_metric_spectrum_bound(
            2.0, v, np.ones(3), 1.0, 0.0, 0.0)
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
        t, e_neg, log_scale, q = rescaled_metric_spectrum_bound(N, v, dv_sq, C0, C2, C3)
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
            t, _, _, _ = rescaled_metric_spectrum_bound(N, v, dv_sq, 2.0, 1.0, 1.0)
            assert np.all(t > 0.0)
        # Past N v ~ 745, e^{-Nv} and t underflow to 0; q keeps its value
        # 4*C0*C3 / (N |dv|^2) + 4*C0*C2 e^{-Nv} / (N^2 |dv|^2) and log(scale)
        # stays finite, with no overflow on the way.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            t, e_neg, log_scale, q = rescaled_metric_spectrum_bound(
                1e4, v, dv_sq, 2.0, 1.0, 1.0)
        assert np.array_equal(t, np.zeros(2)) and np.array_equal(e_neg, np.zeros(2))
        assert np.allclose(q, 8e-4, rtol=1e-15)
        assert np.allclose(log_scale, 2 * np.log(1e4) + 2e4 * v - np.log(4.0))

    def test_validation(self):
        with pytest.raises(CriticalPointError):
            rescaled_metric_spectrum_bound(1.0, np.ones(3), np.zeros(3), 1, 0, 0)
        for N in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(InvalidArgumentError):
                rescaled_metric_spectrum_bound(N, np.ones(3), np.ones(3), 1, 0, 0)
        with pytest.raises(InvalidArgumentError):
            rescaled_metric_spectrum_bound(1.0, 0.5 * np.ones(3), np.ones(3), 1, 0, 0)


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
