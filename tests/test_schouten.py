"""Schouten spectra: exact model metrics, convergence order, rescaling bounds."""

import numpy as np
import pytest

from lnlab import (RadialProfile, barrier_profile, halfspace_schouten_spectrum,
                   hyperbolic_ball_profile, radial_schouten_spectrum,
                   ricci_spectrum_from_schouten, spectrum_field)
from lnlab.schouten import rescaled_metric_spectrum_bound
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

    def test_nonuniform_rejected(self):
        r = np.array([0.0, 0.1, 0.25, 0.4, 0.5])
        with pytest.raises(InvalidArgumentError):
            RadialProfile(r=r, u=np.ones(5))

    def test_derivatives_exact_on_quadratics(self):
        r = np.linspace(0.5, 1.5, 33)
        prof = RadialProfile(r=r, u=1.0 + r - 0.5 * r**2 + 0.25)
        du, d2u = prof.derivatives()
        # interior rows exact for quadratics; ends use one-sided 2nd order
        assert np.allclose(du, 1.0 - r, atol=1e-12)
        assert np.allclose(d2u, -1.0, atol=1e-10)

    def test_center_even_extension(self):
        r = np.linspace(0.0, 1.0, 21)
        prof = RadialProfile(r=r, u=2.0 - r**2)
        du, d2u = prof.derivatives()
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
        spec = halfspace_schouten_spectrum(w, -w, w)
        assert spec.shape == (2,)
        assert spec[0] == pytest.approx(-0.5 * w**2)
        assert spec[1] == pytest.approx(0.5 * w**2)

    def test_positive_factor_required(self):
        with pytest.raises(InvalidProfileError):
            halfspace_schouten_spectrum(-1.0, 0.0, 0.0)
        with pytest.raises(InvalidProfileError):
            radial_schouten_spectrum(-1.0, 0.0, 0.0, 1.0)

    def test_center_rule(self):
        rad, tan = radial_schouten_spectrum(2.0, 0.0, -1.5, 0.0)
        assert rad == pytest.approx(3.0)
        assert tan == pytest.approx(3.0)


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
        ric = ricci_spectrum_from_schouten(lam, 5)
        assert np.allclose(ric, 3 * lam + lam.sum(axis=1, keepdims=True))

    def test_trace_consistency(self):
        # sigma_1(Ric) = 2(n-1) sigma_1(A) at the eigenvalue level
        rng = np.random.default_rng(13)
        for n in (3, 4, 6):
            lam = rng.normal(size=(20, n))
            ric = ricci_spectrum_from_schouten(lam, n)
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
