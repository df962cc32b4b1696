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
        fld = spectrum_field(prof, 4)
        assert np.allclose(fld.radial, 0.5, atol=1e-12)
        assert np.allclose(fld.tangential, 0.5, atol=1e-12)
        assert fld.spectra().shape == (201, 4)

    def test_hyperbolic_scaled_radius(self):
        prof = hyperbolic_ball_profile(100, radius=3.0)
        fld = spectrum_field(prof, 3)
        assert np.allclose(fld.radial, 0.5, atol=1e-12)

    def test_barrier_exact(self):
        for R in (0.5, 1.0, 2.0):
            prof = barrier_profile(R, delta=0.2, m=1.5, grid=40)
            fld = spectrum_field(prof, 5)
            assert np.allclose(fld.radial, 2 / R**2, atol=1e-10)
            assert np.allclose(fld.tangential, 2 / R**2, atol=1e-10)

    def test_barrier_validation(self):
        with pytest.raises(InvalidArgumentError):
            barrier_profile(1.0, delta=0.5, m=0.2, grid=10)

    def test_halfspace_exponential(self):
        # w = e^{-x}: w' = -w, w'' = w, so normal = -w^2/2, tangential = w^2/2
        w = 0.7
        spec = halfspace_schouten_spectrum(w, -w, w, 4)
        assert spec[0] == pytest.approx(-0.5 * w**2)
        assert np.allclose(spec[1:], 0.5 * w**2)

    def test_positive_factor_required(self):
        with pytest.raises(InvalidProfileError):
            halfspace_schouten_spectrum(-1.0, 0.0, 0.0, 3)
        with pytest.raises(InvalidProfileError):
            radial_schouten_spectrum(-1.0, 0.0, 0.0, 1.0, 3)

    def test_center_rule(self):
        rad, tan = radial_schouten_spectrum(2.0, 0.0, -1.5, 0.0, 3)
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
            fld = spectrum_field(prof, 3)
            rad, tan = exact_field(r)
            errs.append(max(np.max(np.abs(fld.radial - rad)),
                            np.max(np.abs(fld.tangential - tan))))
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
        chi1, chi2, scale = rescaled_metric_spectrum_bound(
            2.0, v, np.ones(3), 1.0, 0.0, 0.0)
        assert np.allclose(chi2, 1.0)
        assert np.allclose(chi1, -1.0 + 2 * np.exp(-2.0 * v))
        assert np.allclose(scale, 2.0 * np.exp(4.0 * v))

    def test_matches_direct_formula(self):
        v = np.linspace(1.0, 2.0, 7)
        dv_sq = np.full(7, 0.8)
        N, C0, C2, C3 = 3.0, 1.4, 0.6, 0.9
        chi1, chi2, scale = rescaled_metric_spectrum_bound(N, v, dv_sq, C0, C2, C3)
        eNv = np.exp(N * v)
        t2 = 2 * C0 * C2 / (N**2 * eNv**2 * dv_sq)
        t3 = 2 * C0 * C3 / (N * eNv * dv_sq)
        assert np.allclose(chi2, 1 - t2 - t3, rtol=1e-14)
        assert np.allclose(chi1, -chi2 + 2 / eNv - 2 * t2 - 2 * t3, rtol=1e-14)
        assert np.allclose(scale, 0.5 * N**2 * eNv**2 * dv_sq / C0, rtol=1e-14)

    def test_large_N_limits(self):
        v = np.array([1.0, 1.2])
        dv_sq = np.ones(2)
        for N in (5.0, 10.0):
            chi1, chi2, _ = rescaled_metric_spectrum_bound(N, v, dv_sq, 2.0, 1.0, 1.0)
            assert np.all(chi2 < 1.0)
        # chi2 -> 1 and chi1 -> -1 as N grows
        chi1, chi2, _ = rescaled_metric_spectrum_bound(60.0, v, dv_sq, 2.0, 1.0, 1.0)
        assert np.allclose(chi2, 1.0, atol=1e-12)
        assert np.allclose(chi1, -1.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(CriticalPointError):
            rescaled_metric_spectrum_bound(1.0, np.ones(3), np.zeros(3), 1, 0, 0)
        with pytest.raises(InvalidArgumentError):
            rescaled_metric_spectrum_bound(-1.0, np.ones(3), np.ones(3), 1, 0, 0)
        with pytest.raises(InvalidArgumentError):
            rescaled_metric_spectrum_bound(1.0, 0.5 * np.ones(3), np.ones(3), 1, 0, 0)
