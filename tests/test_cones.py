"""Cone algebra: example values, independent oracles, structural properties."""

import hashlib
import itertools
import math
import numbers
from fractions import Fraction
from math import comb

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnlab import (ConeSpec, cone_margin, contains_ray_e1, f_eval, grad_f,
                   mu_plus, ricci_spectrum_from_schouten, tau_deform)
from lnlab import cones
from lnlab.cones import _f_and_grad_unchecked, sigma_all
from lnlab.errors import ConeDomainError, InvalidArgumentError


def sigma_by_enumeration(lam, j):
    """Independent oracle: sum over all j-subsets."""
    return sum(math.prod(c) for c in itertools.combinations(lam, j))


class TestSigma:
    def test_examples(self):
        lam = np.array([1.0, 2.0, 3.0])
        assert sigma_all(lam, None, 3).tolist() == [1.0, 6.0, 11.0, 6.0]

    def test_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for n in range(3, 9):
            lam = rng.normal(size=n) * rng.uniform(0.5, 3.0)
            for j in range(1, n + 1):
                expected = sigma_by_enumeration(lam, j)
                assert sigma_all(lam, None, n)[j] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_sigma_all_shape_and_sigma0(self):
        lam = np.ones((4, 5, 3))
        s = sigma_all(lam, None, 3)
        assert s.shape == (4, 5, 4)
        assert np.all(s[..., 0] == 1.0)

    def test_permutation_bit_exact(self):
        rng = np.random.default_rng(11)
        lam = rng.normal(size=6)
        base = sigma_all(lam, None, 6)
        for perm in itertools.islice(itertools.permutations(lam), 100):
            assert np.array_equal(sigma_all(np.array(perm), None, 6), base)


class TestConeSpec:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ConeSpec(2, 1)
        with pytest.raises(InvalidArgumentError):
            ConeSpec(4, 5)
        with pytest.raises(InvalidArgumentError):
            ConeSpec(4, 0)
        with pytest.raises(InvalidArgumentError):
            ConeSpec(4, 2, 1.5)
        with pytest.raises(InvalidArgumentError, match="^order k must satisfy"):
            ConeSpec(3, True)
        with pytest.raises(InvalidArgumentError, match="^dimension n must be an integer"):
            ConeSpec(True, 1)

    def test_binomials_beyond_the_float_range_refused(self):
        """sigma_all and the margin take C(n, j), j <= k, as floats; n = 1030
        is the first dimension where one of them overflows."""
        ConeSpec(1029, 514)
        ConeSpec(2000, 2)
        with pytest.raises(InvalidArgumentError, match=r"n = 1030: C\(1030, 515\)"):
            ConeSpec(1030, 515)
        with pytest.raises(InvalidArgumentError, match=r"C\(2000, 1000\)"):
            ConeSpec(2000, 1999)

    def test_normalization(self):
        assert ConeSpec(4, 2).normalization == pytest.approx(6 ** -0.5)
        assert ConeSpec(3, 1).normalization == pytest.approx(1 / 3)

    def test_f_at_e_is_one(self):
        for n in (3, 5, 8):
            for k in (1, 2, n):
                for tau in (0.0, 0.3, 1.0):
                    cone = ConeSpec(n, k, tau)
                    assert f_eval(cone, np.ones(n)) == pytest.approx(1.0, abs=1e-14)


class TestTauDeform:
    def test_endpoints(self):
        lam = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(tau_deform(lam, 1.0), lam)
        assert np.allclose(tau_deform(lam, 0.0), np.full(3, 2.0))

    @pytest.mark.parametrize("tau", [-0.1, 1.5, -np.inf, np.inf, np.nan])
    def test_refuses_tau_outside_zero_one(self, tau):
        with pytest.raises(InvalidArgumentError, match=r"tau must lie in \[0, 1\]"):
            tau_deform(np.array([1.0, -2.0, 3.0]), tau)

    def test_tau_zero_collapses_to_trace(self):
        rng = np.random.default_rng(3)
        lam = rng.normal(size=(20, 4))
        cone = ConeSpec(4, 3, 0.0)
        good = lam[lam.sum(axis=1) > 0.2]
        vals = f_eval(cone, good)
        assert np.allclose(vals, good.sum(axis=1) / 4, rtol=1e-12)

    def test_permutation_bit_exact_under_deformation(self):
        rng = np.random.default_rng(5)
        lam = rng.normal(size=5) + 2.0
        cone = ConeSpec(5, 3, 0.7)
        base = f_eval(cone, lam)
        for perm in itertools.permutations(lam):
            assert f_eval(cone, np.array(perm)) == base


class TestMembership:
    def test_interior_and_exterior(self):
        cone = ConeSpec(3, 2)
        assert cone_margin(cone, np.array([1.0, 1.0, 1.0])) > 0
        assert cone_margin(cone, np.array([1.0, 1.0, -2.0])) <= 0
        # sigma_2(1,1,-0.4) = 1 - 0.8 > 0 but deeper k would fail; margin sign
        assert cone_margin(cone, np.array([1.0, 1.0, -0.4])) > 0

    def test_margin_sign_matches_membership(self):
        rng = np.random.default_rng(9)
        cone = ConeSpec(4, 2)
        lam = rng.normal(size=(500, 4))
        margin = cone_margin(cone, lam)
        sig1 = lam.sum(axis=1)
        sig2 = np.array([sigma_by_enumeration(row, 2) for row in lam])
        truth = (sig1 > 0) & (sig2 > 0)
        # strict interior / exterior points agree with the enumeration oracle
        clear = np.abs(margin) > 1e-12
        assert np.array_equal((margin > 0)[clear], truth[clear])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            cone_margin(ConeSpec(4, 2), np.ones(3))

    def test_f_raises_outside(self):
        with pytest.raises(ConeDomainError):
            f_eval(ConeSpec(3, 2), np.array([1.0, 1.0, -2.0]))


class TestFProperties:
    def test_k1_is_normalized_trace(self):
        rng = np.random.default_rng(1)
        lam = np.abs(rng.normal(size=(50, 5))) + 0.1
        vals = f_eval(ConeSpec(5, 1), lam)
        assert np.allclose(vals, lam.mean(axis=1), rtol=1e-13)

    def test_homogeneity(self):
        rng = np.random.default_rng(2)
        cone = ConeSpec(5, 3)
        lam = 0.1 + np.abs(rng.normal(size=(100, 5)))
        t = rng.uniform(0.1, 10, size=100)
        lhs = f_eval(cone, t[:, None] * lam)
        rhs = t * np.asarray(f_eval(cone, lam))
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_euler_identity(self):
        rng = np.random.default_rng(4)
        for cone in (ConeSpec(3, 2), ConeSpec(6, 4, 0.6)):
            lam = 0.1 + np.abs(rng.normal(size=(100, cone.n)))
            f = np.asarray(f_eval(cone, lam))
            g = grad_f(cone, lam)
            assert np.allclose((lam * g).sum(axis=1), f, rtol=1e-10)

    def test_gradient_positive_and_matches_fd(self):
        rng = np.random.default_rng(6)
        for cone in (ConeSpec(4, 2), ConeSpec(5, 5, 0.5)):
            lam = 0.2 + np.abs(rng.normal(size=(30, cone.n)))
            g = grad_f(cone, lam)
            assert np.all(g > 0)
            for i in range(cone.n):
                step = 1e-6
                lp, lm = lam.copy(), lam.copy()
                lp[:, i] += step
                lm[:, i] -= step
                fd = (np.asarray(f_eval(cone, lp))
                      - np.asarray(f_eval(cone, lm))) / (2 * step)
                assert np.allclose(g[:, i], fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_gradient_on_e1_ray_matches_fd(self, n):
        """e1 = (1, 0, ..., 0) is inside every deformed cone (tau < 1), with
        margins down to 1e-21 at (8, 8, 0.999): grad_f answers there, for
        the full spectrum and for the pair (1, 0), and agrees with a central
        difference of f_eval whose step is small against the deformed
        tangential entry 1 - tau."""
        e1 = np.eye(n)[0]
        for k, tau in itertools.product(range(1, n + 1), (0.5, 0.9, 0.99, 0.999)):
            cone = ConeSpec(n, k, tau)
            assert cone_margin(cone, e1) > 0.0
            g = grad_f(cone, e1)
            assert np.all(g > 0.0)
            np.testing.assert_allclose(grad_f(cone, np.array([1.0, 0.0])), g[:2],
                                       rtol=1e-12)
            step = 1e-3 * (1.0 - tau)
            fd = [(f_eval(cone, e1 + step * d) - f_eval(cone, e1 - step * d))
                  / (2 * step) for d in np.eye(n)]
            np.testing.assert_allclose(g, fd, rtol=1e-6, err_msg=f"k={k}, tau={tau}")

    def test_gradient_raises_on_and_outside_boundary(self):
        """grad_f refuses exactly where f_eval does: margin <= 0."""
        on = np.array([1.0, 0.0, 0.0, 0.0])      # sigma_2 = 0 at tau = 1
        outside = np.array([1.0, 1.0, -0.6])     # sigma_2 = -0.2
        for cone, lam in ((ConeSpec(4, 2), on), (ConeSpec(4, 2), on[:2]),
                          (ConeSpec(3, 2), outside)):
            assert cone_margin(cone, lam) <= 0.0
            for fn in (f_eval, grad_f):
                with pytest.raises(ConeDomainError):
                    fn(cone, lam)

    def test_trace_upper_bound(self):
        rng = np.random.default_rng(8)
        for cone in (ConeSpec(4, 2), ConeSpec(6, 3)):
            lam = 0.1 + np.abs(rng.normal(size=(200, cone.n)))
            f = np.asarray(f_eval(cone, lam))
            assert np.all(f <= lam.mean(axis=1) + 1e-12)

    def test_concavity(self):
        rng = np.random.default_rng(10)
        cone = ConeSpec(5, 4)
        a = 0.1 + np.abs(rng.normal(size=(200, 5)))
        b = 0.1 + np.abs(rng.normal(size=(200, 5)))
        s = rng.uniform(size=(200, 1))
        mix = np.asarray(f_eval(cone, s * a + (1 - s) * b))
        sep = (s[:, 0] * np.asarray(f_eval(cone, a))
               + (1 - s[:, 0]) * np.asarray(f_eval(cone, b)))
        assert np.all(mix >= sep - 1e-12)


def bisected_mu_plus(cone):
    """mu+ by 60 bisection steps on the sign of the full-form margin of
    (-mu, 1, ..., 1) over [0, n-1]: the oracle for the closed form."""
    probe = np.ones(cone.n)

    def member(m):
        probe[0] = -m
        return cone_margin(cone, probe) > 0.0

    lo, hi = 0.0, float(cone.n - 1)
    if not member(lo):
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


MU_PLUS_TAUS = (0.0, 0.1, 0.25, 0.5, 0.7, 0.75, 0.8, 0.9, 0.95, 0.99,
                0.99999, 0.9999999, 1.0)


class TestMuPlus:
    def test_closed_form_undeformed(self):
        for n in range(3, 9):
            for k in range(1, n + 1):
                assert mu_plus(ConeSpec(n, k)) == pytest.approx((n - k) / k, abs=1e-10)

    def test_closed_form_deformed_top(self):
        for n in (3, 4, 6):
            for tau in (0.2, 0.5, 0.9):
                expected = (1 - tau) * (n - 1)
                assert mu_plus(ConeSpec(n, n, tau)) == pytest.approx(expected, abs=1e-10)

    def test_matches_full_form_bisection(self):
        for n in range(3, 9):
            for k in range(1, n + 1):
                for tau in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
                    cone = ConeSpec(n, k, tau)
                    mu = mu_plus(cone)
                    assert 0.0 <= mu <= n - 1
                    assert abs(mu - bisected_mu_plus(cone)) <= 1e-12, (n, k, tau)

    def test_correctly_rounded(self):
        assert mu_plus(ConeSpec(4, 3)) == 1 / 3
        assert mu_plus(ConeSpec(6, 3, 0.5)) == 11 / 3
        assert mu_plus(ConeSpec(7, 6)) == 1 / 6
        assert mu_plus(ConeSpec(5, 5, 0.7)) == float(4 * (1 - Fraction(0.7)))
        # The nearest float to the closed form at 40 digits, from the float tau.
        for n in range(3, 9):
            for k in range(1, n + 1):
                for tau in MU_PLUS_TAUS:
                    with mpmath.workdps(40):
                        t = mpmath.mpf(tau)
                        s = 1 - t
                        exact = ((k * s * (n - 1) + (n - k) * (t + s * (n - 1)))
                                 / (k + (n - k) * s))
                    assert mu_plus(ConeSpec(n, k, tau)) == float(exact), (n, k, tau)

    def test_boundary_flip(self):
        cone = ConeSpec(5, 2)
        mu = mu_plus(cone)
        inside = np.ones(5)
        inside[0] = -(mu - 1e-8)
        outside = np.ones(5)
        outside[0] = -(mu + 1e-8)
        assert cone_margin(cone, inside) > 0
        assert cone_margin(cone, outside) <= 0


class TestRayE1:
    def test_known_cases(self):
        assert contains_ray_e1(ConeSpec(3, 1))
        assert contains_ray_e1(ConeSpec(8, 1))
        assert not contains_ray_e1(ConeSpec(4, 2))
        assert not contains_ray_e1(ConeSpec(5, 5))
        # deformation reopens the cone around e1
        assert contains_ray_e1(ConeSpec(4, 2, 0.5))

    @pytest.mark.parametrize("cone", [ConeSpec(4, 3, 0.9999999),
                                      ConeSpec(6, 4, 0.99999),
                                      ConeSpec(8, 8, 0.99)])
    def test_inside_for_every_tau_below_one(self, cone):
        """e1 deforms to the pair (1, 1 - tau), strictly inside for tau < 1
        although its margin, about (1 - tau)^(k-1), is far below 1e-12."""
        assert contains_ray_e1(cone)
        assert sigma_all(tau_deform(np.eye(cone.n)[0], cone.tau), None, cone.k)[cone.k] > 0.0


# Verbatim copies of the full-spectrum kernels before the pair form existed:
# the general path must return bit-identical arrays.
def reference_sigma_all(lam):
    lam = np.sort(np.asarray(lam, dtype=float), axis=-1)
    n = lam.shape[-1]
    e = np.zeros(lam.shape[:-1] + (n + 1,))
    e[..., 0] = 1.0
    for i in range(n):
        e[..., 1:i + 2] += lam[..., i:i + 1] * e[..., 0:i + 1].copy()
    return e


def reference_tau_deform(lam, tau):
    lam = np.asarray(lam, dtype=float)
    s1 = np.sort(lam, axis=-1).sum(axis=-1, keepdims=True)
    return tau * lam + (1.0 - tau) * s1


def reference_cone_margin(cone, lam):
    lam = np.asarray(lam, dtype=float)
    mu = reference_tau_deform(lam, cone.tau)
    sig = reference_sigma_all(mu)
    scale = np.maximum(1.0, np.abs(mu).max(axis=-1))
    margins = np.empty(mu.shape[:-1] + (cone.k,))
    for j in range(1, cone.k + 1):
        margins[..., j - 1] = sig[..., j] / (comb(cone.n, j) * scale ** j)
    out = margins.min(axis=-1)
    return out if out.ndim else float(out)


def on_one_path(reference):
    """reference(cone, lam) applied as the cone functions apply their one
    input path: to lam flattened to a C-ordered (rows, last) batch, so one
    spectrum is a one-row batch, with each result reshaped back to lam's
    leading shape.  A one-spectrum result is a numpy scalar, or a float
    where the reference returns a float for a single spectrum."""
    def batched(cone, lam):
        lam = np.asarray(lam, dtype=float)
        lead = lam.shape[:-1]
        got = reference(cone, np.ascontiguousarray(lam.reshape(-1, lam.shape[-1])))
        if isinstance(got, tuple):
            return tuple(res.reshape(lead + res.shape[1:])[()] for res in got)
        got = got.reshape(lead + got.shape[1:])
        return got if got.ndim else float(got)
    return batched


class TestGeneralPathUnchanged:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_bit_identical_to_reference(self, n):
        rng = np.random.default_rng(100 + n)
        for shape in [(n,), (200, n), (3, 40, n)]:
            lam = rng.normal(size=shape) * rng.uniform(0.01, 50.0, size=shape)
            full = sigma_all(lam, None, n)
            assert np.array_equal(full, reference_sigma_all(lam))
            for k in range(n + 1):
                assert np.array_equal(sigma_all(lam, None, k), full[..., :k + 1])
            for tau in (0.0, 0.37, 0.95, 1.0):
                assert np.array_equal(tau_deform(lam, tau),
                                      reference_tau_deform(lam, tau))
                for k in range(1, n + 1):
                    cone = ConeSpec(n, k, tau)
                    assert np.array_equal(cone_margin(cone, lam),
                                          on_one_path(reference_cone_margin)(cone, lam))


def mp_sigma(full, j):
    """sigma_j of a full spectrum in 50-digit arithmetic, by the product
    recurrence on prod_i (t + lam_i)."""
    with mpmath.workdps(50):
        e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * len(full)
        for x in full:
            x = mpmath.mpf(float(x))
            for i in range(len(e) - 1, 0, -1):
                e[i] += x * e[i - 1]
        return e[j]


def pairs(max_size):
    return st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
                    min_size=1, max_size=max_size).map(np.array)


class TestPairForm:
    """A pair (a, b) stands for (a, b, ..., b); the full form is the oracle."""

    @pytest.mark.parametrize("tau", [0.0, 0.5, 0.95, 0.999, 1.0])
    @pytest.mark.parametrize("n", range(3, 9))
    @settings(max_examples=15, deadline=None)
    @given(lam=pairs(60))
    def test_margin_f_and_grad_match_full(self, n, tau, lam):
        full = np.column_stack([lam[:, 0]] + [lam[:, 1]] * (n - 1))
        for k in range(1, n + 1):
            cone = ConeSpec(n, k, tau)
            mp, mf = cone_margin(cone, lam), cone_margin(cone, full)
            clear = np.abs(mf) > 1e-12
            assert np.array_equal(mp[clear] > 0, mf[clear] > 0)
            assert np.max(np.abs(mp - mf)) <= 1e-13
            inside = mf >= 1e-3
            if not inside.any():
                continue
            fp, gp = _f_and_grad_unchecked(cone, lam[inside])
            ff, gf = _f_and_grad_unchecked(cone, full[inside])
            np.testing.assert_allclose(fp, ff, rtol=1e-12)
            # (g_R, g_T) relative to |g_R| + |g_T|: a g_T far below g_R
            # carries the cancellation of the sigma_{k-1}(mu \ i) recurrence
            # on both paths (componentwise up to 5e-12 at n = k = 8).
            g_R, g_T = gf[:, 0], gf[:, 1:].sum(axis=1)
            size = np.abs(g_R) + np.abs(g_T)
            assert np.all(np.abs(gp[:, 0] - g_R) <= 1e-12 * size)
            assert np.all(np.abs((n - 1) * gp[:, 1] - g_T) <= 1e-12 * size)

    @pytest.mark.parametrize("n", range(3, 9))
    @settings(max_examples=15, deadline=None)
    @given(lam=pairs(8))
    def test_sigma_all_matches_mpmath(self, n, lam):
        sig = sigma_all(lam, n, n)
        assert sig.shape == (lam.shape[0], n + 1)
        assert np.all(sig[:, 0] == 1.0)
        for k in range(n + 1):
            assert np.array_equal(sigma_all(lam, n, k), sig[:, :k + 1])
        # Rounding is relative to sigma_j of the absolute values, down to
        # the subnormal range.
        size = sigma_all(np.abs(lam), n, n)
        for row in range(lam.shape[0]):
            full = [lam[row, 0]] + [lam[row, 1]] * (n - 1)
            for j in range(1, n + 1):
                exact = float(mp_sigma(full, j))
                assert abs(sig[row, j] - exact) <= 1e-14 * size[row, j] + 1e-300

    def test_public_functions_take_pairs(self):
        """f_eval, grad_f and cone_margin read a last axis of 2 as a pair, never
        as a 2-vector: the same answers as the full spectrum."""
        cone = ConeSpec(4, 2, 0.9)
        pair, full = np.array([1.0, 2.0]), np.array([1.0, 2.0, 2.0, 2.0])
        assert f_eval(cone, pair) == pytest.approx(f_eval(cone, full), rel=1e-14)
        assert f_eval(cone, pair) == pytest.approx(1.7414202188725805, rel=1e-14)
        np.testing.assert_allclose(grad_f(cone, pair), grad_f(cone, full)[:2],
                                   rtol=1e-14)
        assert cone_margin(cone, pair) > 0
        outside = np.array([-5.0, 1.0])     # a / b = -5 < -mu+ = -(n - k) / k = -1
        assert cone_margin(ConeSpec(4, 2), outside) <= 0
        with pytest.raises(ConeDomainError):
            f_eval(ConeSpec(4, 2), outside)

    def test_shape_errors(self):
        with pytest.raises(InvalidArgumentError):
            sigma_all(np.ones(3), 4, 2)
        for lam, n in ((np.ones((5, 2)), 4), (np.ones((5, 4)), None)):
            for k in (-1, 5, 1.5, True):
                with pytest.raises(InvalidArgumentError, match="order k"):
                    sigma_all(lam, n, k)
        with pytest.raises(InvalidArgumentError):
            tau_deform(np.ones((5, 3)), 0.5, 4)
        # The pair length and tau are refused by name, bools included.
        pair = np.array([1.0, 2.0])
        for n in (True, 0, -4, 2.0, 3.5, "4"):
            for call in (lambda: sigma_all(pair, n, 1),
                         lambda: tau_deform(pair, 0.5, n)):
                with pytest.raises(InvalidArgumentError, match="pair length n"):
                    call()
        for tau in ("0.5", True, None):
            with pytest.raises(InvalidArgumentError, match="tau must be a real"):
                tau_deform(pair, tau, 3)
        # A 0-d spectrum is neither form: refused with its shape, not with a
        # numpy axis or index error.
        for call in (lambda: tau_deform(np.float64(2.0), 0.5),
                     lambda: sigma_all(np.float64(2.0), None, 0),
                     lambda: tau_deform(2.0, 0.5, 4),
                     lambda: sigma_all(2.0, 4, 2)):
            with pytest.raises(InvalidArgumentError, match=r"shape \(\)"):
                call()
        for fn in (cone_margin, f_eval, grad_f):
            with pytest.raises(InvalidArgumentError):
                fn(ConeSpec(4, 2), np.ones(3))
        # Spectra of bools, strings or objects are refused by name, not
        # converted to numbers; integer spectra convert.
        for lam in ([True, True], ["1", "2"], [[True, False, True]],
                    [["1", "2", "3"]], [None, 1.0], [1j, 2j]):
            for call in (lambda: cone_margin(ConeSpec(3, 1), lam),
                         lambda: f_eval(ConeSpec(3, 1), lam),
                         lambda: grad_f(ConeSpec(3, 1), lam),
                         lambda: sigma_all(lam, None if len(lam) != 2 else 3, 2),
                         lambda: tau_deform(lam, 0.5, None if len(lam) != 2 else 3)):
                with pytest.raises(InvalidArgumentError,
                                   match="^lam must be an array of real numbers"):
                    call()
        assert sigma_all([1, 2, 3], None, 2).tolist() == [1.0, 6.0, 11.0]
        assert sigma_all(np.array([1, 2, 3], dtype=np.uint8), None, 2).tolist() == [
            1.0, 6.0, 11.0]
        assert cone_margin(ConeSpec(3, 1), [1, 2]) == cone_margin(ConeSpec(3, 1),
                                                                   [1.0, 2.0])
        # Float64 input is used as given, with no copy.
        lam = np.array([[1.0, 2.0]])
        assert cones._real_array(lam, "lam") is lam


# The cone functions as they were before they shared one _deformed_sigma
# pass: each runs tau_deform + sigma_all itself, and f_eval and grad_f check
# membership with a pass of their own.  The split must give the same bits
# and the same result types.
def pre_split_margin(cone, lam):
    lam = np.asarray(lam, dtype=float)
    pair = cone.n if lam.shape[-1:] == (2,) else None
    mu = tau_deform(lam, cone.tau, pair)
    sig = sigma_all(mu, pair, cone.k)
    abs_mu = np.abs(mu)
    scale = abs_mu[..., 0]
    for i in range(1, mu.shape[-1]):
        np.maximum(scale, abs_mu[..., i], out=scale)
    np.maximum(scale, 1.0, out=scale)
    scale = scale[()]
    out = None
    for j in range(1, cone.k + 1):
        margin_j = sig[..., j] / (comb(cone.n, j) * scale ** j)
        out = margin_j if out is None else np.minimum(out, margin_j)
    return out if out.ndim else float(out)


def pre_split_check_inside(cone, lam):
    margin = pre_split_margin(cone, lam)
    if not np.all(np.asarray(margin) > 0.0):
        worst = float(np.min(margin))
        raise ConeDomainError(
            f"spectrum outside Gamma (worst margin {worst:.3e})", margin=worst)


def pre_split_f_eval(cone, lam):
    pre_split_check_inside(cone, lam)
    pair = cone.n if np.asarray(lam).shape[-1:] == (2,) else None
    mu = tau_deform(lam, cone.tau, pair)
    sk = sigma_all(mu, pair, cone.k)[..., cone.k]
    out = cone.normalization * sk ** (1.0 / cone.k) / cone.deformation_scale
    return out if np.ndim(out) else float(out)


def pre_split_f_and_grad(cone, lam):
    lam = np.asarray(lam, dtype=float)
    n, k = cone.n, cone.k
    pair = n if lam.shape[-1:] == (2,) else None
    mu = tau_deform(lam, cone.tau, pair)
    sig = sigma_all(mu, pair, k)
    sk = sig[..., k]
    fk = cone.normalization * sk ** (1.0 / k)
    weight = fk / (k * sk)
    s = cone.deformation_scale
    if pair is None:
        if k == 1:
            drop = np.ones_like(mu)
        else:
            drop = np.stack([sigma_all(np.delete(mu, i, axis=-1), None, k - 1)[..., k - 1]
                             for i in range(n)], axis=-1)
        grad_F = weight[..., None] * drop
        total = grad_F.sum(axis=-1, keepdims=True)
        return fk / s, (cone.tau * grad_F + (1.0 - cone.tau) * total) / s
    if k == 1:
        grad_a = grad_b = weight
    else:
        a, b = mu[..., 0], mu[..., 1]
        b_pow = b ** (k - 2)
        grad_a = weight * (comb(n - 1, k - 1) * b * b_pow)
        grad_b = weight * ((comb(n - 2, k - 1) * b + comb(n - 2, k - 2) * a) * b_pow)
    shift = (1.0 - cone.tau) * (grad_a + (n - 1) * grad_b)
    g = np.empty((2,) + np.shape(weight))
    for i, grad in enumerate((grad_a, grad_b)):
        column = g[i, ...]
        np.multiply(grad, cone.tau, out=column)
        column += shift
        column /= s
    return fk / s, np.moveaxis(g, 0, -1)


def pre_split_grad_f(cone, lam):
    pre_split_check_inside(cone, lam)
    return pre_split_f_and_grad(cone, lam)[1]


def assert_same_bits(got, want):
    """Equal result types, shapes and bytes, element by element for tuples."""
    assert type(got) is type(want)
    if isinstance(got, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
        return
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@st.composite
def cone_inputs(draw):
    """(cone, lam): a pair or full spectrum, one spectrum or a batch, as an
    array or as (nested) tuples; entries of both signs, so some points lie
    outside the cone."""
    n = draw(st.integers(3, 8))
    cone = ConeSpec(n, draw(st.integers(1, n)),
                    draw(st.sampled_from([0.0, 0.5, 0.95, 1.0])))
    width = draw(st.sampled_from([2, n]))
    entry = st.floats(-20.0, 20.0)
    spectrum = st.tuples(*[entry] * width)
    lam = draw(spectrum | st.lists(spectrum, min_size=1, max_size=20).map(tuple))
    return cone, lam if draw(st.booleans()) else np.array(lam)


# What one cone pass calls, by form: a pair goes through the public
# tau_deform and sigma_all, a full spectrum through one row sort (np.sort,
# or np.argsort for the gradient readers), the deformation helper and the
# sigma recurrence, both on the sorted rows.
PASS_CALLS = {"pair": ("tau_deform", "sigma_all"),
              "full": ("row sort", "_deform_full", "_sigma_sorted")}


def assert_sorted_rows(lam, *args, **kwargs):
    lam = np.asarray(lam)
    assert np.all(lam[..., :-1] <= lam[..., 1:])


def count_pass_calls(monkeypatch, form):
    """The call counts of PASS_CALLS[form], kept up to date by wrappers
    patched in for the rest of the test.  The full form's deformation and
    recurrence must get rows already sorted."""
    calls = dict.fromkeys(PASS_CALLS[form], 0)

    def counted(name, original, check=None):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if check is not None:
                check(*args, **kwargs)
            return original(*args, **kwargs)
        return wrapper

    if form == "pair":
        for name in calls:
            monkeypatch.setattr(cones, name, counted(name, getattr(cones, name)))
        return calls
    for name in ("sort", "argsort"):
        monkeypatch.setattr(np, name, counted("row sort", getattr(np, name)))
    for name in ("_deform_full", "_sigma_sorted"):
        monkeypatch.setattr(cones, name,
                            counted(name, getattr(cones, name), assert_sorted_rows))
    return calls


class TestOnePass:
    """Each cone function makes one deformation and one sigma pass and gives
    the bits of the functions that made two."""

    @settings(max_examples=300, deadline=None)
    @given(case=cone_inputs())
    def test_bit_identical_to_pre_split(self, case):
        cone, lam = case
        margin = on_one_path(pre_split_margin)(cone, lam)
        assert_same_bits(cone_margin(cone, lam), margin)
        with np.errstate(all="ignore"):
            assert_same_bits(_f_and_grad_unchecked(cone, lam),
                             on_one_path(pre_split_f_and_grad)(cone, lam))
        for fn, reference in ((f_eval, pre_split_f_eval),
                              (grad_f, pre_split_grad_f)):
            try:
                want = on_one_path(reference)(cone, lam)
            except ConeDomainError as err:
                with pytest.raises(ConeDomainError) as got:
                    fn(cone, lam)
                assert got.value.margin == err.margin
                assert str(got.value) == str(err)
            else:
                assert_same_bits(fn(cone, lam), want)

    @pytest.mark.parametrize("fn", [cone_margin, f_eval, grad_f,
                                    _f_and_grad_unchecked])
    @pytest.mark.parametrize("form", ["pair", "full"])
    def test_one_deformation_and_one_sigma_pass(self, monkeypatch, fn, form):
        calls = count_pass_calls(monkeypatch, form)
        cone = ConeSpec(5, 3, 0.9)
        lam = np.array([[1.0, 2.0], [3.0, 0.5]])
        if form == "full":
            lam = np.repeat(lam, [1, 4], axis=1)
        fn(cone, lam)
        assert calls == dict.fromkeys(PASS_CALLS[form], 1)


CONE_FUNCTIONS = (cone_margin, f_eval, grad_f, _f_and_grad_unchecked)
# The block size the blocked-path tests patch in: small enough that a
# handful of rows spans several blocks.
BLOCK = 3
BLOCK_ROWS = (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2)


def outcome(fn, cone, lam, block_rows=None):
    """fn(cone, lam), or the ConeDomainError it raises, with _BLOCK_ROWS
    patched to block_rows if given."""
    with pytest.MonkeyPatch.context() as m, np.errstate(all="ignore"):
        if block_rows is not None:
            m.setattr(cones, "_BLOCK_ROWS", block_rows)
        try:
            return fn(cone, lam)
        except ConeDomainError as err:
            return err


def assert_same_outcome(got, want):
    """Equal results bit for bit, or errors with the same margin and text."""
    if isinstance(want, ConeDomainError):
        assert isinstance(got, ConeDomainError)
        assert np.float64(got.margin).tobytes() == np.float64(want.margin).tobytes()
        assert str(got) == str(want)
    else:
        assert_same_bits(got, want)


@st.composite
def blocked_inputs(draw):
    """(cone, lam): pairs or full spectra with 1, B-1, B, B+1 or 3B+2 rows,
    a leading shape (a, b), or one spectrum (leading shape ()), whose
    results are scalars; all inside the cone or of both signs."""
    n = draw(st.integers(3, 8))
    cone = ConeSpec(n, draw(st.integers(1, n)),
                    draw(st.sampled_from([0.0, 0.5, 0.95, 1.0])))
    lead = draw(st.just(()) | st.sampled_from([(rows,) for rows in BLOCK_ROWS])
                | st.tuples(st.integers(1, 4), st.integers(1, 4)))
    width = draw(st.sampled_from([2, n]))
    size = math.prod(lead) * width
    entries = draw(st.lists(st.floats(-20.0, 20.0), min_size=size, max_size=size))
    lam = np.array(entries).reshape(lead + (width,))
    return cone, np.abs(lam) + 0.5 if draw(st.booleans()) else lam


class TestRowBlocks:
    """Past _BLOCK_ROWS rows the cone functions make their pass block by
    block, with the bits, result types and errors of one pass."""

    @settings(max_examples=300, deadline=None)
    @given(case=blocked_inputs())
    def test_blocks_give_the_bits_of_one_pass(self, case):
        cone, lam = case
        for fn in CONE_FUNCTIONS:
            assert_same_outcome(outcome(fn, cone, lam, BLOCK), outcome(fn, cone, lam))

    @pytest.mark.parametrize("form", ["pair", "full"])
    @pytest.mark.parametrize("fn", [f_eval, grad_f])
    def test_outside_point_in_the_last_block_only(self, fn, form):
        """The error comes after every block and carries the worst margin of
        all of them, with the text of one pass."""
        cone = ConeSpec(5, 3, 0.9)
        rows = 3 * BLOCK + 2
        lam = np.tile([1.0, 2.0], (rows, 1))
        lam[-1] = (-9.0, 1.0)
        if form == "full":
            lam = np.repeat(lam, [1, 4], axis=1)
        got = outcome(fn, cone, lam, BLOCK)
        assert isinstance(got, ConeDomainError)
        assert got.margin == float(np.min(cone_margin(cone, lam))) < 0.0
        assert_same_outcome(got, outcome(fn, cone, lam))
        lam[0] = lam[-1] * 2.0            # a worse point in the first block
        got = outcome(fn, cone, lam, BLOCK)
        assert got.margin == float(np.min(cone_margin(cone, lam)))
        assert_same_outcome(got, outcome(fn, cone, lam))

    @pytest.mark.parametrize("fn", CONE_FUNCTIONS)
    @pytest.mark.parametrize("form", ["pair", "full"])
    def test_one_deformation_and_one_sigma_pass_per_block(self, monkeypatch,
                                                          fn, form):
        calls = count_pass_calls(monkeypatch, form)
        monkeypatch.setattr(cones, "_BLOCK_ROWS", BLOCK)
        cone = ConeSpec(5, 3, 0.9)
        for rows in BLOCK_ROWS:
            lam = np.tile([1.0, 2.0], (rows, 1))
            if form == "full":
                lam = np.repeat(lam, [1, 4], axis=1)
                lam[1::2] = lam[1::2, ::-1]     # rows in both orders
            calls.update(dict.fromkeys(calls, 0))
            fn(cone, lam)
            blocks = -(-rows // BLOCK)
            assert calls == dict.fromkeys(PASS_CALLS[form], blocks)


# The full-path kernels as they were before they ran on contiguous columns:
# the product recurrence across a short last axis, and each gradient entry's
# sigma_{k-1} from an np.delete copy.  The column kernels must give the same
# bits, result types and errors.  The recurrence takes rows as they come
# (the cone pass hands it sorted ones); row_major_sigma_full sorts first.
def row_major_sigma_sorted(lam, k):
    e = np.zeros(lam.shape[:-1] + (k + 1,))
    e[..., 0] = 1.0
    for i in range(lam.shape[-1]):
        top = min(i + 1, k)
        e[..., 1:top + 1] += lam[..., i:i + 1] * e[..., 0:top]
    return e


def row_major_sigma_full(lam, k):
    return row_major_sigma_sorted(np.sort(lam, axis=-1), k)


def delete_drop_one(mu, m):
    return np.stack([row_major_sigma_full(np.delete(mu, i, axis=-1), m)[..., m]
                     for i in range(mu.shape[-1])], axis=-1)


def sorted_delete_drop_one(mu, m, order):
    """delete_drop_one for _sigma_drop_one's arguments: on the sorted rows
    mu, deleting each position, then put back in entry order by order."""
    dropped = np.stack([row_major_sigma_sorted(np.delete(mu, s, axis=-1), m)[..., m]
                        for s in range(mu.shape[-1])], axis=-1)
    drop = np.empty(mu.shape)
    np.put_along_axis(drop, order, dropped, axis=-1)
    return drop


def row_major_outcome(fn, cone, lam):
    """outcome(fn, cone, lam) with the row-major kernels patched in."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cones, "_sigma_sorted", row_major_sigma_sorted)
        m.setattr(cones, "_sigma_drop_one", sorted_delete_drop_one)
        return outcome(fn, cone, lam)


@st.composite
def full_spectra(draw):
    """(cone, lam, block_rows): a full spectrum of shape (n,), (rows, n) or
    (a, b, n) with n up to 10; entries drawn partly from a few values, so
    ties and (signed) zeros are common, and of both signs unless shifted
    inside the positive cone; block_rows None or small enough to split."""
    n = draw(st.integers(3, 10))
    cone = ConeSpec(n, draw(st.integers(1, n)),
                    draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)))
    lead = draw(st.just(()) | st.tuples(st.integers(1, 12))
                | st.tuples(st.integers(1, 4), st.integers(1, 4)))
    size = math.prod(lead) * n
    entry = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | st.floats(-20.0, 20.0)
    lam = np.array(draw(st.lists(entry, min_size=size, max_size=size)))
    lam = lam.reshape(lead + (n,))
    if draw(st.booleans()):
        lam = np.abs(lam) + 0.5
    return cone, lam, draw(st.sampled_from([None, 1, 2, 3]))


class TestColumnKernels:
    """The full path's product recurrence runs over contiguous columns, and
    its gradient skips one sorted position at a time instead of deleting an
    entry: the bits of the row-major kernels."""

    @settings(max_examples=300, deadline=None)
    @given(case=full_spectra())
    def test_bit_identical_to_row_major(self, case):
        cone, lam, block_rows = case
        with np.errstate(all="ignore"):
            for k in range(cone.n + 1):
                assert_same_bits(sigma_all(lam, None, k), row_major_sigma_full(lam, k))
            order = np.argsort(lam, axis=-1)
            rows = np.take_along_axis(lam, order, axis=-1)
            assert_same_bits(cones._sigma_drop_one(rows, cone.k - 1, order),
                             delete_drop_one(lam, cone.k - 1))
        for fn in CONE_FUNCTIONS:
            assert_same_outcome(outcome(fn, cone, lam, block_rows),
                                row_major_outcome(fn, cone, lam))


# The full-form pass as it was before it sorted each row once: tau_deform
# sorted the rows for the trace, sigma_all sorted the deformed rows again
# for the recurrence, the gradient argsorted them a third time, and the
# margin's scale took |mu| of every column.  Kept here, blocks and all, as
# the oracle of the one-sort pass.
def two_sort_pass(cone, lam):
    s1 = np.sort(lam, axis=-1).sum(axis=-1, keepdims=True)
    mu = cone.tau * lam + (1.0 - cone.tau) * s1
    k = cone.k
    e = np.zeros((k + 1,) + mu.shape[:-1])
    e[0, ...] = 1.0
    term = np.empty_like(e[1:])
    for i, x in enumerate(np.moveaxis(np.sort(mu, axis=-1), -1, 0)):
        two_sort_step(e, x, min(i + 1, k), term)
    return mu, np.moveaxis(e, 0, -1)


def two_sort_step(e, x, top, term):
    np.multiply(x, e[:top], out=term[:top])
    e[1:top + 1] += term[:top]


def two_sort_drop_one(mu, m):
    order = np.argsort(mu, axis=-1)
    columns = np.moveaxis(np.take_along_axis(mu, order, axis=-1), -1, 0)
    n = len(columns)
    head = np.zeros((m + 1,) + mu.shape[:-1])
    head[0, ...] = 1.0
    e, term = np.empty_like(head), np.empty_like(head[1:])
    dropped = np.empty((n,) + mu.shape[:-1])
    for s in range(n):
        np.copyto(e, head)
        for t in range(s + 1, n):
            two_sort_step(e, columns[t], min(t, m), term)
        dropped[s, ...] = e[m, ...]
        if s + 1 < n:
            two_sort_step(head, columns[s], min(s + 1, m), term)
    drop = np.empty(mu.shape)
    np.put_along_axis(drop, order, np.moveaxis(dropped, 0, -1), axis=-1)
    return drop


def two_sort_margin(cone, mu, sig):
    scale = np.abs(mu[..., 0], out=np.empty(mu.shape[:-1]))
    for i in range(1, mu.shape[-1]):
        np.maximum(scale, np.abs(mu[..., i]), out=scale)
    np.maximum(scale, 1.0, out=scale)
    scale = scale[()]
    for j in range(1, cone.k + 1):
        margin_j = np.divide(sig[..., j],
                             comb(cone.n, j) * (scale ** j if j > 1 else scale))
        margin = margin_j if j == 1 else np.minimum(margin, margin_j)
    return margin if margin.ndim else float(margin)


def two_sort_f_undeformed(cone, sig):
    fk = sig[..., cone.k]
    if cone.k > 1:
        fk = fk ** (1.0 / cone.k)
        fk *= cone.normalization
        return fk
    return np.multiply(fk, cone.normalization)


def two_sort_f_and_grad(cone, mu, sig):
    k, s = cone.k, cone.deformation_scale
    fk = two_sort_f_undeformed(cone, sig)
    weight = sig[..., k]
    if k > 1:
        weight *= k
    np.divide(fk, weight, out=weight)
    fk /= s
    grad_F = weight[..., None] * two_sort_drop_one(mu, k - 1)
    total = grad_F.sum(axis=-1, keepdims=True)
    return fk, np.divide(cone.tau * grad_F + (1.0 - cone.tau) * total, s)


def two_sort_blocks(cone, lam, read):
    """read(mu, sig) by blocks of cones._BLOCK_ROWS rows, as _by_blocks
    splits them, the results joined in row order."""
    lam = np.asarray(lam, dtype=float)
    lead = lam.shape[:-1]
    rows = math.prod(lead)
    if rows <= cones._BLOCK_ROWS:
        return read(*two_sort_pass(cone, lam))
    flat = lam.reshape(rows, lam.shape[-1])
    parts = [read(*two_sort_pass(cone, flat[start:start + cones._BLOCK_ROWS]))
             for start in range(0, rows, cones._BLOCK_ROWS)]
    return tuple(np.concatenate(col).reshape(lead + col[0].shape[1:])
                 for col in zip(*parts))


def two_sort_inside(cone, lam, read):
    with np.errstate(divide="ignore", invalid="ignore"):
        margin, out = two_sort_blocks(cone, lam, lambda mu, sig: (
            two_sort_margin(cone, mu, sig), read(mu, sig)))
    if not np.all(np.asarray(margin) > 0.0):
        worst = float(np.min(margin))
        raise ConeDomainError(
            f"spectrum outside Gamma (worst margin {worst:.3e})", margin=worst)
    return out


def two_sort_cone_margin(cone, lam):
    return two_sort_blocks(cone, lam, lambda mu, sig: (
        two_sort_margin(cone, mu, sig),))[0]


def two_sort_f_eval(cone, lam):
    fk = two_sort_inside(cone, lam, lambda mu, sig: two_sort_f_undeformed(cone, sig))
    out = fk / cone.deformation_scale
    return out if np.ndim(out) else float(out)


def two_sort_f_and_grad_unchecked(cone, lam):
    return two_sort_blocks(cone, lam, lambda mu, sig: two_sort_f_and_grad(
        cone, mu, sig))


def two_sort_grad_f(cone, lam):
    return two_sort_inside(cone, lam, lambda mu, sig: two_sort_f_and_grad(
        cone, mu, sig)[1])


TWO_SORT = {cone_margin: two_sort_cone_margin, f_eval: two_sort_f_eval,
            grad_f: two_sort_grad_f,
            _f_and_grad_unchecked: two_sort_f_and_grad_unchecked}


def assert_same_bits_but_nan(got, want):
    """assert_same_bits, except that a NaN matches any NaN: its sign bit
    depends on which NaN an operation meets first."""
    assert type(got) is type(want)
    if isinstance(got, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bits_but_nan(g, w)
        return
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def assert_same_outcome_but_nan(got, want):
    if isinstance(want, ConeDomainError):
        assert isinstance(got, ConeDomainError)
        assert_same_bits_but_nan(np.float64(got.margin), np.float64(want.margin))
        assert str(got) == str(want)
    else:
        assert_same_bits_but_nan(got, want)


NASTY = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.nan, -math.nan,
                         math.inf, -math.inf, 1e308, -1e308, 5e-324])


@st.composite
def sort_once_inputs(draw):
    """(cone, lam, block_rows): full spectra of shape (n,), (rows, n) or
    (a, b, n), n up to 10, with ties and mixed signed zeros among their
    entries, and in half the cases NaN, +-inf and overflowing sums as
    well; some shifted inside the
    positive cone, some laid out in Fortran order (np.sort keeps the
    layout, and the trace sums in its order); block_rows None or 3."""
    n = draw(st.integers(3, 10))
    cone = ConeSpec(n, draw(st.integers(1, n)),
                    draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)))
    lead = draw(st.just(()) | st.tuples(st.integers(1, 12))
                | st.tuples(st.integers(1, 4), st.integers(1, 4)))
    size = math.prod(lead) * n
    tame = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | st.floats(-20.0, 20.0)
    entry = draw(st.sampled_from([tame, NASTY | st.floats(allow_nan=False) | tame]))
    lam = np.array(draw(st.lists(entry, min_size=size, max_size=size)))
    lam = lam.reshape(lead + (n,))
    if draw(st.booleans()):
        with np.errstate(invalid="ignore", over="ignore"):
            lam = np.abs(lam) + 0.5
    if lam.ndim > 1 and draw(st.booleans()):
        lam = np.asfortranarray(lam)
    return cone, lam, draw(st.sampled_from([None, BLOCK]))


@st.composite
def tied_rows(draw):
    """(cone, row): one full spectrum with n <= 5 entries of which at least
    two are equal (+0.0 and -0.0 count as equal), NaN and +-inf allowed."""
    n = draw(st.integers(3, 5))
    cone = ConeSpec(n, draw(st.integers(1, n)),
                    draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)))
    distinct = draw(st.lists(NASTY | st.floats(-20.0, 20.0), min_size=1, max_size=n - 1))
    # a repeated zero may come back with the other sign
    again = st.sampled_from(distinct).flatmap(
        lambda x: st.sampled_from([x, -x]) if x == 0.0 else st.just(x))
    repeats = draw(st.lists(again, min_size=n - len(distinct),
                            max_size=n - len(distinct)))
    row = np.array(distinct + repeats)
    if draw(st.booleans()):
        row = np.abs(row) + 0.5
    return cone, row


class TestSortOnce:
    """The full pass sorts each row once and keeps the bits of the pass that
    sorted it twice, then argsorted it for the gradient."""

    @settings(max_examples=400, deadline=None)
    @given(case=sort_once_inputs())
    def test_bit_identical_to_two_sorts(self, case):
        cone, lam, block_rows = case
        for fn, reference in TWO_SORT.items():
            assert_same_outcome_but_nan(
                outcome(fn, cone, lam, block_rows),
                outcome(on_one_path(reference), cone, lam, block_rows))

    @settings(max_examples=150, deadline=None)
    @given(case=tied_rows())
    def test_every_permutation_of_a_tied_row(self, case):
        """The margin and f of every permutation of the row have the bits of
        the row's own, and each permutation's gradient is the two-sort one."""
        cone, row = case
        perms = np.array(list(itertools.permutations(range(cone.n))))
        batch = row[perms]
        for fn, reference in TWO_SORT.items():
            assert_same_outcome_but_nan(outcome(fn, cone, batch),
                                        outcome(reference, cone, batch))
        margins = outcome(cone_margin, cone, batch)
        fvals = outcome(_f_and_grad_unchecked, cone, batch)[0]
        for values in (margins, fvals):
            assert_same_bits_but_nan(values, np.full_like(values, values[0]))


@st.composite
def batches(draw):
    """(cone, lam, lead): a*b spectra as a C-ordered (a*b, width) batch and
    the leading shape (a, b) to regroup them by; n from 3 to 10, full rows
    (width n) or pairs (width 2); entries with ties, signed zeros,
    subnormals and +-inf, and among them (None drawn) seeded normal draws,
    whose sums round, unlike those of the short floats hypothesis favours."""
    n = draw(st.integers(3, 10))
    cone = ConeSpec(n, draw(st.integers(1, n)),
                    draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)))
    width = draw(st.sampled_from([2, n]))
    lead = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    size = math.prod(lead) * width
    entry = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -1e-310,
                              math.inf, -math.inf]) | st.floats(-20.0, 20.0)
             | st.none())
    drawn = draw(st.lists(entry, min_size=size, max_size=size))
    noise = iter(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
        scale=10.0, size=size))
    lam = np.array([next(noise) if x is None else x for x in drawn])
    return cone, lam.reshape(-1, width), lead


def row_results(result, rows):
    """A function's result, an array, a number or a tuple of them, as one
    (rows, columns) array per component, its NaNs all one NaN."""
    parts = []
    for part in result if isinstance(result, tuple) else (result,):
        part = np.array(part, dtype=float).reshape(rows, -1)
        part[np.isnan(part)] = np.nan
        parts.append(part)
    return parts


class TestBatchInvariance:
    """f and Gamma depend on the spectrum alone, and so does every number
    lnlab gives for one: a row has the same bits passed alone, inside a
    (rows,) or an (a, b) batch, in a Fortran-ordered one, and with the
    pass split into blocks of 3 rows."""

    @settings(max_examples=250, deadline=None)
    @given(case=batches())
    def test_each_row_has_the_bits_it_has_alone(self, case):
        cone, lam, lead = case
        pair = cone.n if lam.shape[-1] == 2 else None
        inside = np.abs(np.where(np.isfinite(lam), lam, 3.0)) + 0.5
        functions = {
            "cone_margin": (lambda x: cone_margin(cone, x), lam),
            "tau_deform": (lambda x: tau_deform(x, cone.tau, pair), lam),
            "sigma_all": (lambda x: sigma_all(x, pair, cone.k), lam),
            "f_eval": (lambda x: f_eval(cone, x), inside),
            "grad_f": (lambda x: grad_f(cone, x), inside),
            "_f_and_grad_unchecked": (lambda x: _f_and_grad_unchecked(cone, x),
                                      inside),
        }
        if pair is None:
            functions["ricci_spectrum_from_schouten"] = (
                ricci_spectrum_from_schouten, lam)
        rows = len(lam)
        with np.errstate(all="ignore"):
            for name, (fn, batch) in functions.items():
                grouped = batch.reshape(lead + batch.shape[-1:])
                alone = [row_results(fn(row), 1) for row in batch]
                want = [np.concatenate(part) for part in zip(*alone)]
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(cones, "_BLOCK_ROWS", BLOCK)
                    blocked = fn(batch), fn(grouped)
                for form, got in (("batch", fn(batch)), ("grouped", fn(grouped)),
                                  ("Fortran batch", fn(np.asfortranarray(batch))),
                                  ("Fortran grouped", fn(np.asfortranarray(grouped))),
                                  ("blocked batch", blocked[0]),
                                  ("blocked grouped", blocked[1])):
                    got = row_results(got, rows)
                    assert [part.shape for part in got] == [part.shape for part in want]
                    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), (
                        f"{name}: a {form} changes a row's bits")


def mp_elementary(values, j):
    """sigma_j of mpf values, by the product recurrence on prod_i (t + x_i)
    in the working precision."""
    e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * len(values)
    for x in values:
        for i in range(len(e) - 1, 0, -1):
            e[i] += x * e[i - 1]
    return e[j]


def mp_grad_f(cone, lam):
    """grad f^tau at one full spectrum in 50-digit arithmetic, with the
    size of each entry's rounding: sigma_{k-1} of each deleted vector, then
    the chain rule through lam^tau, d mu_i / d lam_j = tau*delta_ij + 1-tau.
    The size is the same sum with every term taken in absolute value."""
    n, k = cone.n, cone.k
    with mpmath.workdps(50):
        lam = [mpmath.mpf(float(x)) for x in lam]
        tau = mpmath.mpf(float(cone.tau))
        s = tau + n * (1 - tau)
        mu = [tau * x + (1 - tau) * sum(lam) for x in lam]
        sig_k = mp_elementary(mu, k)
        weight = (mpmath.mpf(comb(n, k)) ** (mpmath.mpf(-1) / k)
                  * sig_k ** (mpmath.mpf(1) / k) / (k * sig_k))
        rest = [mu[:i] + mu[i + 1:] for i in range(n)]
        drop = [mp_elementary(r, k - 1) for r in rest]
        size = [mp_elementary([abs(x) for x in r], k - 1) for r in rest]
        grad = [weight * (tau * d + (1 - tau) * sum(drop)) / s for d in drop]
        bound = [abs(weight) * (tau * b + (1 - tau) * sum(size)) / s for b in size]
        return np.array(grad, dtype=float), np.array(bound, dtype=float)


class TestGradientOracle:
    """grad_f on full spectra against 50-digit arithmetic that shares no code
    with the kernels."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_full_gradient_matches_mpmath(self, n):
        rng = np.random.default_rng(1500 + n)
        e1 = np.eye(n)[0]
        for k in range(1, n + 1):
            for tau in (0.0, 0.5, 1.0, rng.uniform()):
                cone = ConeSpec(n, k, tau)
                lam = rng.normal(size=(24, n)) + rng.uniform(0.0, 3.0, size=(24, 1))
                # Well inside, so sigma_k's own rounding stays below 1e3 eps.
                lam = lam[cone_margin(cone, lam) >= 1e-3][:6]
                near_ray = e1 + 10.0 ** -rng.uniform(3, 8, size=(3, 1)) * np.abs(
                    rng.normal(size=(3, n))) * (1.0 - e1)
                for point in list(lam) + list(near_ray) + ([e1] if tau < 1 else []):
                    got = grad_f(cone, point)
                    want, size = mp_grad_f(cone, point)
                    assert np.all(np.abs(got - want) <= 1e-13 * size), (
                        f"k={k}, tau={tau}, lam={point!r}")


# The argument checks as they were before their fast paths for a float64
# ndarray and a Python float: every input goes through np.asarray and the
# numbers.Real test.  The fast paths must give the same bits.
def checked_real(value, name):
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise InvalidArgumentError(f"{name} must be a real number, got {value!r}")


def checked_real_array(value, name):
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise InvalidArgumentError(
            f"{name} must be an array of real numbers, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


class TestCheckFastPaths:
    def test_float64_array_passes_as_is(self):
        x = np.linspace(0.0, 1.0, 6).reshape(3, 2)
        assert cones._real_array(x, "lam") is x is checked_real_array(x, "lam")

    @pytest.mark.parametrize("value", [
        np.arange(4), np.arange(4, dtype=np.float32), np.zeros(3, dtype=">f8"),
        np.zeros(3).view(type("Sub", (np.ndarray,), {})),
        [1.0, 2.0], 2.5, np.float64(2.5)])
    def test_other_arrays_convert_as_before(self, value):
        got, want = cones._real_array(value, "lam"), checked_real_array(value, "lam")
        assert type(got) is type(want) is np.ndarray
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("value", [True, np.bool_(False), "0.5", None, 1j])
    def test_non_reals_still_refused(self, value):
        with pytest.raises(InvalidArgumentError, match="^tau must be a real number"):
            cones._check_real(value, "tau")
        with pytest.raises(InvalidArgumentError, match="^tau must be a real number"):
            checked_real(value, "tau")

    def test_delta_sweeps_keep_their_bits(self, monkeypatch):
        """8 continuation_delta sweeps at grid 300, four cones on the ball
        and the annulus [0.5, 1], give the same u, residuals, margins and
        CSV text with the fast paths as with the checks before them."""
        from lnlab import admissible, schouten, solver

        def sweeps():
            digest = hashlib.sha256()
            for n, k, tau in ((3, 1, 0.5), (4, 2, 0.95), (5, 3, 0.7), (6, 2, 0.9)):
                for domain in (solver.Ball(1.0), solver.Annulus(0.5, 1.0)):
                    spec = solver.ProblemSpec(cone=ConeSpec(n, k), tau=tau,
                                              domain=domain, delta=0.1, grid=300)
                    sweep = solver.continuation_delta(spec)
                    assert sweep.ok
                    for rep in sweep.reports:
                        for a in (rep.profile.u, rep.residual_nodes, rep.margin_nodes):
                            digest.update(a.tobytes())
                        digest.update(rep.to_csv().encode())
            return digest.hexdigest()

        fast = sweeps()
        for module in (cones, schouten, solver, admissible):
            for name, check in (("_check_real", checked_real),
                                ("_real_array", checked_real_array)):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, check)
        assert sweeps() == fast
