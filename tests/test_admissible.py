"""Admissibility certificates: construction, soundness, determinism."""

import functools
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from lnlab import (BackgroundData, ConeSpec, find_N, linear_auxiliary,
                   radial_schouten_spectrum, verify_admissible)
from lnlab.admissible import N_SCAN, _certificate_at
from lnlab.cones import cone_margin, mu_plus
from lnlab.errors import (CriticalPointError, InvalidArgumentError,
                          NoCertificateError)


def flat_data(grid=33):
    return linear_auxiliary(np.linspace(0.0, 1.0, grid))


class TestBackgroundData:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            BackgroundData(v=np.full(4, 0.5), dv_sq=np.ones(4))
        with pytest.raises(CriticalPointError):
            BackgroundData(v=np.ones(4), dv_sq=np.array([1.0, 0.0, 1.0, 1.0]))
        with pytest.raises(InvalidArgumentError):
            BackgroundData(v=np.ones(4), dv_sq=np.ones(4), C0=0.5)
        with pytest.raises(InvalidArgumentError):
            BackgroundData(v=np.ones(4), dv_sq=np.ones(3))

    @pytest.mark.parametrize("field", ["v", "dv_sq", "C0", "C2", "C3"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_by_name(self, field, bad):
        values = {"v": np.ones(4), "dv_sq": np.ones(4),
                  "C0": 1.0, "C2": 0.0, "C3": 0.0}
        if field in ("v", "dv_sq"):
            values[field] = np.array([1.0, bad, 1.0, 1.0])
        else:
            values[field] = bad
        with pytest.raises(InvalidArgumentError, match=f"^{field} must be finite"):
            BackgroundData(**values)

    @pytest.mark.parametrize("field", ["C0", "C2", "C3"])
    @pytest.mark.parametrize("bad", ["2", None, True])
    def test_non_real_bound_rejected_by_name(self, field, bad):
        values = {"v": np.ones(4), "dv_sq": np.ones(4), field: bad}
        with pytest.raises(InvalidArgumentError, match=f"^{field} must be a real number"):
            BackgroundData(**values)

    @pytest.mark.parametrize("field", ["v", "dv_sq"])
    @pytest.mark.parametrize("bad", [["1", "2", "3"], [True, True, True],
                                     [1.0, None, 1.0]])
    def test_non_real_array_rejected_by_name(self, field, bad):
        values = {"v": np.ones(3), "dv_sq": np.ones(3), field: bad}
        with pytest.raises(InvalidArgumentError,
                           match=f"^{field} must be an array of real numbers"):
            BackgroundData(**values)

    def test_linear_auxiliary(self):
        data = linear_auxiliary(np.array([0.0, 0.5, 1.0]))
        assert np.array_equal(data.v, [1.0, 1.5, 2.0])
        assert np.array_equal(data.dv_sq, np.ones(3))
        with pytest.raises(InvalidArgumentError):
            linear_auxiliary(np.array([-0.1, 0.0]))
        for bad in ([True, False], ["0", "1"], [0.0, None]):
            with pytest.raises(InvalidArgumentError,
                               match="^coords must be an array of real numbers"):
                linear_auxiliary(bad)
        assert np.array_equal(linear_auxiliary([0, 1]).v, [1.0, 2.0])


class TestFindN:
    def test_flat_background_smallest_N(self):
        data = flat_data()
        cert = find_N(data)
        assert cert.N == N_SCAN[0]
        assert np.allclose(cert.chi2, 1.0)
        assert np.all(cert.slack() > 0)

    def test_nonflat_needs_larger_N(self):
        data = BackgroundData(v=1.0 + np.linspace(0, 1, 17),
                              dv_sq=np.full(17, 0.5),
                              C0=2.0, C2=1.5, C3=1.0)
        cert = find_N(data)
        assert cert.N > N_SCAN[0]
        assert np.all(cert.chi2 > 0.5)
        assert np.all(cert.slack() > 0)

    def test_reevaluation_oracle(self):
        """find_N's certificate equals a fresh evaluation at the same N."""
        data = BackgroundData(v=1.0 + np.linspace(0, 0.5, 9),
                              dv_sq=np.full(9, 0.7), C0=1.3, C2=0.4, C3=0.2)
        cert = find_N(data)
        again = _certificate_at(data, cert.N)
        for name in ("t", "e_neg", "log_scale", "q"):
            assert np.array_equal(getattr(cert, name), getattr(again, name))
        assert cert.mu_required == again.mu_required

    def test_doubling_N_keeps_validity(self):
        data = flat_data()
        cert = find_N(data)
        bigger = _certificate_at(data, 2 * cert.N)
        assert np.all(bigger.chi2 >= cert.chi2 - 1e-15)
        assert np.all(bigger.slack() > 0)

    def test_no_certificate_raises(self):
        # dv_sq so tiny that the correction terms dominate at every scanned N
        data = BackgroundData(v=np.ones(4), dv_sq=np.full(4, 1e-300),
                              C0=2.0, C2=1e6, C3=1e6)
        # q overflows to +inf at the small scan values, which reads invalid.
        with pytest.raises(NoCertificateError), np.errstate(over="ignore"):
            find_N(data)

    def test_determinism(self):
        data = flat_data()
        a, b = find_N(data), find_N(data)
        assert a.N == b.N
        for name in ("t", "e_neg", "log_scale", "q"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.mu_required == b.mu_required


class TestVerify:
    def test_threshold_cones(self):
        data = flat_data()
        cert = find_N(data)
        for n, k in ((4, 2), (6, 3), (3, 1)):
            ok, margin = verify_admissible(cert, ConeSpec(n, k))
            assert ok
            assert margin > 0

    def test_mu_requirement_blocks_narrow_cones(self):
        data = linear_auxiliary(np.linspace(0.0, 20.0, 21))
        cert = _certificate_at(data, 4.0)   # mu_required ~ 1
        ok, _ = verify_admissible(cert, ConeSpec(4, 3))  # mu+ = 1/3
        assert not ok

    def test_soundness_against_direct_spectrum(self):
        """Flat linear background: the certified bound coincides with the
        directly computed half-space spectrum of w = exp(-e^{N v})."""
        data = flat_data(21)
        cert = find_N(data)
        n, k = 4, 2
        ok, _ = verify_admissible(cert, ConeSpec(n, k))
        assert ok
        N = cert.N
        E = np.exp(N * data.v)
        w = np.exp(-E)                       # conformal factor
        wp = -N * E * w                      # d/dx with v = 1 + x
        wpp = (N**2 * E**2 - N**2 * E) * w   # product rule
        spec = radial_schouten_spectrum(w, wp, wpp, np.inf) / (w**2)[:, None]
        bound = np.exp(cert.log_scale)[:, None] * np.stack((cert.chi1, cert.chi2), axis=-1)
        assert np.allclose(spec, bound, rtol=1e-12)
        assert np.all(cone_margin(ConeSpec(n, k), spec) > 0)


# High-precision oracle over a grid of background bounds.  The true slack
# e^{-Nv} - 2 t2 - 2 t3 is evaluated from the raw formulas at 300 digits;
# mpmath's exponent range holds e^{Nv} even at N = 2^40 / 8.
_X = np.linspace(0.0, 1.0, 41)
ORACLE_PROFILES = {
    "linear": (1.0 + _X, np.ones_like(_X)),
    "quadratic": (1.0 + _X + _X**2, (1.0 + 2.0 * _X)**2),
    "steep": (5.0 + 3.0 * _X, np.full_like(_X, 9.0)),
    "shallow": (1.0 + 0.05 * _X, np.full_like(_X, 0.0025)),
}
ORACLE_BOUNDS = (0.0, 1.0, 10.0, 1e3, 1e6, 1e9)
# (n, k) with the exact mu+ = (n - k) / k: wide, threshold and narrow cones.
ORACLE_CONES = ((3, 1), (4, 2), (5, 2), (6, 3), (4, 3))
mpf = mpmath.mpf


@functools.cache
def oracle_nodes(v, dv_sq, N):
    """Per node (e^{-Nv}, N^2 e^{2Nv} |dv|^2, N e^{Nv} |dv|^2), at 300 digits;
    v and dv_sq are tuples, so the grid's 36 bound pairs share one table."""
    with mpmath.workdps(300):
        N = mpf(N)
        out = []
        for x, d in zip(v, dv_sq):
            E = mpmath.exp(N * mpf(x))
            out.append((1 / E, N**2 * E**2 * mpf(d), N * E * mpf(d)))
        return out


def oracle_terms(data, N):
    """Per node (e^{-Nv}, t = t2 + t3) at 300 digits, with
    t2 = 2 C0 C2 / (N^2 e^{2Nv} |dv|^2) and t3 = 2 C0 C3 / (N e^{Nv} |dv|^2)."""
    C0, C2, C3 = (mpf(float(c)) for c in (data.C0, data.C2, data.C3))
    nodes = oracle_nodes(tuple(map(float, data.v)), tuple(map(float, data.dv_sq)), N)
    for e, a, b in nodes:
        yield e, 2 * C0 * C2 / a + 2 * C0 * C3 / b


def oracle_valid(data, N):
    """The true slack e^{-Nv} - 2 t is positive at every node."""
    with mpmath.workdps(300):
        return all(e - 2 * t > 0 for e, t in oracle_terms(data, N))


def oracle_pair_bounds(data, N):
    """Minima over nodes of e^{-Nv}, of chi2 = 1 - t and of
    d = 1 + chi1 / chi2 = (2 e^{-Nv} - 2 t) / (1 - t), at 300 digits."""
    with mpmath.workdps(300):
        terms = list(oracle_terms(data, N))
        return (min(e for e, _ in terms), min(1 - t for _, t in terms),
                min((2 * e - 2 * t) / (1 - t) for e, t in terms))


def oracle_admissible(bounds, n, k):
    """mu+ >= 1 - e^{-N max v}, and at every node chi2 > 0 and
    chi1 / chi2 = -1 + d > -mu+, with the exact mu+ = (n - k) / k."""
    e_min, chi2_min, d_min = bounds
    with mpmath.workdps(300):
        mu = mpf(n - k) / k
        return mu >= 1 - e_min and chi2_min > 0 and (mu - 1) + d_min > 0


def oracle_cases():
    for profile, (v, dv_sq) in ORACLE_PROFILES.items():
        for C2 in ORACLE_BOUNDS:
            for C3 in ORACLE_BOUNDS:
                yield profile, BackgroundData(v, dv_sq, C0=1.1, C2=1.1 * C2,
                                              C3=1.1 * C3)


class TestOracle:
    def test_threshold_mu_plus_is_exact(self):
        assert mu_plus(ConeSpec(4, 2)) == 1.0
        assert mu_plus(ConeSpec(6, 3)) == 1.0

    def test_find_N_and_verify_match_the_oracle(self):
        """find_N returns the smallest N on N_SCAN whose true slack is
        positive at every node, or raises exactly when no N is; verify
        agrees with the exact-mu+ oracle around that N and at the first scan
        value, with no nan margin and no RuntimeWarning."""
        wrong = []
        found = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for profile, data in oracle_cases():
                case = (profile, data.C2, data.C3)
                want = next((j for j, N in enumerate(N_SCAN)
                             if oracle_valid(data, N)), None)
                try:
                    got = N_SCAN.index(find_N(data).N)
                except NoCertificateError:
                    got = None
                if got != want:
                    wrong.append((case, got, want))
                found += want is not None
                # The first scan value, and the found one with the two before
                # it, where q is near 1 and 2: certificates valid and not.
                last = len(N_SCAN) - 1 if want is None else want
                for j in {0, max(last - 2, 0), max(last - 1, 0), last}:
                    cert = _certificate_at(data, N_SCAN[j])
                    bounds = oracle_pair_bounds(data, N_SCAN[j])
                    for n, k in ORACLE_CONES:
                        ok, margin = verify_admissible(cert, ConeSpec(n, k))
                        assert not np.isnan(margin), (case, j, n, k)
                        if ok != oracle_admissible(bounds, n, k):
                            wrong.append((case, j, (n, k), ok))
        assert wrong == []
        # The grid exercises both outcomes of the scan.
        assert 0 < found < 144

    def test_near_tie_rounds_toward_invalid(self):
        """At N = 1 the exact q is 1 + 7.7e-18 (true slack -2.4e-18), which
        plain floating point rounds to 0.9999999999999998; q rounded up by
        2^-48 refuses N = 1 and the scan moves on to N = 2."""
        data = BackgroundData(v=[1.149494302840102], dv_sq=[134.34616550483042],
                              C0=2.442473697831393, C2=43.4064652520818)
        assert not oracle_valid(data, 1.0)
        assert oracle_valid(data, 2.0)
        assert find_N(data).N == 2.0

    def test_near_boundary_narrow_cone_rounds_toward_invalid(self):
        """(4, 3), mu+ = 1/3: mu_required < 1/3, but the exact sum
        (mu+ - 1) chi2 + e^{-Nv} (2 - q) over the certificate's own floats is
        -1.5e-18, while the same sum in floating point, with mu+ - 1 rounded
        to nearest, reads +5.6e-17.  The node must not verify, and the margin
        must not say it is inside: the float cone_margin of (chi1, chi2)
        alone reads +1.4e-17."""
        data = BackgroundData(v=[3.2191465463391715], dv_sq=[0.9969423014992496],
                              C3=0.046875)
        cert = _certificate_at(data, N_SCAN[0])
        chi2, e_neg, q = float(cert.chi2[0]), float(cert.e_neg[0]), float(cert.q[0])
        mu = Fraction(1, 3)
        assert Fraction(cert.mu_required) < mu
        assert (mu - 1) * Fraction(chi2) + Fraction(e_neg) * (2 - Fraction(q)) <= 0
        assert float(mu - 1) * chi2 + e_neg * (1.0 + (1.0 - q)) > 0
        pair = np.stack((cert.chi1, cert.chi2), axis=-1)
        assert cone_margin(ConeSpec(4, 3), pair)[0] > 0
        ok, margin = verify_admissible(cert, ConeSpec(4, 3))
        assert not ok
        assert margin <= 0.0

    def test_large_N_certificate_on_threshold_cone(self):
        """v = 1 + x, |dv|^2 = 1, C0 = 1.1, C2 = C3 = 1100: the first valid
        scan value is 8192, where e^{-Nv} underflows; the threshold cones
        still verify."""
        data = BackgroundData(1.0 + _X, np.ones_like(_X), C0=1.1, C2=1.1 * 1e3,
                              C3=1.1 * 1e3)
        cert = find_N(data)
        assert cert.N == 8192.0 and np.all(cert.e_neg == 0.0)
        assert not np.all(_certificate_at(data, 4096.0).slack() > 0)
        for n, k in ((4, 2), (6, 3), (5, 2)):
            ok, margin = verify_admissible(cert, ConeSpec(n, k))
            assert ok and not np.isnan(margin)
