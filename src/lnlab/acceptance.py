"""Acceptance criteria: analytic oracles plus desk-scale reproductions.

Each criterion is a function returning a CriterionResult; run_acceptance
executes a (filtered) list of them.  The same registry backs both the
pytest acceptance module and the `lnlab verify` subcommand.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .cones import ConeSpec, _is_int, cone_margin, f_eval, grad_f, mu_plus, tau_deform
from .schouten import (barrier_profile, hyperbolic_ball_profile,
                       radial_schouten_spectrum,
                       ricci_spectrum_from_schouten, spectrum_field)
from .admissible import find_N, linear_auxiliary, verify_admissible
from .errors import InvalidArgumentError
from .solver import (Annulus, Ball, ProblemSpec, comparison_check,
                     continuation_delta, continuation_tau)

# Per-criterion wall-clock budgets in seconds.
RUNTIME_LIMITS = {
    "hyperbolic-exactness": 5.0,
    "mu-plus-table": 1.0,
    "barrier": 1.0,
    "certificate-constructor": 1.0,
    "solver-convergence": 30.0,
    "ln-limit": 60.0,
    "ordering": 60.0,
    "cone-properties": 10.0,
    "ricci-identity": 5.0,
}


@dataclass
class CriterionResult:
    name: str
    passed: bool
    measured: float
    expected: str
    detail: str
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: measured {self.measured:.6g} "
                f"(expected {self.expected}) [{self.seconds:.2f}s] {self.detail}")


def _taus(n):
    return (0.0, (n - 2) / (n - 1), 0.99)


def check_hyperbolic_exactness() -> CriterionResult:
    """u = (1-r^2)/2 on the unit ball solves f^tau = 1/2 for every (n, k, tau)."""
    grid = 2000
    tol = 5.0 / grid**2
    spectra = spectrum_field(hyperbolic_ball_profile(grid))
    worst = 0.0
    worst_case = ""
    for n in (3, 4, 5, 6):
        for k in range(1, n + 1):
            for tau in _taus(n):
                vals = f_eval(ConeSpec(n, k, tau), spectra)
                err = float(np.max(np.abs(vals - 0.5)))
                if err > worst:
                    worst, worst_case = err, f"n={n},k={k},tau={tau:.3g}"
    return CriterionResult("hyperbolic-exactness", worst <= tol, worst,
                           f"<= {tol:g}", f"worst at {worst_case}")


def check_mu_plus_table() -> CriterionResult:
    """mu+ = (n-k)/k for Gamma_k^+; (1-tau)(n-1) for the deformed top cone.

    Independently of any closed form, the general full-form cone_margin must
    put (-mu, 1, ..., 1) inside the cone just below mu = mu+ and outside just
    above it, at a distance 1e-9 * max(1, mu+).
    """
    worst = 0.0
    misplaced = []
    for n in range(3, 9):
        table = [(ConeSpec(n, k), (n - k) / k) for k in range(1, n + 1)]
        table += [(ConeSpec(n, n, tau), (1 - tau) * (n - 1))
                  for tau in (0.25, 0.5, 0.75, 0.9)]
        for cone, expected in table:
            mu = mu_plus(cone)
            worst = max(worst, abs(mu - expected))
            step = 1e-9 * max(1.0, mu)
            probes = np.ones((2, n))
            probes[:, 0] = (step - mu, -step - mu)
            inside, outside = cone_margin(cone, probes)
            if not (inside > 0.0 and outside <= 0.0):
                misplaced.append(f"({n},{cone.k},{cone.tau:g})")
    detail = "n <= 8, all k, plus deformed top cones"
    if misplaced:
        detail += "; boundary not at mu+ for " + " ".join(misplaced)
    return CriterionResult("mu-plus-table", worst <= 1e-10 and not misplaced,
                           worst, "<= 1e-10", detail)


def check_barrier() -> CriterionResult:
    """Exterior-ball barrier: spectra exactly (2/R^2)e; supersolution iff R <= 2."""
    worst = 0.0
    ok = True
    for R in (0.5, 1.0, 2.0):
        prof = barrier_profile(R, delta=0.1, m=1.0, grid=64)
        r = prof.r
        pairs = radial_schouten_spectrum(
            prof.u, 2 * r / R**2, np.full_like(r, 2 / R**2), r)
        worst = max(worst, float(np.max(np.abs(pairs - 2 / R**2))))
        fval = f_eval(ConeSpec(3, 1), (2 / R**2, 2 / R**2))
        ok = ok and fval >= 0.5 - 1e-14
    super_fails_at_21 = f_eval(ConeSpec(3, 1), (2 / 2.1**2, 2 / 2.1**2)) < 0.5
    passed = worst <= 1e-10 and ok and super_fails_at_21
    return CriterionResult("barrier", passed, worst, "<= 1e-10",
                           "R in {0.5,1,2} exact; f >= 1/2 iff R <= 2")


def check_certificate_constructor() -> CriterionResult:
    """Flat background: certificate passes the threshold cones and the direct
    spectrum of the rescaled metric concurs at every node."""
    x = np.linspace(0.0, 1.0, 41)
    data = linear_auxiliary(x)
    cert = find_N(data)
    # Direct spectrum of e^{2 e^{Nv}} * delta with v a flat coordinate:
    # the half-space (r = inf) pair of w = e^{-e^{Nv}} over w^2, relative to
    # the flat reference, matching the certified bound exactly in the flat case.
    eNv = np.exp(cert.N * data.v)
    direct = radial_schouten_spectrum(
        1.0, -cert.N * eNv, cert.N**2 * eNv**2 - cert.N**2 * eNv, np.inf)
    bound = np.exp(cert.log_scale)[:, None] * np.stack((cert.chi1, cert.chi2), axis=-1)
    passed = float(np.max(np.abs(direct - bound) / np.abs(bound))) < 1e-12
    worst_margin = np.inf
    for (n, k) in ((4, 2), (6, 3)):
        ok, margin = verify_admissible(cert, ConeSpec(n, k))
        passed = passed and ok and margin > 0
        margins = cone_margin(ConeSpec(n, k), direct)
        passed = passed and bool(np.all(margins > 0))
        worst_margin = min(worst_margin, float(np.min(margins)))
    return CriterionResult("certificate-constructor", passed, worst_margin, "> 0",
                           f"N = {cert.N:g}, mu_required = {cert.mu_required:.4f}")


def check_solver_convergence() -> CriterionResult:
    """Threshold-cone solve (n=4, k=2, tau=0.95) at grid 1000 plus an O(h^2)
    refinement ratio against 4x references.

    The ball solution with constant right-hand side is exactly quadratic, so
    the stencil reproduces it to rounding; the refinement ratio is therefore
    measured on an annulus, where the solution is genuinely non-polynomial.
    """
    spec = ProblemSpec(cone=ConeSpec(4, 2), tau=0.95, domain=Ball(1.0),
                       delta=0.05, grid=1000)
    head = continuation_tau(spec)
    ok = head.converged and head.residual_sup <= 1e-10 \
        and head.admissibility_margin_min > 0

    ann = replace(spec, domain=Annulus(0.5, 1.0))
    u250 = continuation_tau(replace(ann, grid=250)).profile.u
    u500 = continuation_tau(replace(ann, grid=500)).profile.u
    u1000 = continuation_tau(ann).profile.u
    u2000 = continuation_tau(replace(ann, grid=2000)).profile.u
    e250 = float(np.max(np.abs(u250 - u1000[::4])))
    e500 = float(np.max(np.abs(u500 - u2000[::4])))
    ratio = e250 / e500
    ok = ok and 3.5 <= ratio <= 4.5
    return CriterionResult(
        "solver-convergence", ok, ratio, "[3.5, 4.5]",
        f"residual {head.residual_sup:.2e}, margin {head.admissibility_margin_min:.2e}")


def _ln_limit_sweep():
    spec = ProblemSpec(cone=ConeSpec(3, 1), tau=0.9, domain=Ball(1.0),
                       delta=0.1, grid=1000)
    return spec, continuation_delta(spec)


def check_ln_limit() -> CriterionResult:
    """delta -> 0 sweep converges to the hyperbolic model with unit boundary slope."""
    spec, sweep = _ln_limit_sweep()
    if not sweep.ok:
        return CriterionResult("ln-limit", False, float("nan"), "converged sweep",
                               f"failed at delta = {sweep.failed_delta}")
    final = sweep.reports[-1]
    r = final.profile.r
    interior = r <= 0.9
    dist = float(np.max(np.abs(final.profile.u[interior]
                               - (1 - r[interior]**2) / 2)))
    slope_err = abs(final.boundary_slope - 1.0)
    passed = (dist <= 1e-3 and slope_err <= 0.01
              and sweep.monotonicity_max_violation == 0.0)
    return CriterionResult(
        "ln-limit", passed, dist, "<= 1e-3",
        f"slope {final.boundary_slope:.5f}, "
        f"monotonicity violation {sweep.monotonicity_max_violation:g}")


def check_ordering() -> CriterionResult:
    """u_delta decreasing in delta; u_tau >= u_0 at fixed delta, on an annulus
    with k = 2: for k = 1, or on a ball, every tau gives the same solve."""
    spec = ProblemSpec(cone=ConeSpec(3, 1), tau=0.9, domain=Ball(1.0),
                       delta=0.1, grid=500)
    # The sweep records the legs that comparison_check refuses against the
    # leg before, past its allowance h^2/b.
    sweep = continuation_delta(spec)
    violations = int(not sweep.ok) + int(sweep.monotonicity_max_violation > 0.0)

    spec0 = ProblemSpec(cone=ConeSpec(4, 2), tau=0.0, domain=Annulus(0.5, 1.0),
                        delta=0.1, grid=100)
    base = continuation_tau(spec0)
    for tau in (0.5, 0.9):
        rep = continuation_tau(replace(spec0, tau=tau))
        if not comparison_check(base.profile, rep.profile):
            violations += 1
    return CriterionResult("ordering", violations == 0, float(violations), "0",
                           f"{len(sweep.reports)} delta legs, tau in {{0.5, 0.9}}")


_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15
_MIX64 = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, in place on a uint64 array, whose products
    wrap without a warning; returns z."""
    for shift, factor in zip((30, 27), _MIX64):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    return z


class _Draws:
    """The seeded draws of the randomized criteria: SplitMix64 (Steele, Lea
    and Flood, 2014) over a running counter, vectorised on uint64 arrays.
    Draw i of a seed is the finaliser of key + (i + 1) * golden, so a
    verify process needs no numpy.random, whose import brings in hashlib
    and OpenSSL.  The key is mixed from the seed's 64-bit words by the same
    finaliser, so any non-negative integer seed, 2^64 and above included,
    gives its own stream."""

    def __init__(self, seed: int):
        seed, key = int(seed), np.zeros(1, dtype=np.uint64)
        for shift in range(0, max(seed.bit_length(), 1), 64):
            key ^= np.uint64((seed >> shift) & _MASK64)
            key += np.uint64(_GOLDEN64)
            _mix64(key)
        self._key = key[0]
        self._count = 0

    def _bits(self, count: int) -> np.ndarray:
        z = np.arange(self._count + 1, self._count + count + 1, dtype=np.uint64)
        self._count += count
        z *= np.uint64(_GOLDEN64)
        z += self._key
        return _mix64(z)

    def _open_unit(self, size) -> np.ndarray:
        """Uniforms in the open interval (0, 1): 52 random bits plus a
        half, so 0 and 1 are never drawn and the log is finite and < 0."""
        count = int(np.prod(size))
        u = (self._bits(count) >> np.uint64(12)).astype(float)
        u += 0.5
        u *= 2.0**-52
        return u.reshape(size)

    def uniform(self, low=0.0, high=1.0, *, size) -> np.ndarray:
        """Uniforms on [low, high): 53 random bits for [0, 1)."""
        count = int(np.prod(size))
        u = (self._bits(count) >> np.uint64(11)).astype(float)
        u *= 2.0**-53
        return (low + (high - low) * u).reshape(size)

    def exponential(self, scale, size) -> np.ndarray:
        """Exponentials of mean scale, by inversion; finite and > 0."""
        return -scale * np.log(self._open_unit(size))

    def normal(self, *, size) -> np.ndarray:
        """Standard normals by Box-Muller, both halves of each pair used."""
        count = int(np.prod(size))
        half = (count + 1) // 2
        radius = np.sqrt(-2.0 * np.log(self._open_unit(half)))
        angle = 2.0 * np.pi * self._open_unit(half)
        pairs = np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))
        return pairs[:count].reshape(size)


_PROPERTY_CONES = [ConeSpec(3, 1), ConeSpec(4, 2), ConeSpec(5, 3, 0.7),
                   ConeSpec(6, 6, 0.3), ConeSpec(8, 4)]


def check_cone_properties(seed: int = 0) -> CriterionResult:
    """Randomized structural properties of the operator family; zero failures."""
    rng = _Draws(seed)
    per = 10_000 // len(_PROPERTY_CONES)
    failures = []

    def record(name, bad):
        if bad:
            failures.append(f"{name}: {bad} failures")

    for cone in _PROPERTY_CONES:
        n = cone.n
        lam = 0.05 + rng.exponential(1.0, size=(per, n))
        mu = lam + rng.exponential(0.5, size=(per, n))
        s = rng.uniform(0.0, 1.0, size=(per, 1))
        t = rng.uniform(0.1, 10.0, size=per)

        f_lam = f_eval(cone, lam)
        f_mu = f_eval(cone, mu)

        perm = np.argsort(rng.uniform(size=(per, n)), axis=1)
        record("permutation",
               int(np.sum(f_eval(cone, np.take_along_axis(lam, perm, axis=1))
                          != f_lam)))
        record("homogeneity",
               int(np.sum(np.abs(f_eval(cone, t[:, None] * lam) - t * f_lam)
                          > 1e-12 * t * f_lam)))
        record("concavity",
               int(np.sum(f_eval(cone, s * lam + (1 - s) * mu)
                          < s[:, 0] * f_lam + (1 - s[:, 0]) * f_mu - 1e-12)))
        record("monotonicity", int(np.sum(f_mu - f_lam < -1e-12)))
        grads = grad_f(cone, lam)
        record("euler",
               int(np.sum(np.abs(np.sum(lam * grads, axis=1) - f_lam)
                          > 1e-10 * f_lam)))
        record("trace-bound",
               int(np.sum(f_lam > lam.sum(axis=1) / n + 1e-12)))
        record("gradient-positivity", int(np.sum(grads <= 0)))

        fd = np.empty_like(grads)
        for i in range(n):
            step = 1e-6 * np.maximum(1.0, np.abs(lam[:, i]))
            lp = lam.copy()
            lm = lam.copy()
            lp[:, i] += step
            lm[:, i] -= step
            fd[:, i] = (f_eval(cone, lp) - f_eval(cone, lm)) / (2 * step)
        record("gradient-fd",
               int(np.sum(np.abs(grads - fd) > 1e-6 * np.abs(fd))))

    return CriterionResult("cone-properties", not failures, float(len(failures)),
                           "0 failing properties",
                           "; ".join(failures) if failures else
                           f"{per} trials x {len(_PROPERTY_CONES)} cones per property")


def check_ricci_identity(seed: int = 0) -> CriterionResult:
    """At tau = (n-2)/(n-1): lam^tau = lam(-g^{-1}Ric)/(n-1) exactly; the scalar
    prefactor relating the two operator families is measured, not asserted."""
    rng = _Draws(seed)
    trials = 1000
    worst = 0.0
    details = []
    for n in (3, 4, 5):
        tau = (n - 2) / (n - 1)
        lam = rng.normal(size=(trials, n))
        ric = ricci_spectrum_from_schouten(lam)
        lhs = tau_deform(lam, tau)
        rel = np.abs(lhs - ric / (n - 1)) / np.maximum(1.0, np.abs(ric) / (n - 1))
        worst = max(worst, float(np.max(rel)))

        # Prefactor report on admissible spectra: the deformed sigma_{k}^(1/k)
        # operator equals sigma_{k}^(1/k) of the Ricci spectrum over a constant.
        pos = 0.05 + rng.exponential(1.0, size=(trials, n))
        k = min(2, n)
        cone = ConeSpec(n, k, tau)
        base = ConeSpec(n, k)
        num = np.asarray(f_eval(cone, pos))
        den = np.asarray(f_eval(base, ricci_spectrum_from_schouten(pos)))
        ratio = num / den
        measured = float(np.mean(ratio))
        spread = float(np.max(ratio) - np.min(ratio))
        details.append(f"n={n}: prefactor {measured:.12g} (spread {spread:.1e}); "
                       f"candidates 1/(n-1) = {1/(n-1):.12g}, "
                       f"1/(2(n-1)) = {1/(2*(n-1)):.12g}")
    return CriterionResult("ricci-identity", worst <= 1e-12, worst, "<= 1e-12",
                           " | ".join(details))


CRITERIA = {
    "hyperbolic-exactness": check_hyperbolic_exactness,
    "mu-plus-table": check_mu_plus_table,
    "barrier": check_barrier,
    "certificate-constructor": check_certificate_constructor,
    "solver-convergence": check_solver_convergence,
    "ln-limit": check_ln_limit,
    "ordering": check_ordering,
    "cone-properties": check_cone_properties,
    "ricci-identity": check_ricci_identity,
}


def run_acceptance(only=None, seed: int = 0):
    """Run all (only = None) or the named subset of the acceptance criteria.

    Every name in only, and the seed of the randomized criteria (a
    non-negative integer), is checked before any criterion runs; an empty
    only names none and is refused.
    """
    choices = "; choices: " + ", ".join(CRITERIA)
    names = list(CRITERIA) if only is None else list(only)
    if not names:
        raise InvalidArgumentError("no criterion named" + choices)
    unknown = [name for name in names if name not in CRITERIA]
    if unknown:
        raise InvalidArgumentError(
            f"unknown criterion {', '.join(map(repr, unknown))}" + choices)
    if not (_is_int(seed) and seed >= 0):
        raise InvalidArgumentError(f"seed must be a non-negative integer, got {seed!r}")
    results = []
    for name in names:
        fn = CRITERIA[name]
        start = time.perf_counter()
        if name in ("cone-properties", "ricci-identity"):
            result = fn(seed=seed)
        else:
            result = fn()
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results
