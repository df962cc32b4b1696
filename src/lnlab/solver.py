"""Damped-Newton continuation solver for the radial Dirichlet problem.

Unknowns are conformal-factor values u_i on a uniform radial grid.  Interior
rows impose f^tau(lam(-g_u^{-1} A_{g_u})) = RHS via second-order stencils;
boundary rows impose u = delta.  The Jacobian is tridiagonal (chain rule of
the f-gradient through the eigenvalue stencils) and every accepted Newton
iterate keeps all interior spectra strictly inside the deformed cone.

Continuation runs in tau (from the semilinear tau = 0 problem toward the
fully nonlinear operator) and in the boundary datum delta (downward, toward
the zero-boundary problem whose solutions satisfy u / dist -> 1).
"""

import ctypes
import math
import pathlib
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg import LinAlgError

from . import _csv17
from .cones import ConeSpec, _check_real, _f_and_grad_unchecked, _is_int, cone_margin
from .errors import (ContinuationStallError, GridMismatchError,
                     InadmissibleIterateError, InvalidArgumentError,
                     InvalidProfileError)
from .schouten import RadialProfile, _eigenpair, _radial_stencil

NEWTON_TOL = 1e-10
MAX_NEWTON_ITERATIONS = 60
MARGIN_FLOOR = 1e-12
# The line search tries steps 1, 1/2, ..., 2^-MAX_HALVINGS.
MAX_HALVINGS = 40
TAU_STEP = 0.05
MIN_TAU_STEP = 1e-6
# The boundary data continuation_delta sweeps, in order: 11 legs down to 1e-4.
DELTA_SCHEDULE = tuple(0.1 * 0.5**i for i in range(10)) + (1e-4,)
# Delta legs are compared on this inner share of the span, off the boundary layer.
INTERIOR_FRACTION = 0.5
# The paper's right-hand side.  Any constant c > 0 reduces to it: the Schouten
# tensor is scale-invariant, so u -> sqrt(2c) u multiplies lam by 2c.
RHS = 0.5
# Scalars of the torsion start that may underflow to 0 (see _check_float_range).
_MAY_VANISH = ("outer^(2-n)", "Q")


@dataclass(frozen=True)
class Ball:
    radius: float

    def __post_init__(self):
        _check_real(self.radius, "ball outer radius")
        if not 0 < self.radius < math.inf:
            raise InvalidArgumentError(
                f"ball outer radius must be positive and finite, got {self.radius}")


@dataclass(frozen=True)
class Annulus:
    inner: float
    outer: float

    def __post_init__(self):
        _check_real(self.inner, "annulus inner radius")
        _check_real(self.outer, "annulus outer radius")
        if not 0 < self.inner < self.outer < math.inf:
            raise InvalidArgumentError(
                f"annulus needs 0 < inner < outer < inf, got ({self.inner}, {self.outer})")


@dataclass(frozen=True)
class ProblemSpec:
    """Full radial problem statement.

    cone is the base Garding cone (undeformed); tau is the deformation the
    solver works at.  delta is the Dirichlet datum u = delta on every
    boundary component: one positive, finite real number, stored as a float.
    The equation solved is f^tau(lam) = RHS.
    """

    cone: ConeSpec
    tau: float
    domain: Ball | Annulus
    delta: float
    grid: int = 1000

    def __post_init__(self):
        if self.cone.tau != 1.0:
            raise InvalidArgumentError("base cone must be undeformed (tau = 1); "
                                       "set the deformation on the problem itself")
        self.solve_cone()                   # ConeSpec's checks of tau
        if not _is_int(self.grid):
            raise InvalidArgumentError(f"grid must be an integer, got {self.grid!r}")
        if self.grid < 8:
            raise InvalidArgumentError(f"grid must have at least 8 intervals, got {self.grid}")
        if (int(self.grid) + 1) * 8 > np.iinfo(np.intp).max:
            raise InvalidArgumentError(
                f"grid {self.grid} is too large: numpy cannot create its {self.grid + 1} radii")
        _check_real(self.delta, "boundary datum delta")
        if not 0 < self.delta < math.inf:
            raise InvalidArgumentError(
                f"boundary datum delta must be positive and finite, got {self.delta}")
        object.__setattr__(self, "delta", float(self.delta))
        self._check_float_range()

    def _check_float_range(self):
        """Refuse radii for which h^2, or a scalar of initial_profile's
        torsion start, overflows, or underflows to 0 where the start divides
        by it: past this check the stencils divide by a nonzero h^2 and the
        start is finite.  (Q and outer^(2-n) may vanish: the start then
        keeps its finite b^2 - r^2 part.)"""
        ball = isinstance(self.domain, Ball)
        span = (np.float64(self.domain.radius) if ball else
                np.float64(self.domain.outer) - np.float64(self.domain.inner))
        with np.errstate(all="ignore"):
            scalars = {"h^2": (span / self.grid) ** 2, **_torsion_scalars(self)}
        for name, value in scalars.items():
            vanishes = value == 0.0 and name not in _MAY_VANISH
            if vanishes or not math.isfinite(value):
                radii = (f"ball outer radius {self.domain.radius:g}" if ball else
                         f"annulus radii ({self.domain.inner:g}, {self.domain.outer:g})")
                if name != "h^2":
                    name = f"the torsion start's {name}"
                raise InvalidArgumentError(
                    f"{radii} out of float range at n = {self.cone.n}, "
                    f"grid {self.grid}: {name} "
                    f"{'underflows' if vanishes else 'overflows'} ({value:.3g})")

    def radii(self) -> np.ndarray:
        if isinstance(self.domain, Ball):
            return np.linspace(0.0, self.domain.radius, self.grid + 1)
        return np.linspace(self.domain.inner, self.domain.outer, self.grid + 1)

    def solve_cone(self) -> ConeSpec:
        return replace(self.cone, tau=self.tau)


@dataclass(frozen=True)
class SolveReport:
    """Converged (or failed) state of one Newton solve."""

    profile: RadialProfile
    residual_sup: float
    admissibility_margin_min: float
    boundary_slope: float
    c0_bounds: tuple
    grad_sup: float
    newton_iterations: int
    continuation_steps: int
    converged: bool
    tau: float
    delta: float
    residual_nodes: np.ndarray = field(repr=False)
    margin_nodes: np.ndarray = field(repr=False)
    # The rule that stopped Newton, kept out of to_dict(): "tolerance" or
    # "rounding floor" (converged), "line search" or "iteration limit".
    newton_stop: str

    def to_dict(self) -> dict:
        """The scalar fields; the profile goes out through to_csv."""
        return {
            "residual_sup": self.residual_sup,
            "admissibility_margin_min": self.admissibility_margin_min,
            "boundary_slope": self.boundary_slope,
            "c0_min": self.c0_bounds[0],
            "c0_max": self.c0_bounds[1],
            "grad_sup": self.grad_sup,
            "newton_iterations": self.newton_iterations,
            "continuation_steps": self.continuation_steps,
            "converged": self.converged,
            "tau": self.tau,
            "delta": self.delta,
        }

    def to_csv(self) -> str:
        """CSV with columns r, u, residual, margin: one row per node, every
        value as format(x, ".17g") writes it (17 significant digits, so it
        reads back bit for bit), from the vectorised writer _csv17.rows."""
        cols = np.stack((self.profile.r, self.profile.u,
                         self.residual_nodes, self.margin_nodes), axis=1)
        return "r,u,residual,margin\n" + _csv17.rows(cols)


@dataclass
class NewtonOptions:
    tol: float = NEWTON_TOL


def _pde_rows(spec: ProblemSpec):
    """Indices of the PDE rows.  Every other row is a Dirichlet row,
    u - delta; no other code decides which rows are which."""
    if isinstance(spec.domain, Ball):
        return slice(0, spec.grid)      # center node carries a PDE row
    return slice(1, spec.grid)


def _inadmissible(spec: ProblemSpec, margins: np.ndarray,
                  what: str) -> InadmissibleIterateError:
    """The error for an iterate whose PDE-row margins are too small, naming
    the grid node of the smallest one."""
    worst = _pde_rows(spec).start + int(np.argmin(margins))
    margin = float(margins.min())
    return InadmissibleIterateError(
        f"{what} (worst node {worst}, margin {margin:.3e})",
        worst_node=worst, margin=margin)


def _problem_grid(profile: RadialProfile, spec: ProblemSpec) -> np.ndarray:
    """spec.radii(), after checking that the profile lives on that grid."""
    r = spec.radii()
    if profile.r.shape == r.shape:
        # |profile.r - r| in one buffer: at 1e5 nodes a second temporary
        # made the check 5x slower, its pages faulting in on every call.
        gap = np.subtract(profile.r, r)
        if (np.abs(gap, out=gap) <= 1e-12 * max(1.0, abs(r[-1]))).all():
            return r
    raise GridMismatchError("profile grid does not match the problem grid")


def _evaluate(u, spec: ProblemSpec, r, cone: ConeSpec):
    """Residual vector, per-node margins (PDE rows) and cached state: the
    PDE rows' (u, u_r, u_rr) and f-gradients, then the full-grid u_r."""
    rows = _pde_rows(spec)
    du_full, d2u = _radial_stencil(u, r)
    val, du, d2u = u[rows], du_full[rows], d2u[rows]
    # (radial, tangential) pairs stand for the spectra (a, b, ..., b),
    # stored column by column for the pair kernels.
    lam = _eigenpair(val, du, d2u, r[rows]).T
    margins = np.atleast_1d(cone_margin(cone, lam))

    F = u - spec.delta
    if (margins > 0.0).all():
        fvals, grads = _f_and_grad_unchecked(cone, lam)
        F[rows] = fvals - RHS
    else:
        grads = None
        F[rows] = np.nan
    return F, margins, (val, du, d2u, grads, du_full)


def _analytic_jacobian(u, spec: ProblemSpec, r, cone: ConeSpec, state):
    """Tridiagonal Jacobian in solve_banded layout (3, m): ab[0, i + 1] is
    J[i, i+1], ab[1, i] is J[i, i] and ab[2, i - 1] is J[i, i-1].

    The bands are built in place, in the operation order of
    diag = gR * (-d2u + 2 val / h^2) + gT * (-du / r),
    sup = gR * (du / 2h - val / h^2) + gT * ((du - val / r) / 2h) and
    sub = gR * (-du / 2h - val / h^2) - the same tangential term.
    """
    val, du, d2u, grads, _ = state
    h = r[1] - r[0]
    rows = _pde_rows(spec)
    gR = grads[:, 0]
    gT = (cone.n - 1) * grads[:, 1]

    ab = np.zeros((3, u.size))
    ab[1, 0] = ab[1, -1] = 1.0      # Dirichlet rows: d(u - delta)/du = 1
    if rows.start == 0:
        # Center row: both eigenvalues equal -u0 * d2u0 with d2u0 = 2(u1-u0)/h^2.
        gsum = gR[0] + gT[0]
        ab[1, 0] = gsum * (-d2u[0] + 2.0 * val[0] / h**2)
        ab[0, 1] = gsum * (-2.0 * val[0] / h**2)

    # PDE rows with full central stencils, i = 1 .. rows.stop - 1: all but a
    # centre row 0.  The state arrays hold PDE rows only, so row i sits at
    # i - rows.start.
    stop = rows.stop
    s = slice(1 - rows.start, None)
    val, du, d2u, gR, gT = val[s], du[s], d2u[s], gR[s], gT[s]
    rr = r[1:stop]
    diag, sup, sub = ab[1, 1:stop], ab[0, 2:stop + 1], ab[2, :stop - 1]
    # Radial eigenvalue through (u, u_r, u_rr), tangential through (u, u_r).
    # Two scratch rows: val_h2 = val / h^2 and one for each term in turn.
    val_h2 = np.divide(val, h**2)
    term = np.multiply(val, 2.0)                # -d2u + 2.0 * val / h^2
    term /= h**2
    term -= d2u
    np.multiply(gR, term, out=diag)
    np.negative(du, out=term)
    term /= rr
    term *= gT
    diag += term
    np.divide(du, 2 * h, out=term)              # du_2h
    np.subtract(term, val_h2, out=sup)
    sup *= gR
    np.negative(term, out=sub)
    sub -= val_h2
    sub *= gR
    np.divide(val, rr, out=term)                # tangential
    np.subtract(du, term, out=term)
    term /= 2 * h
    term *= gT
    sup += term
    sub -= term
    return ab


def solve_banded(ab, b):
    """Solve the tridiagonal system with bands ab (layout of
    _analytic_jacobian) and right-hand side b in place: both are
    overwritten, and b, the solution, is returned.

    This is LAPACK gtsv on ab[2, :-1], ab[1] and ab[0, 1:], the routine and
    inputs scipy.linalg.solve_banded((1, 1), ...) uses, so the solution is
    the same to the bit, without scipy's per-call wrapper.  It keeps
    scipy's refusals: ValueError for a NaN or an inf in ab or b, LinAlgError
    for an exactly singular system.  ab (3, m) and b (m,) must be writable
    C-contiguous float64 arrays, which gtsv overwrites where they lie.  The
    name stays solve_banded because newton_solve calls it through this
    module global, the binding perfbench's tracer wraps.
    """
    if not (_is_float_buffer(ab) and _is_float_buffer(b)
            and ab.shape == (3,) + b.shape):
        raise ValueError("solve_banded needs writable C-contiguous float64 "
                         "arrays ab of shape (3, m) and b of shape (m,)")
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    info = _gtsv(ab, b)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return b


def _is_float_buffer(a) -> bool:
    return (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.c_contiguous and a.flags.writeable)


def _numpy_gtsv():
    """LAPACK dgtsv from the OpenBLAS that numpy's wheel ships and has
    already loaded (numpy.libs/ beside the package, or numpy/.dylibs/), as
    a function (ab, b) -> info like _scipy_gtsv.  None where numpy ships
    no such library, as under conda or a distro's numpy.  That OpenBLAS is
    built with 64-bit integers and prefixes its symbols with scipy_."""
    package = pathlib.Path(np.__file__).parent
    libraries = sorted([*package.parent.glob("numpy.libs/libscipy_openblas64_*"),
                        *package.glob(".dylibs/libscipy_openblas64_*")])
    for library in libraries:
        try:
            routine = ctypes.CDLL(str(library)).scipy_dgtsv_64_
        except (OSError, AttributeError):
            continue
        integer, real = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
        # n, nrhs, dl, d, du, b, ldb, info, all by reference.
        routine.argtypes = [integer, integer, real, real, real, real, integer, integer]
        routine.restype = None
        one, at = ctypes.c_int64(1), ctypes.c_double.from_buffer

        def gtsv(ab, b):
            m, row = b.shape[0], ab.strides[0]
            n, ldb, info = ctypes.c_int64(m), ctypes.c_int64(max(m, 1)), ctypes.c_int64()
            routine(n, one, at(ab, 2 * row), at(ab, row), at(ab, ab.itemsize), at(b),
                    ldb, info)
            return info.value
        return gtsv
    return None


def _scipy_gtsv(ab, b):
    """LAPACK dgtsv through scipy.linalg.lapack, in place; returns info."""
    from scipy.linalg.lapack import dgtsv
    return dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b, True, True, True, True)[-1]


# numpy's own LAPACK where there is one: scipy's import is most of lnlab's start-up.
_gtsv = _numpy_gtsv() or _scipy_gtsv


def residual(profile: RadialProfile, spec: ProblemSpec) -> np.ndarray:
    """Per-node residual: f^tau(lam_i) - RHS at PDE rows, u - delta at boundaries.

    Raises InadmissibleIterateError (with the worst node index) if the
    spectrum leaves the cone at any PDE row.
    """
    r = _problem_grid(profile, spec)
    F, margins, _ = _evaluate(profile.u, spec, r, spec.solve_cone())
    if not np.all(margins > 0.0):
        raise _inadmissible(spec, margins, "spectrum outside the cone")
    return F


def boundary_slope(profile: RadialProfile) -> float:
    """Richardson estimate of u / dist near the outer boundary.

    Uses the last three interior nodes: with q_i = (u_i - u_b) / (b - r_i)
    at distances h, 2h, 3h, the quadratic extrapolant to the boundary is
    3 q_1 - 3 q_2 + q_3.
    """
    r, u = profile.r, profile.u
    if r.size < 5:
        raise InvalidArgumentError("boundary slope needs at least 5 grid nodes")
    b, ub = r[-1], u[-1]
    q = [(u[-1 - i] - ub) / (b - r[-1 - i]) for i in (1, 2, 3)]
    return float(3 * q[0] - 3 * q[1] + q[2])


def comparison_check(lower: RadialProfile, upper: RadialProfile) -> bool:
    """Pointwise ordering lower <= upper + h^2 on a shared grid."""
    if lower.r.shape != upper.r.shape or not np.array_equal(lower.r, upper.r):
        raise GridMismatchError("profiles live on different grids")
    return bool(np.all(lower.u <= upper.u + lower.h**2))


def initial_profile(spec: ProblemSpec) -> RadialProfile:
    """Starting profile for the tau = 0 problem: u = delta + w / |w'(b)|.

    w = P - r^2 + Q r^(2-n) is the domain's torsion function, Delta w = -2n
    with w = 0 on the boundary (Q = 0 and P = b^2 on the ball, where u is
    the hyperbolic model (b^2 - r^2) / (2b) shifted to the datum).  Scaling
    by |w'(b)| gives u a unit slope at the outer radius.  At tau = 0 the
    cone is sigma_1 > 0, and sigma_1 = n u_r^2 / 2 - u Delta u
    = n u_r^2 / 2 + 2n u / |w'(b)| > 0: the start is admissible in the
    continuum, for every delta > 0 and every annulus.  On the grid the
    r^(2-n) term is resolved only when h is small against the inner radius;
    newton_solve checks the discrete margins.  A start that cancels to
    u <= 0 in floats raises InvalidProfileError naming the cause.
    """
    r = spec.radii()
    scalars = _torsion_scalars(spec)
    w = scalars["b^2"] - r**2
    if isinstance(spec.domain, Annulus):
        w = w + scalars["Q"] * (r**(2 - spec.cone.n) - scalars["outer^(2-n)"])
    u = w / scalars["slope |w'(b)|"] + spec.delta
    # The ball's start is at least delta; an annulus's can cancel below
    # zero when delta is tiny against the radii.
    node = int(np.argmin(u))
    if u[node] <= 0.0:
        raise InvalidProfileError(
            f"the torsion start is not positive: annulus radii "
            f"({spec.domain.inner:g}, {spec.domain.outer:g}), n = {spec.cone.n}, "
            f"delta {spec.delta:g}, grid {spec.grid}: at node {node} "
            f"(r = {r[node]:.6g}) b^2 - r^2 + Q (r^(2-n) - b^(2-n)) cancels "
            f"in floats to a start value {u[node]:.3e}")
    return RadialProfile(r=r, u=u)


def _torsion_scalars(spec: ProblemSpec) -> dict:
    """The scalars of initial_profile's start by name: b^2, the slope
    |w'(b)| and, on an annulus, r^(2-n) at both radii and Q.  Each may be 0
    or inf for radii out of float range, which ProblemSpec refuses."""
    if isinstance(spec.domain, Ball):
        b = np.float64(spec.domain.radius)
        return {"b^2": b**2, "slope |w'(b)|": 2.0 * b}
    n = spec.cone.n
    a, b = np.float64(spec.domain.inner), np.float64(spec.domain.outer)
    inner_pow, outer_pow = a**(2 - n), b**(2 - n)
    Q = (b**2 - a**2) / (outer_pow - inner_pow)
    return {"b^2": b**2, "inner^(2-n)": inner_pow, "outer^(2-n)": outer_pow,
            "Q": Q, "slope |w'(b)|": 2.0 * b + (n - 2) * Q * b**(1 - n)}


def _make_report(u, spec, r, F, margins, state, iters, stop):
    """The report of iterate u, whose _evaluate gave F, margins and state,
    stopped by the rule stop (see SolveReport.newton_stop)."""
    du = state[-1]
    profile = RadialProfile(r=r, u=u)
    res_nodes = np.abs(F)
    margin_full = np.zeros(r.size)
    margin_full[_pde_rows(spec)] = margins
    return SolveReport(
        profile=profile,
        residual_sup=float(res_nodes.max()),
        admissibility_margin_min=float(margins.min()),
        boundary_slope=boundary_slope(profile),
        c0_bounds=(float(u.min()), float(u.max())),
        grad_sup=float(np.abs(du).max()),
        newton_iterations=iters,
        continuation_steps=0,
        converged=stop in ("tolerance", "rounding floor"),
        tau=spec.tau,
        delta=spec.delta,
        residual_nodes=res_nodes,
        margin_nodes=margin_full,
        newton_stop=stop,
    )


def _rounding_floor(u_max: float, h: float) -> float:
    """4*eps*max(u)^2/h^2: the residual that rounding alone can leave.

    The radial eigenvalue carries u * u_rr, and the second difference
    (u[i+1] - 2u[i] + u[i-1]) / h^2 rounds its terms, whose |coefficients|
    sum to 4, by up to eps*u each: 4 units eps*max(u)^2/h^2.  The profiles
    perfbench checks (the unit ball and [0.5, 1], delta <= 0.1) have
    max(u) <= 0.56, so a stop accepted at this floor is within 1.26 units
    eps/h^2, inside that oracle's limit tol + 2*eps/h^2.
    """
    return 4 * np.finfo(float).eps * (u_max / h) ** 2


def newton_solve(init: RadialProfile, spec: ProblemSpec,
                 opts: NewtonOptions | None = None) -> SolveReport:
    """Damped Newton iteration on the discrete system.

    The line search halves the step until the PDE rows are positive, fully
    admissible (margin above the floor) and the residual decreases.  The
    solve converges at residual <= opts.tol, or where the line search finds
    no descent step with the residual at the rounding floor (see
    _rounding_floor).  The report has converged = False after
    MAX_NEWTON_ITERATIONS or on any other line-search failure.
    """
    opts = opts or NewtonOptions()
    if spec.tau >= 1.0:
        raise InvalidArgumentError("the solver requires tau < 1 (ellipticity degenerates at 1)")
    r = _problem_grid(init, spec)
    cone = spec.solve_cone()

    u = init.u.copy()
    rows = _pde_rows(spec)
    F, margins, state = _evaluate(u, spec, r, cone)
    if not (margins > MARGIN_FLOOR).all():
        raise _inadmissible(spec, margins, "initial profile inadmissible")

    res = float(np.abs(F).max())
    for it in range(1, MAX_NEWTON_ITERATIONS + 1):
        if res <= opts.tol:
            return _make_report(u, spec, r, F, margins, state, it - 1, "tolerance")
        ab = _analytic_jacobian(u, spec, r, cone, state)
        # ab and -F are temporaries: the solve overwrites both.
        step = solve_banded(ab, -F)

        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            u_try = u + t * step
            if (u_try[rows] > 0.0).all():
                F_try, m_try, s_try = _evaluate(u_try, spec, r, cone)
                if (m_try > MARGIN_FLOOR).all():
                    res_try = float(np.abs(F_try).max())
                    if res_try < res:
                        u, F, margins, state, res = u_try, F_try, m_try, s_try, res_try
                        break
            t *= 0.5
        else:
            at_floor = res <= _rounding_floor(u.max(), r[1] - r[0])
            return _make_report(u, spec, r, F, margins, state, it,
                                "rounding floor" if at_floor else "line search")
    return _make_report(u, spec, r, F, margins, state, MAX_NEWTON_ITERATIONS,
                        "tolerance" if res <= opts.tol else "iteration limit")


def _newton_stop(report: SolveReport, opts: NewtonOptions) -> str:
    """Why a Newton solve stopped short of opts.tol, from the rule that
    stopped it.  The message ends with the residual's rounding floor
    4*eps*max(u)^2/h^2 (see _rounding_floor), which a line-search stop has
    not reached."""
    cause = ("iteration limit reached" if report.newton_stop == "iteration limit"
             else "line search found no admissible descent step")
    floor = _rounding_floor(report.c0_bounds[1], report.profile.h)
    return (f"Newton stopped at residual_sup {report.residual_sup:.3e} after "
            f"{report.newton_iterations} iterations, above tol {opts.tol:.1e} "
            f"({cause}); rounding floor 4*eps*max(u)^2/h^2 = {floor:.1e}")


def _inadmissible_start(spec: ProblemSpec,
                        err: InadmissibleIterateError) -> InadmissibleIterateError:
    """The error for a tau = 0 start that is not admissible on the grid.
    The start is admissible in the continuum, so the cause is the grid's.
    On a ball the stencil differentiates the quadratic start exactly, and
    the one cause is a bump b/2 that rounds away against delta.  On an
    annulus it is an inner radius the grid does not resolve."""
    node = err.worst_node
    if isinstance(spec.domain, Ball):
        b = spec.domain.radius
        cause = (f"its bump b/2 rounds away against delta (ball radius {b:g}, "
                 f"delta {spec.delta:g}, b/(2 delta) = {b / (2 * spec.delta):.3g}, "
                 f"worst node {node}, margin {err.margin:.3e})")
    else:
        r = spec.radii()
        cause = (f"the grid does not resolve the inner radius (worst node {node}, "
                 f"r = {r[node]:.6g}, margin {err.margin:.3e}, "
                 f"h/inner = {(r[1] - r[0]) / r[0]:.3g})")
    return InadmissibleIterateError(f"the tau = 0 start is inadmissible: {cause}",
                                    worst_node=node, margin=err.margin)


def continuation_tau(spec: ProblemSpec,
                     opts: NewtonOptions | None = None) -> SolveReport:
    """Continuation in tau from the semilinear start to spec.tau.

    Solves at tau = 0 first, then advances by TAU_STEP up to spec.tau,
    reusing each solution as the next initial guess and halving the step on
    Newton failure.  Stalls below MIN_TAU_STEP raise.
    """
    if spec.tau >= 1.0:
        raise InvalidArgumentError("continuation target tau must be < 1")
    opts = opts or NewtonOptions()
    target = spec.tau

    spec0 = replace(spec, tau=0.0)
    try:
        report = newton_solve(initial_profile(spec0), spec0, opts)
    except InadmissibleIterateError as err:
        raise _inadmissible_start(spec0, err) from err
    if not report.converged:
        raise ContinuationStallError(
            f"the tau = 0 start problem did not converge: {_newton_stop(report, opts)}")
    steps = 0
    if target == 0.0:
        return replace(report, continuation_steps=0)

    # Keep the steps inside (0, target) whatever arange's rounding gives,
    # so that target is solved once, last.
    pending = [t for t in np.arange(TAU_STEP, target, TAU_STEP)
               if 0.0 < t < target] + [target]
    current = 0.0
    while pending:
        t_next = pending[0]
        spec_t = replace(spec, tau=t_next)
        try:
            trial = newton_solve(report.profile, spec_t, opts)
            refusal = None if trial.converged else _newton_stop(trial, opts)
        except InadmissibleIterateError as err:
            refusal = (f"the step left the cone (worst node {err.worst_node}, "
                       f"margin {err.margin:.3e})")
        if refusal is None:
            report = trial
            current = t_next
            pending.pop(0)
            steps += 1
        else:
            if t_next - current < MIN_TAU_STEP:
                raise ContinuationStallError(
                    f"tau continuation stalled at tau = {current:.6f}: "
                    f"tau = {t_next:.9f} refused, {refusal}")
            pending.insert(0, 0.5 * (current + t_next))
    return replace(report, continuation_steps=steps)


@dataclass
class DeltaContinuationResult:
    """Outcome of a decreasing-delta sweep."""

    deltas: list
    reports: list
    failed_delta: float | None = None
    monotonicity_max_violation: float = 0.0
    interior_sup_diffs: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed_delta is None


def _blend_boundary(profile: RadialProfile, spec_next: ProblemSpec) -> RadialProfile:
    """Warm start: shift the previous solution smoothly onto the new boundary data."""
    r = profile.r
    delta = spec_next.delta
    u = profile.u.copy()
    if isinstance(spec_next.domain, Ball):
        shift = delta - u[-1]
        u = u + shift * (r / r[-1])**2
    else:
        a, b = r[0], r[-1]
        w = (r - a) / (b - a)
        u = u + (delta - u[0]) * (1 - w) + (delta - u[-1]) * w
    return RadialProfile(r=r, u=u)


def continuation_delta(spec: ProblemSpec) -> DeltaContinuationResult:
    """Sweep the boundary datum down DELTA_SCHEDULE; spec.delta is not read.

    The first leg runs the full tau continuation; later legs warm-start from
    the previous solution (falling back to a fresh tau continuation if the
    warm start fails).  Records pointwise monotonicity violations beyond h^2
    and the successive interior sup-differences (stabilization diagnostic).
    """
    result = DeltaContinuationResult(deltas=[], reports=[])
    prev_report = None
    r = spec.radii()
    half = r[0] + INTERIOR_FRACTION * (r[-1] - r[0])
    interior = r <= half
    tol = (r[1] - r[0])**2

    for d in DELTA_SCHEDULE:
        spec_d = replace(spec, delta=d)
        report = None
        if prev_report is not None:
            try:
                warm = _blend_boundary(prev_report.profile, spec_d)
                report = newton_solve(warm, spec_d)
            except InadmissibleIterateError:
                report = None
        if report is None or not report.converged:
            try:
                report = continuation_tau(spec_d)
            except (ContinuationStallError, InadmissibleIterateError):
                report = None
        if report is None or not report.converged:
            result.failed_delta = d
            break
        if prev_report is not None:
            excess = float(np.max(report.profile.u - prev_report.profile.u))
            if excess > tol:
                result.monotonicity_max_violation = max(
                    result.monotonicity_max_violation, excess)
            diff = float(np.max(np.abs(
                report.profile.u[interior] - prev_report.profile.u[interior])))
            result.interior_sup_diffs.append(diff)
        result.deltas.append(d)
        result.reports.append(report)
        prev_report = report
    return result
