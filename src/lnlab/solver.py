"""Damped-Newton continuation solver for the radial Dirichlet problem.

Unknowns are conformal-factor values u_i on a uniform radial grid.  Interior
rows impose f^tau(lam(-g_u^{-1} A_{g_u})) = RHS via second-order stencils;
the boundary values u = delta are data, not unknowns.  The Jacobian is
tridiagonal (chain rule of the f-gradient through the eigenvalue stencils)
and every accepted Newton iterate keeps all interior spectra strictly inside
the deformed cone.

Continuation runs in tau (from the semilinear tau = 0 problem toward the
fully nonlinear operator) and in the boundary datum delta (downward, toward
the zero-boundary problem whose solutions satisfy u / dist -> 1).  Both
are predictor-corrector continuations: Newton starts from the secant
through the last two solutions (see _secant), one Newton solve per step
(see _corrector).  A refused tau step is halved, a refused delta leg
falls back to a fresh tau continuation, and tau waypoints short of the
target are solved only to WAYPOINT_TOL (see continuation_tau).
"""

import ctypes
import functools
import math
import pathlib
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg import LinAlgError

from . import _csv17
from .cones import ConeSpec, _check_real, _f_and_grad_unchecked, cone_margin
from .errors import (ContinuationStallError, GridMismatchError,
                     InadmissibleIterateError, InvalidArgumentError,
                     InvalidProfileError, LnlabError)
from .schouten import RadialProfile, _check_grid, _eigenpair, _radial_stencil

NEWTON_TOL = 1e-10
MAX_NEWTON_ITERATIONS = 60
MARGIN_FLOOR = 1e-12
# The line search tries steps 1, 1/2, ..., 2^-MAX_HALVINGS.
MAX_HALVINGS = 40
TAU_STEP = 0.05
MIN_TAU_STEP = 1e-6
# The residual at which continuation_tau accepts a waypoint, a tau short of
# its target: the waypoint only starts the next step.  The residual is
# f - RHS, so 1e-3 is 0.2% of the right-hand side.  Chosen from a sweep of
# the Newton iterations of `lnlab verify --seed 0` (189 newton_solve calls
# at every value): 296 with every waypoint solved to the target's
# tolerance, 178 at 1e-4, 137 at 1e-3, 129 at 3e-3 and 112 at 1e-2.  A
# looser waypoint saves little more, and the error it leaves would pass
# the residual jump of most steps: from the last profile, the tau steps of
# (4, 2, .95) on [0.5, 1] start at 5e-5 (tau = 0.05), 1.1e-3 (0.3), 8.8e-3
# (0.65) and 0.16 (0.95).
WAYPOINT_TOL = 1e-3
# The boundary data continuation_delta sweeps, in order, as multiples of the
# outer radius (see _delta_legs): 11 legs down to 1e-4.
DELTA_SCHEDULE = tuple(0.1 * 0.5**i for i in range(10)) + (1e-4,)
# The paper's right-hand side.  Any constant c > 0 reduces to it: the Schouten
# tensor is scale-invariant, so u -> sqrt(2c) u multiplies lam by 2c.
RHS = 0.5


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


def _radii_text(domain: Ball | Annulus) -> str:
    """The domain's radii, as the refusals name them."""
    if isinstance(domain, Ball):
        return f"ball outer radius {domain.radius:g}"
    return f"annulus radii ({domain.inner:g}, {domain.outer:g})"


@dataclass(frozen=True)
class ProblemSpec:
    """Full radial problem statement.

    cone is the base Garding cone (undeformed); tau is the deformation the
    solver works at.  delta is the Dirichlet datum u = delta on every
    boundary component: a finite real >= 0, as RadialProfile's boundary
    values, stored as a float (-0.0 as +0.0).  The equation is f^tau(lam) = RHS.
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
        object.__setattr__(self, "grid", _check_grid(self.grid, 8))
        _check_real(self.delta, "boundary datum delta")
        if not 0 <= self.delta < math.inf:
            raise InvalidArgumentError(
                f"boundary datum delta must be finite and >= 0, got {self.delta}")
        object.__setattr__(self, "delta", float(self.delta) + 0.0)
        self._check_float_range()

    def _check_float_range(self):
        """Refuse radii for which h^2 overflows, or underflows to 0: past
        this check the stencils divide by a finite, nonzero h^2."""
        span = (np.float64(self.domain.radius) if isinstance(self.domain, Ball) else
                np.float64(self.domain.outer) - np.float64(self.domain.inner))
        with np.errstate(all="ignore"):
            h_sq = (span / self.grid) ** 2
        if h_sq == 0.0 or not math.isfinite(h_sq):
            raise InvalidArgumentError(
                f"{_radii_text(self.domain)} out of float range at grid {self.grid}: "
                f"h^2 {'underflows' if h_sq == 0.0 else 'overflows'} ({h_sq:.3g})")

    def radii(self) -> np.ndarray:
        """The grid, as a new array; the solver reads its own (see _grid)."""
        return _grid(self.domain, self.grid).copy()

    def solve_cone(self) -> ConeSpec:
        return replace(self.cone, tau=self.tau)


@dataclass(frozen=True)
class SolveReport:
    """Converged (or failed) state of one Newton solve of spec.  It
    stores what the solve produced; every summary is read from those
    fields (grad_sup by _radial_stencil, the bounds of u from the
    profile), so a copy with another field holds no stale number."""

    spec: ProblemSpec
    profile: RadialProfile
    newton_iterations: int
    continuation_steps: int
    residual_nodes: np.ndarray = field(repr=False)
    margin_nodes: np.ndarray = field(repr=False)
    # The rule that stopped Newton, kept out of to_dict(): "tolerance" or
    # "rounding floor" (converged), "line search" or "iteration limit".
    newton_stop: str

    @property
    def converged(self) -> bool:
        return self.newton_stop in ("tolerance", "rounding floor")

    @property
    def tau(self) -> float:
        return self.spec.tau

    @property
    def delta(self) -> float:
        return self.spec.delta

    @property
    def residual_sup(self) -> float:
        return float(self.residual_nodes.max())

    @property
    def admissibility_margin_min(self) -> float:
        return float(self.margin_nodes[_pde_rows(self.spec)].min())

    @property
    def grad_sup(self) -> float:
        return float(np.abs(_radial_stencil(self.profile.u, self.profile.r)[0]).max())

    @property
    def boundary_slope(self) -> float:
        return boundary_slope(self.profile)

    def to_dict(self) -> dict:
        """The scalar fields; the profile goes out through to_csv."""
        return {
            "residual_sup": self.residual_sup,
            "admissibility_margin_min": self.admissibility_margin_min,
            "boundary_slope": self.boundary_slope,
            "c0_min": float(self.profile.u.min()),
            "c0_max": float(self.profile.u.max()),
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


@functools.lru_cache(maxsize=8)
def _grid(domain: Ball | Annulus, grid: int) -> np.ndarray:
    """The grid of `grid` steps on domain, formed once per (domain, grid)
    and read-only: the r of every profile the solver forms.  A profile on
    this array needs no grid check (see _problem_grid), and the solver
    builds its profiles on it with only their u checked
    (RadialProfile._on_grid).  Equal domains give the same bits, so any
    domain equal to the spec's may be the key."""
    if isinstance(domain, Ball):
        r = np.linspace(0.0, domain.radius, grid + 1)
    else:
        r = np.linspace(domain.inner, domain.outer, grid + 1)
    r.flags.writeable = False
    return r


def _pde_rows(spec: ProblemSpec):
    """Indices of the PDE rows, the unknowns of the banded systems.  Every
    other row is a Dirichlet row, whose value delta is data: newton_solve
    sets it once and steps the PDE rows only, and the residual there is
    u - delta.  No other code decides which rows are which."""
    if isinstance(spec.domain, Ball):
        return slice(0, spec.grid)      # center node carries a PDE row
    return slice(1, spec.grid)


def _inadmissible(spec: ProblemSpec, margins, what: str) -> LnlabError:
    """The error for an iterate _evaluate refuses, naming the node of its
    smallest margin; for one not positive on a PDE row, InvalidProfileError
    (a RadialProfile's u can be changed after its checks)."""
    if margins is None:
        return InvalidProfileError(f"{what}: u is not positive on a PDE row")
    worst = _pde_rows(spec).start + int(np.argmin(margins))
    margin = float(margins.min())
    return InadmissibleIterateError(
        f"{what} (worst node {worst}, margin {margin:.3e})",
        worst_node=worst, margin=margin)


def _problem_grid(profile: RadialProfile, spec: ProblemSpec) -> np.ndarray:
    """The solver's grid of spec (see _grid), after checking that the
    profile lives on it: at once when profile.r is that array, as it is
    for every profile the solver forms, else node by node to within
    1e-12 of the outer radius.  Every report is formed on the array
    returned, so the reports of a continuation share one grid array."""
    r = _grid(spec.domain, spec.grid)
    if profile.r is r:
        return r
    if profile.r.shape == r.shape:
        # |profile.r - r| in one buffer: at 1e5 nodes a second temporary
        # made the check 5x slower.
        gap = np.subtract(profile.r, r)
        if (np.abs(gap, out=gap) <= 1e-12 * r[-1]).all():
            return r
    raise GridMismatchError("profile grid does not match the problem grid")


def _evaluate(u, spec: ProblemSpec, r, cone: ConeSpec):
    """Residual vector F, PDE-row margins and the PDE rows' f-gradients.
    The one admissibility rule: u is admissible when its PDE rows are
    positive and every margin exceeds MARGIN_FLOOR; else F and the
    gradients are None, and the margins too if a PDE row is not positive
    (no RadialProfile is, as built).

    Each stage holds only what the next one reads.  The full-grid stencil
    lives until the eigenpairs lam are formed; lam lives through the two
    cone passes (the margins, then f and its gradients); F is allocated
    once lam is freed.  _analytic_jacobian reads the gradients and forms
    the stencil again from u.
    """
    rows = _pde_rows(spec)
    if not u[rows].min() > 0.0:             # a NaN fails both tests
        return None, None, None
    du, d2u = _radial_stencil(u, r)
    # (radial, tangential) pairs stand for the spectra (a, b, ..., b),
    # stored column by column for the pair kernels.
    lam = _eigenpair(u[rows], du[rows], d2u[rows], r[rows]).T
    del du, d2u
    margins = cone_margin(cone, lam)
    if not margins.min() > MARGIN_FLOOR:
        return None, margins, None
    fvals, grads = _f_and_grad_unchecked(cone, lam)
    del lam

    # f - RHS on the PDE rows, u - delta on the Dirichlet rows
    F = np.empty_like(u)
    np.subtract(fvals, RHS, out=F[rows])
    for edge in (slice(rows.start), slice(rows.stop, None)):
        np.subtract(u[edge], spec.delta, out=F[edge])
    return F, margins, grads


def _stencil_bands(ab, p, s, rows: slice):
    """diag(p) D1 + diag(q) D2 + diag(s) on the PDE rows `rows`, in their
    own unknowns, summed in place into ab, a (3, m) array whose row 1 holds
    q, in solve_banded layout: ab[0, j + 1] is J[j, j+1], ab[1, j] is J[j, j]
    and ab[2, j - 1] is J[j, j-1].  Returns ab.

    D1 and D2 are _radial_stencil's central stencils times 2h and h^2,
    (-1, 0, 1) and (1, -2, 1); a ball's centre row (rows.start == 0) has its
    centre rule, D1 = 0 and D2 = (-2, 2), and does not read p[0].  Entries
    that would multiply a Dirichlet value are left out: the Dirichlet values
    are data, not unknowns.  The corners gtsv ignores, ab[0, 0] and
    ab[2, -1], are set to zero, since solve_banded checks every entry.
    Rows 0 and 2 of ab are only written, so they may hold scratch on entry.
    """
    q = ab[1]
    np.add(p[:-1], q[:-1], out=ab[0, 1:])
    np.subtract(q[1:], p[1:], out=ab[2, :-1])
    ab[0, 0] = ab[2, -1] = 0.0
    if rows.start == 0:
        ab[0, 1] = 2.0 * q[0]
    q *= -2.0
    q += s
    return ab


def _analytic_jacobian(u, spec: ProblemSpec, r, cone: ConeSpec, grads):
    """Tridiagonal Jacobian of the PDE rows in the PDE-row unknowns, from
    _stencil_bands.  With gR and gT = (n-1) g_T the f-gradient's weights of
    the radial and tangential eigenvalues, row i is p D1 + q D2 + s with

    p = (gR u_r + gT (u_r - u/r)) / 2h,  q = -gR u / h^2,
    s = -(gR u_rr + gT u_r / r);

    at a ball's centre both eigenvalues are -u u_rr (see _eigenpair), so
    there q = -(gR + gT) u / h^2 and s = -(gR + gT) u_rr.

    It reads grads, the gradients of u's _evaluate, and consumes them:
    gT is scaled in its own row and s is formed in gR's.  It forms u's
    full-grid stencil again, and p in one scratch array; q is formed in the
    diagonal band and gT (u_r - u/r) in the lower one, which _stencil_bands
    overwrites.  Its peak is the stencil, the bands and p beside
    newton_solve's u, F and the gradients (and u's margins at the rounding
    floor).
    """
    h = r[1] - r[0]
    rows = _pde_rows(spec)
    du, d2u = (d[rows] for d in _radial_stencil(u, r))
    val = u[rows]
    s, gT = grads[:, 0], grads[:, 1]
    gT *= cone.n - 1
    ab = np.empty((3, val.size))
    p, q = np.empty(val.size), ab[1]
    if rows.start == 0:
        gsum = s[0] + gT[0]
        p[0], q[0], s[0] = 0.0, -gsum * val[0] / h**2, -gsum * d2u[0]
    # Rows off the centre, i = 1 .. rows.stop - 1, at i - rows.start.
    off = slice(1 - rows.start, None)
    val, du, d2u, gR, gT = val[off], du[off], d2u[off], s[off], gT[off]
    rr = r[1:rows.stop]
    # q = -gR u / h^2
    np.negative(gR, out=q[off])
    q[off] *= val
    q[off] /= h**2
    # p = (gR u_r + gT (u_r - u/r)) / 2h, its second term in the lower band
    tangential = ab[2, off]
    np.divide(val, rr, out=tangential)
    np.subtract(du, tangential, out=tangential)
    tangential *= gT
    np.multiply(gR, du, out=p[off])
    p[off] += tangential
    p[off] /= 2 * h
    # s = -(gR u_rr + gT u_r / r), in gR's place
    gT *= du
    gT /= rr
    gR *= d2u
    gR += gT
    np.negative(gR, out=gR)
    return _stencil_bands(ab, p, s, rows)


def solve_banded(ab, b):
    """Solve the tridiagonal system with bands ab (layout of
    _stencil_bands) and right-hand side b in place: both are
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

# glibc's mallopt(3) parameter numbers (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _heap_policy():
    """Fix glibc's malloc thresholds for the process: blocks below 32 MiB
    come from the heap (M_MMAP_THRESHOLD), and free memory at the heap top
    goes back to the OS only above 64 MiB (M_TRIM_THRESHOLD).  These are
    the values glibc's own rule reaches at its 64-bit ceiling, where it
    raises the mmap threshold to each freed mapped block and the trim
    threshold to twice that.  With them, the grid-length work arrays
    (0.8 MB each at 1e5 nodes) that every evaluation frees stay in the
    heap, and Newton's next iterate reuses their pages instead of mapping
    them and faulting them in again; with glibc's start values the
    process's time at that grid depended on the order its arrays were
    made in.  The cost is that freed heap pages stay resident, up to the
    process's peak.  Where the C library has no mallopt (macOS, Windows)
    it does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_heap_policy()


def residual(profile: RadialProfile, spec: ProblemSpec) -> np.ndarray:
    """Per-node residual: f^tau(lam_i) - RHS at PDE rows, u - delta at boundaries.

    Raises InadmissibleIterateError (with the worst node index) for a
    profile that _evaluate finds inadmissible, as newton_solve does.
    """
    r = _problem_grid(profile, spec)
    F, margins, _ = _evaluate(profile.u, spec, r, spec.solve_cone())
    if F is None:
        raise _inadmissible(spec, margins, "spectrum not inside the cone by the margin floor")
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
    """Pointwise ordering lower <= upper + h^2/b on a shared grid, b the
    outer radius: the allowance is a length, as u is, so it scales with a
    dilation.  The one ordering rule: continuation_delta's monotonicity
    record reads it too."""
    if lower.r.shape != upper.r.shape or not np.array_equal(lower.r, upper.r):
        raise GridMismatchError("profiles live on different grids")
    return bool(np.all(lower.u <= upper.u + lower.h**2 / lower.r[-1]))


def initial_profile(spec: ProblemSpec) -> RadialProfile:
    """Starting profile for the tau = 0 problem: u = delta + w / |D1 w(b)|
    with w the discrete torsion function (see _torsion_bump).  At tau = 0
    the cone is sigma_1 > 0, and the pair identity a + (n-1) b = n u_r^2 / 2
    - u L_h u with L_h u = -2n / |D1 w(b)| gives sigma_1 > 0 on the grid at
    every PDE row where u > 0.  A start that is not finite and positive on
    the PDE rows raises InvalidProfileError naming the radii, n, delta, the
    grid, the node and h/r there.
    """
    r = _grid(spec.domain, spec.grid)
    u = _torsion_bump(spec, r)
    u += spec.delta
    rows = _pde_rows(spec)
    ok = np.isfinite(u[rows]) & (u[rows] > 0.0)
    if not ok.all():
        node, n = rows.start + int(np.argmin(ok)), spec.cone.n
        raise InvalidProfileError(
            f"the tau = 0 start is not finite and positive: {_radii_text(spec.domain)}, "
            f"n = {n}, delta {spec.delta:g}, grid {spec.grid}: at node {node} "
            f"(r = {r[node]:.6g}) it is {u[node]:.3e}, where h/r = "
            f"{(r[1] - r[0]) / r[node]:.3g} against 2/(n - 1) = {2 / (n - 1):.3g} "
            f"{_M_MATRIX_RULE}")
    return RadialProfile._on_grid(r, u)


# Why the tau = 0 start can fail where the grid is coarse against r.
_M_MATRIX_RULE = "(L_h is an M-matrix, so w >= 0, when h/r < 2/(n - 1) at every PDE row)"


def _coarse_inner_sphere(spec: ProblemSpec) -> str:
    """For a tau = 0 start problem that stopped short: on an annulus with
    h/a >= 2/(n - 1), a the inner radius, the clause that names h/a against
    2/(n - 1), where the discrete start is not resolved; "" otherwise."""
    if isinstance(spec.domain, Ball):
        return ""
    r, n = _grid(spec.domain, spec.grid), spec.cone.n
    h_a = (r[1] - r[0]) / r[0]
    if h_a < 2 / (n - 1):
        return ""
    return (f"; the start is coarse at the inner sphere: h/a = {h_a:.3g} against "
            f"2/(n - 1) = {2 / (n - 1):.3g} {_M_MATRIX_RULE}")


def _torsion_bump(spec: ProblemSpec, r: np.ndarray) -> np.ndarray:
    """w / |D1 w(b)| on the grid r.  w solves L_h w = -2n on the PDE rows,
    with the Dirichlet values w = 0 as data, in one solve_banded call; L_h
    = D2 + (n-1)/r D1 has _radial_stencil's central stencils and centre
    rule, and D1 w(b) is its one-sided slope at b.  L_h is an M-matrix, so
    w >= 0, when h < 2r / (n - 1) at every PDE row; on a ball the stencils
    are exact on quadratics and w / |D1 w(b)| = (b^2 - r^2) / (2b) to
    rounding.  The rows are h^2 L_h, whose coefficients depend on h/r only
    (p = (n-1) h / 2r, q = 1; q = n at a ball's centre), solved for w / h^2:
    the quotient is formed from grid-sized numbers at any radii.
    """
    n = spec.cone.n
    rows = _pde_rows(spec)
    rr = r[rows]
    p = np.zeros(rr.size)
    np.divide((n - 1) * (r[1] - r[0]), 2.0 * rr, out=p, where=rr > 0.0)
    ab = np.empty((3, rr.size))
    ab[1] = 1.0                         # q
    if rows.start == 0:
        ab[1, 0] = n                    # centre rule: L_h = n D2 / h^2
    w = np.zeros(r.size)
    w[rows] = solve_banded(_stencil_bands(ab, p, 0.0, rows),
                           np.full(rr.size, -2.0 * n))
    w /= abs(_radial_stencil(w, r)[0][-1])
    return w


def _make_report(u, spec, r, F, margins, iters, stop):
    """The report of iterate u, whose _evaluate gave F and margins,
    stopped by the rule stop (see SolveReport.newton_stop).  The profile
    holds u itself, newton_solve's own iterate, on the solver's grid r.
    """
    rows = _pde_rows(spec)
    margin_full = np.empty(r.size)
    margin_full[rows] = margins
    margin_full[:rows.start] = margin_full[rows.stop:] = 0.0
    return SolveReport(spec=spec, profile=RadialProfile._on_grid(r, u),
                       newton_iterations=iters, continuation_steps=0,
                       residual_nodes=np.abs(F), margin_nodes=margin_full,
                       newton_stop=stop)


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


def _line_search(u, step, res, at_floor, spec: ProblemSpec, r, cone: ConeSpec):
    """The first trial u + t*step on the PDE rows, t = 1, 1/2, ...,
    2^-MAX_HALVINGS (t = 1 alone at the rounding floor), admissible by
    _evaluate with a residual below res, as (u, F, margins, grads, res);
    None if no trial qualifies.  Only u and step live through it (and, at
    the rounding floor, newton_solve's F and margins of u): step is halved
    in place, so t*step needs no buffer of its own, and a trial's arrays
    are freed before the next trial is made.  Its peak is one trial's
    _evaluate beside u, step and the trial."""
    rows = _pde_rows(spec)
    for _ in range(1 if at_floor else MAX_HALVINGS + 1):
        u_try = np.empty_like(u)
        np.add(u[rows], step, out=u_try[rows])
        u_try[:rows.start], u_try[rows.stop:] = u[:rows.start], u[rows.stop:]
        F, margins, grads = _evaluate(u_try, spec, r, cone)
        if F is not None:
            res_try = float(np.abs(F).max())
            if res_try < res:
                return u_try, F, margins, grads, res_try
        del F, margins, grads, u_try
        step *= 0.5
    return None


def newton_solve(init: RadialProfile, spec: ProblemSpec,
                 opts: NewtonOptions | None = None) -> SolveReport:
    """Damped Newton iteration on the discrete system.

    A start that _evaluate finds inadmissible is refused; the line search
    halves the step until a trial is admissible and the residual decreases.
    The solve converges at residual <= opts.tol, or at the rounding floor
    (see _rounding_floor): there the line search tries the full step only,
    and Newton stops if that step is refused.  The report has converged =
    False after MAX_NEWTON_ITERATIONS or on any other line-search failure.

    The Dirichlet rows of newton_solve's copy of init are set to delta
    once; each step solves for the PDE rows only.  init is dropped once it
    is copied, so a start the caller builds in the call's argument list
    (continuation_tau's prediction) is freed then.  One iterate u is held
    at a time, and each stage of an iteration keeps only what the next
    one reads.  u's F, margins and gradients (see _evaluate) live until
    the stop test; past it the Jacobian (see _analytic_jacobian) consumes
    the gradients, and the bands and -F[rows] go into the banded solve,
    which overwrites them with the step.  Off the rounding floor -F[rows]
    is formed in F's own buffer and the margins are freed, so only u and
    the step live through the line search (see _line_search), and a
    line-search stop evaluates u again.  At the floor the line search
    makes one trial, and F and the margins live through it for the
    report, which reads the rest from u's profile (see SolveReport).
    """
    opts = opts or NewtonOptions()
    r = _problem_grid(init, spec)
    cone = spec.solve_cone()

    rows = _pde_rows(spec)
    u = init.u.copy()
    del init                    # so a caller's temporary start is freed here
    u[:rows.start] = u[rows.stop:] = spec.delta
    F, margins, grads = _evaluate(u, spec, r, cone)
    if F is None:
        raise _inadmissible(spec, margins, "initial profile inadmissible")

    res = float(np.abs(F).max())
    for it in range(MAX_NEWTON_ITERATIONS + 1):
        if res <= opts.tol or it == MAX_NEWTON_ITERATIONS:
            return _make_report(u, spec, r, F, margins, it,
                                "tolerance" if res <= opts.tol else "iteration limit")
        # At the rounding floor a halved step's decrease is rounding noise:
        # only the full step is tried, and u's F and margins are kept for
        # the report of a refused one.
        at_floor = res <= _rounding_floor(u.max(), r[1] - r[0])
        kept = (F, margins) if at_floor else None
        del margins
        ab = _analytic_jacobian(u, spec, r, cone, grads)
        del grads
        step = solve_banded(ab, -F[rows] if at_floor else np.negative(F, out=F)[rows])
        del ab, F
        accepted = _line_search(u, step, res, at_floor, spec, r, cone)
        del step
        if accepted is None:
            if not at_floor:
                kept = _evaluate(u, spec, r, cone)[:2]
            return _make_report(u, spec, r, *kept, it + 1,
                                "rounding floor" if at_floor else "line search")
        u, F, margins, grads, res = accepted
        del accepted, kept          # else they live past the next Jacobian


def _newton_stop(report: SolveReport, opts: NewtonOptions) -> str:
    """Why a Newton solve stopped short of opts.tol, from the rule that
    stopped it; opts are the options that solve ran with, so a waypoint's
    stop names WAYPOINT_TOL.  The message ends with the residual's rounding
    floor 4*eps*max(u)^2/h^2 (see _rounding_floor), which a line-search
    stop has not reached."""
    cause = ("iteration limit reached" if report.newton_stop == "iteration limit"
             else "line search found no admissible descent step")
    floor = _rounding_floor(report.profile.u.max(), report.profile.h)
    return (f"Newton stopped at residual_sup {report.residual_sup:.3e} after "
            f"{report.newton_iterations} iterations, above tol {opts.tol:.1e} "
            f"({cause}); rounding floor 4*eps*max(u)^2/h^2 = {floor:.1e}")


def _inadmissible_start(spec: ProblemSpec,
                        err: InadmissibleIterateError) -> InadmissibleIterateError:
    """The error for a tau = 0 start that newton_solve refuses.  The start
    is positive on the PDE rows, where sigma_1 > 0 by the pair identity
    (see initial_profile), so on either domain the one cause is a bump
    max(w) / |D1 w(b)| that rounds away against delta."""
    bump = float(_torsion_bump(spec, _grid(spec.domain, spec.grid)).max())
    return InadmissibleIterateError(
        f"the tau = 0 start is inadmissible: its bump max(w)/|w'(b)| = {bump:.3g} "
        f"rounds away against delta ({_radii_text(spec.domain)}, n = {spec.cone.n}, "
        f"delta {spec.delta:g}, grid {spec.grid}, worst node {err.worst_node}, "
        f"margin {err.margin:.3e})",
        worst_node=err.worst_node, margin=err.margin)


def _secant(x: float, x1: float, u1, x0: float, u0) -> np.ndarray:
    """The secant predictor at x through (x0, u0) and (x1, u1): u1 plus
    (x - x1) times the slope (u1 - u0) / (x1 - x0), formed in one new
    array.  Continuation in delta (see _leg_start) and in tau (see
    continuation_tau) start Newton from it once two solutions are known."""
    u = np.subtract(u1, u0)
    u /= x1 - x0
    u *= x - x1
    u += u1
    return u


def _corrector(predict, spec: ProblemSpec, opts: NewtonOptions):
    """A continuation step's one Newton solve, from the start predict()
    builds: (report, None) if it converges, else (None, the cause).  It
    refuses a start that RadialProfile refuses (InvalidProfileError) or
    Newton refuses (InadmissibleIterateError), or from which Newton stops
    short.  The start is built in newton_solve's argument list, so it is
    freed once newton_solve has copied it."""
    try:
        report = newton_solve(predict(), spec, opts)
    except InvalidProfileError:
        return None, "the predicted start is not finite and positive"
    except InadmissibleIterateError as err:
        return None, (f"the step left the cone (worst node {err.worst_node}, "
                      f"margin {err.margin:.3e})")
    return (report, None) if report.converged else (None, _newton_stop(report, opts))


def continuation_tau(spec: ProblemSpec,
                     opts: NewtonOptions | None = None) -> SolveReport:
    """Continuation in tau from the semilinear start to spec.tau, by
    predictor-corrector steps on a fixed schedule.  spec.tau may be any tau
    in [0, 1], 1 (the undeformed cone) included: at every step the
    margins of _evaluate decide admissibility.

    Solves at tau = 0 first, then steps by TAU_STEP up to spec.tau, halving
    a refused step; a step below MIN_TAU_STEP that is refused stalls the
    continuation (ContinuationStallError, naming the refusal).  Each step
    predicts its start by the secant through the last two accepted
    profiles, the tau = 0 solution among them (see _secant), and starts
    from the last profile while only one is accepted.  A step is one Newton
    solve (see _corrector): a predicted start that is refused, or from
    which Newton stops short, refuses the step, and the schedule halves
    it.  The corrector accepts a waypoint, a step short of spec.tau, at
    residual <= max(WAYPOINT_TOL, opts.tol): it only starts the next step.
    After the first refused step, and at spec.tau always, Newton runs to
    opts.tol.
    """
    opts = opts or NewtonOptions()
    target = spec.tau

    spec0 = replace(spec, tau=0.0)
    try:
        report = newton_solve(initial_profile(spec0), spec0, opts)
    except InadmissibleIterateError as err:
        raise _inadmissible_start(spec0, err) from err
    if not report.converged:
        raise ContinuationStallError(
            f"the tau = 0 start problem did not converge: {_newton_stop(report, opts)}"
            f"{_coarse_inner_sphere(spec0)}")
    steps = 0
    if target == 0.0:
        return report

    # Keep the steps inside (0, target) whatever arange's rounding gives,
    # so that target is solved once, last.  Between steps only the last two
    # accepted profiles are held (one u array more than the last profile):
    # no earlier step's report lives into the next solve.
    pending = [t for t in np.arange(TAU_STEP, target, TAU_STEP)
               if 0.0 < t < target] + [target]
    waypoint = replace(opts, tol=max(WAYPOINT_TOL, opts.tol))
    refused = False
    profile, current, before = report.profile, 0.0, None
    del report
    while True:
        t_next = pending[0]
        trial, refusal = _corrector(
            lambda: profile if before is None else RadialProfile._on_grid(
                profile.r, _secant(t_next, current, profile.u, *before)),
            replace(spec, tau=t_next), opts if refused or t_next == target else waypoint)
        if refusal is None:
            steps += 1
            if t_next == target:
                return replace(trial, continuation_steps=steps)
            before = (current, profile.u)
            profile, current = trial.profile, t_next
            pending.pop(0)
        else:
            refused = True
            if t_next - current < MIN_TAU_STEP:
                raise ContinuationStallError(
                    f"tau continuation stalled at tau = {current:.6f}: "
                    f"tau = {t_next:.9f} refused, {refusal}")
            pending.insert(0, 0.5 * (current + t_next))
        del trial


@dataclass
class DeltaContinuationResult:
    """Outcome of a decreasing-delta sweep: the reports of its converged
    legs, in order, and where and why it stopped, if it did.  Every
    summary is read from the reports."""

    reports: list
    failed_delta: float | None = None
    # Why the leg at failed_delta failed: its warm start's refusal, if it
    # had one, and the error of its fresh tau continuation.
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failed_delta is None

    @property
    def deltas(self) -> list:
        return [rep.delta for rep in self.reports]

    @property
    def monotonicity_max_violation(self) -> float:
        """The largest rise of a leg above the leg before, over the legs
        comparison_check refuses against it; 0.0 if it refuses none."""
        pairs = zip(self.reports[1:], self.reports)
        return max((float(np.max(leg.profile.u - prev.profile.u)) for leg, prev in pairs
                    if not comparison_check(leg.profile, prev.profile)), default=0.0)


def _leg_start(reports: list, delta: float) -> RadialProfile:
    """The start of the warm delta leg at datum delta: the last converged
    profile u_1 plus (delta - delta_1) times du/ddelta, taken as 1 after
    one leg, and after more the secant prediction through the last two
    (see _secant), on the solver's grid of the reports.  A start that is
    not positive on the open domain is refused (InvalidProfileError)."""
    last = reports[-1]
    if len(reports) == 1:
        return RadialProfile._on_grid(last.profile.r, last.profile.u + (delta - last.delta))
    return RadialProfile._on_grid(last.profile.r, _secant(
        delta, last.delta, last.profile.u, reports[-2].delta, reports[-2].profile.u))


def _delta_legs(domain: Ball | Annulus) -> list:
    """The boundary data of continuation_delta's legs, in order:
    DELTA_SCHEDULE times the outer radius b, so that a dilated domain runs
    the dilated legs (u scales as a length)."""
    b = domain.radius if isinstance(domain, Ball) else domain.outer
    return [float(d * b) for d in DELTA_SCHEDULE]


def continuation_delta(spec: ProblemSpec) -> DeltaContinuationResult:
    """Sweep the boundary datum down the legs of _delta_legs, DELTA_SCHEDULE
    times the outer radius; spec.delta is not read.

    The first leg runs the full tau continuation.  Each later leg runs
    one Newton solve (see _corrector) from the last profile moved along
    the secant through the last two legs (after one leg, by the change in
    the datum; see _leg_start); a refused leg, unlike a refused tau step,
    falls back to a fresh tau continuation; if that fails too, the sweep
    stops there, with the leg's delta and both causes kept.
    """
    result = DeltaContinuationResult(reports=[])
    for d in _delta_legs(spec.domain):
        spec_d = replace(spec, delta=d)
        report, refusal = None, None
        if result.reports:
            report, refusal = _corrector(lambda: _leg_start(result.reports, d), spec_d,
                                         NewtonOptions())
        if report is None:
            try:
                report = continuation_tau(spec_d)
            except (ContinuationStallError, InadmissibleIterateError) as err:
                warm = "" if refusal is None else f"warm start refused: {refusal}; "
                result.failed_delta = d
                result.failure = f"{warm}fresh tau continuation failed: {err}"
                break
        result.reports.append(report)
    return result
