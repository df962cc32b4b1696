"""Damped-Newton continuation solver for the radial Dirichlet problem.

Unknowns are conformal-factor values u_i on a uniform radial grid.  Interior
rows impose f^tau(lam(-g_u^{-1} A_{g_u})) = psi via second-order stencils;
boundary rows impose u = delta.  The Jacobian is tridiagonal (chain rule of
the f-gradient through the eigenvalue stencils) and every accepted Newton
iterate keeps all interior spectra strictly inside the deformed cone.

Continuation runs in tau (from the semilinear tau = 0 problem toward the
fully nonlinear operator) and in the boundary datum delta (downward, toward
the zero-boundary problem whose solutions satisfy u / dist -> 1).
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_banded

from .cones import ConeSpec, _f_and_grad_unchecked, cone_margin
from .errors import (ContinuationStallError, GridMismatchError,
                     InadmissibleIterateError, InvalidArgumentError)
from .schouten import RadialProfile, _eigenpair, _radial_stencil, _two_valued

NEWTON_TOL = 1e-10
MARGIN_FLOOR = 1e-12
MIN_LINESEARCH_STEP = 1e-14
TAU_STEP = 0.05
MIN_TAU_STEP = 1e-6
DELTA_RATIO = 0.5
DELTA_START = 1e-1
DELTA_END = 1e-4


@dataclass(frozen=True)
class Ball:
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise InvalidArgumentError(f"ball radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Annulus:
    inner: float
    outer: float

    def __post_init__(self):
        if not 0 < self.inner < self.outer:
            raise InvalidArgumentError(
                f"annulus needs 0 < inner < outer, got ({self.inner}, {self.outer})")


@dataclass(frozen=True)
class ProblemSpec:
    """Full radial problem statement.

    cone is the base Garding cone (undeformed); tau is the deformation the
    solver works at.  delta is the boundary datum: a single positive number,
    or an (inner, outer) pair for annuli.  rhs may be a positive constant or
    a positive function of r.
    """

    cone: ConeSpec
    tau: float
    domain: Ball | Annulus
    delta: float | tuple
    grid: int = 1000
    rhs: object = 0.5

    def __post_init__(self):
        if self.cone.tau != 1.0:
            raise InvalidArgumentError("base cone must be undeformed (tau = 1); "
                                       "set the deformation on the problem itself")
        if not 0.0 <= self.tau <= 1.0:
            raise InvalidArgumentError(f"tau must lie in [0, 1], got {self.tau}")
        if not isinstance(self.grid, (int, np.integer)) or isinstance(self.grid, bool):
            raise InvalidArgumentError(f"grid must be an integer, got {self.grid!r}")
        if self.grid < 8:
            raise InvalidArgumentError(f"grid must have at least 8 intervals, got {self.grid}")
        for d in self.boundary_deltas():
            if d is not None and d <= 0:
                raise InvalidArgumentError(f"boundary data must be positive, got {d}")
        if not callable(self.rhs) and self.rhs <= 0:
            raise InvalidArgumentError(f"right-hand side must be positive, got {self.rhs}")

    def boundary_deltas(self):
        """(inner, outer) boundary values; inner is None on a ball."""
        if isinstance(self.domain, Ball):
            if isinstance(self.delta, tuple):
                raise InvalidArgumentError("ball domains take a single boundary value")
            return (None, float(self.delta))
        if isinstance(self.delta, tuple):
            a, b = self.delta
            return (float(a), float(b))
        return (float(self.delta), float(self.delta))

    def radii(self) -> np.ndarray:
        if isinstance(self.domain, Ball):
            return np.linspace(0.0, self.domain.radius, self.grid + 1)
        return np.linspace(self.domain.inner, self.domain.outer, self.grid + 1)

    def rhs_values(self, r: np.ndarray) -> np.ndarray:
        psi = self.rhs(r) if callable(self.rhs) else np.full_like(r, float(self.rhs))
        psi = np.asarray(psi, dtype=float)
        if np.any(psi <= 0):
            raise InvalidArgumentError("right-hand side must be positive on the grid")
        return psi

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
    delta: float | tuple
    residual_nodes: np.ndarray = field(repr=False, default=None)
    margin_nodes: np.ndarray = field(repr=False, default=None)

    def to_dict(self, include_profile=True) -> dict:
        out = {
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
            "delta": list(self.delta) if isinstance(self.delta, tuple) else self.delta,
        }
        if include_profile:
            out["r"] = self.profile.r.tolist()
            out["u"] = self.profile.u.tolist()
        return out

    def to_json(self, include_profile=True) -> str:
        return json.dumps(self.to_dict(include_profile), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        """CSV with columns r, u, residual, margin."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["r", "u", "residual", "margin"])
        for i in range(self.profile.r.size):
            writer.writerow([format(x, ".17g") for x in
                             (self.profile.r[i], self.profile.u[i],
                              self.residual_nodes[i], self.margin_nodes[i])])
        return buf.getvalue()


@dataclass
class NewtonOptions:
    max_iterations: int = 60
    tol: float = NEWTON_TOL
    margin_floor: float = MARGIN_FLOOR
    max_halvings: int = 40


def _pde_rows(spec: ProblemSpec):
    """Indices of PDE rows; the remaining rows are Dirichlet."""
    if isinstance(spec.domain, Ball):
        return slice(0, spec.grid)      # center node carries a PDE row
    return slice(1, spec.grid)


def _worst_node(spec: ProblemSpec, margins: np.ndarray) -> int:
    """Grid node of the smallest PDE-row margin."""
    return _pde_rows(spec).start + int(np.argmin(margins))


def _problem_grid(profile: RadialProfile, spec: ProblemSpec) -> np.ndarray:
    """spec.radii(), after checking that the profile lives on that grid."""
    r = spec.radii()
    if profile.r.shape != r.shape or not np.allclose(profile.r, r, atol=1e-12):
        raise GridMismatchError("profile grid does not match the problem grid")
    return r


def _evaluate(u, spec: ProblemSpec, r, psi, cone: ConeSpec):
    """Residual vector, per-node margins (PDE rows) and cached state."""
    rows = _pde_rows(spec)
    du, d2u = _radial_stencil(u, r)
    val, du, d2u = u[rows], du[rows], d2u[rows]
    lam = _two_valued(*_eigenpair(val, du, d2u, r[rows]), cone.n)
    margins = np.atleast_1d(cone_margin(cone, lam))

    F = np.empty_like(u)
    inner_delta, outer_delta = spec.boundary_deltas()
    if np.all(margins > 0.0):
        fvals, grads = _f_and_grad_unchecked(cone, lam)
        F[rows] = fvals - psi[rows]
    else:
        fvals, grads = None, None
        F[rows] = np.nan
    if inner_delta is not None:
        F[0] = u[0] - inner_delta
    F[-1] = u[-1] - outer_delta
    return F, margins, (val, du, d2u, grads)


def _analytic_jacobian(u, spec: ProblemSpec, r, cone: ConeSpec, state):
    """Tridiagonal Jacobian in solve_banded layout (3, m)."""
    val, du, d2u, grads = state
    h = r[1] - r[0]
    m = u.size
    is_ball = isinstance(spec.domain, Ball)
    gR = grads[:, 0]
    gT = grads[:, 1:].sum(axis=1)

    diag = np.zeros(m)
    sup = np.zeros(m - 1)   # J[i, i+1]
    sub = np.zeros(m - 1)   # J[i+1, i]

    if is_ball:
        pde = np.arange(0, m - 1)
    else:
        pde = np.arange(1, m - 1)
    # Interior rows with full central stencils (ball row 0 handled separately).
    ii = pde[1:] if is_ball else pde
    s = slice(1, None) if is_ball else slice(None)
    dR_c = -d2u[s] + 2.0 * val[s] / h**2
    dR_p = du[s] / (2 * h) - val[s] / h**2
    dR_m = -du[s] / (2 * h) - val[s] / h**2
    rr = r[ii]
    dT_c = -du[s] / rr
    dT_p = (du[s] - val[s] / rr) / (2 * h)
    dT_m = -dT_p
    diag[ii] = gR[s] * dR_c + gT[s] * dT_c
    sup[ii] = gR[s] * dR_p + gT[s] * dT_p
    sub[ii - 1] = gR[s] * dR_m + gT[s] * dT_m

    if is_ball:
        # Center row: both eigenvalues equal -u0 * d2u0 with d2u0 = 2(u1-u0)/h^2.
        gsum = gR[0] + gT[0]
        diag[0] = gsum * (-d2u[0] + 2.0 * val[0] / h**2)
        sup[0] = gsum * (-2.0 * val[0] / h**2)
    else:
        diag[0] = 1.0
    diag[-1] = 1.0

    ab = np.zeros((3, m))
    ab[0, 1:] = sup
    ab[1, :] = diag
    ab[2, :-1] = sub
    return ab


def _fd_jacobian(u, spec: ProblemSpec, r, psi, cone: ConeSpec):
    """Tridiagonal Jacobian by central differences (oracle for the analytic one)."""
    m = u.size
    ab = np.zeros((3, m))
    base_step = np.sqrt(np.finfo(float).eps)
    for j in range(m):
        step = base_step * max(1.0, abs(u[j]))
        up = u.copy()
        um = u.copy()
        up[j] += step
        um[j] -= step
        Fp, _, _ = _evaluate(up, spec, r, psi, cone)
        Fm, _, _ = _evaluate(um, spec, r, psi, cone)
        col = (Fp - Fm) / (2 * step)
        # column j contributes to rows j-1, j, j+1
        if j > 0:
            ab[0, j] = col[j - 1]
        ab[1, j] = col[j]
        if j + 1 < m:
            ab[2, j] = col[j + 1]
    return ab


def residual(profile: RadialProfile, spec: ProblemSpec) -> np.ndarray:
    """Per-node residual: f^tau(lam_i) - psi_i at PDE rows, u - delta at boundaries.

    Raises InadmissibleIterateError (with the worst node index) if the
    spectrum leaves the cone at any PDE row.
    """
    r = _problem_grid(profile, spec)
    psi = spec.rhs_values(r)
    cone = spec.solve_cone()
    F, margins, _ = _evaluate(profile.u, spec, r, psi, cone)
    if not np.all(margins > 0.0):
        worst = _worst_node(spec, margins)
        raise InadmissibleIterateError(
            f"spectrum outside the cone at node {worst} "
            f"(margin {float(margins.min()):.3e})",
            worst_node=worst, margin=float(margins.min()))
    return F


def node_margins(profile: RadialProfile, spec: ProblemSpec) -> np.ndarray:
    """Cone margins at the PDE rows of a profile."""
    r = _problem_grid(profile, spec)
    psi = spec.rhs_values(r)
    _, margins, _ = _evaluate(profile.u, spec, r, psi, spec.solve_cone())
    return margins


def boundary_slope(report_or_profile) -> float:
    """Richardson estimate of u / dist near the outer boundary.

    Uses the last three interior nodes: with q_i = (u_i - u_b) / (b - r_i)
    at distances h, 2h, 3h, the quadratic extrapolant to the boundary is
    3 q_1 - 3 q_2 + q_3.
    """
    profile = (report_or_profile.profile
               if isinstance(report_or_profile, SolveReport) else report_or_profile)
    r, u = profile.r, profile.u
    if r.size < 5:
        raise InvalidArgumentError("boundary slope needs at least 5 grid nodes")
    b, ub = r[-1], u[-1]
    q = [(u[-1 - i] - ub) / (b - r[-1 - i]) for i in (1, 2, 3)]
    return float(3 * q[0] - 3 * q[1] + q[2])


def comparison_check(u: RadialProfile, v: RadialProfile, direction: str = "le") -> bool:
    """Pointwise ordering u <= v (or >=) with tolerance h^2."""
    if u.r.shape != v.r.shape or not np.array_equal(u.r, v.r):
        raise GridMismatchError("profiles live on different grids")
    tol = u.h**2
    if direction == "le":
        return bool(np.all(u.u <= v.u + tol))
    if direction == "ge":
        return bool(np.all(u.u >= v.u - tol))
    raise InvalidArgumentError(f"direction must be 'le' or 'ge', got {direction!r}")


def barrier_slope_bound(delta: float, m: float, r_geom: float = math.inf):
    """Upper bound for the boundary derivative from the explicit barrier.

    Over a Euclidean background the barrier eigenvalues are 2/R^2, so the
    supersolution property forces R <= 2; r_geom may shrink R further.
    Returns (R, v_r at the inner barrier sphere) = (R, 2*sqrt(1+delta)/R).
    """
    if not 0 < delta < m:
        raise InvalidArgumentError(f"need 0 < delta < m, got delta={delta}, m={m}")
    R = min(2.0, r_geom)
    return R, 2.0 * math.sqrt(1.0 + delta) / R


def initial_profile(spec: ProblemSpec) -> RadialProfile:
    """Admissible starting profile for the tau = 0 problem.

    Ball: the hyperbolic model scaled to the domain, shifted to the boundary
    datum (all eigenvalues positive).  Annulus: boundary-interpolating line
    plus a concave bump, with the bump size scanned until every node has
    positive trace.
    """
    r = spec.radii()
    inner_delta, outer_delta = spec.boundary_deltas()
    if isinstance(spec.domain, Ball):
        b = spec.domain.radius
        u = (b**2 - r**2) / (2.0 * b) + outer_delta
        return RadialProfile(r=r, u=u)
    a, b = spec.domain.inner, spec.domain.outer
    base = inner_delta + (outer_delta - inner_delta) * (r - a) / (b - a)
    cone0 = replace(spec.cone, tau=0.0)
    psi = spec.rhs_values(r)
    for c in [2.0**j for j in range(-2, 12)]:
        u = base + c * (r - a) * (b - r)
        profile = RadialProfile(r=r, u=u)
        _, margins, _ = _evaluate(u, spec, r, psi, cone0)
        if np.all(margins > MARGIN_FLOOR):
            return profile
    raise InadmissibleIterateError("could not construct an admissible annulus start")


def _make_report(u, spec, r, psi, cone, F, margins, iters, steps, converged):
    du = np.gradient(u, r)
    profile = RadialProfile(r=r, u=np.maximum(u, 0.0))
    m = r.size
    res_nodes = np.where(np.isnan(F), np.inf, np.abs(F))
    margin_full = np.zeros(m)
    margin_full[_pde_rows(spec)] = margins
    try:
        slope = boundary_slope(profile)
    except InvalidArgumentError:
        slope = float("nan")
    return SolveReport(
        profile=profile,
        residual_sup=float(np.max(res_nodes)),
        admissibility_margin_min=float(np.min(margins)),
        boundary_slope=slope,
        c0_bounds=(float(u.min()), float(u.max())),
        grad_sup=float(np.max(np.abs(du))),
        newton_iterations=iters,
        continuation_steps=steps,
        converged=converged,
        tau=spec.tau,
        delta=spec.delta,
        residual_nodes=np.abs(F),
        margin_nodes=margin_full,
    )


def newton_solve(init: RadialProfile, spec: ProblemSpec,
                 opts: NewtonOptions | None = None,
                 continuation_steps: int = 0) -> SolveReport:
    """Damped Newton iteration on the discrete system.

    The line search halves the step until the iterate is positive, fully
    admissible (margin above the floor) and the residual decreases.  The
    report has converged = False on max-iterations or line-search failure.
    """
    opts = opts or NewtonOptions()
    if spec.tau >= 1.0:
        raise InvalidArgumentError("the solver requires tau < 1 (ellipticity degenerates at 1)")
    r = _problem_grid(init, spec)
    psi = spec.rhs_values(r)
    cone = spec.solve_cone()

    u = init.u.copy()
    F, margins, state = _evaluate(u, spec, r, psi, cone)
    if not np.all(margins > opts.margin_floor):
        worst = _worst_node(spec, margins)
        raise InadmissibleIterateError(
            f"initial profile inadmissible (worst node {worst}, "
            f"margin {float(margins.min()):.3e})",
            worst_node=worst, margin=float(margins.min()))

    res = float(np.max(np.abs(F)))
    for it in range(1, opts.max_iterations + 1):
        if res <= opts.tol:
            return _make_report(u, spec, r, psi, cone, F, margins,
                                it - 1, continuation_steps, True)
        ab = _analytic_jacobian(u, spec, r, cone, state)
        step = solve_banded((1, 1), ab, -F)

        t = 1.0
        accepted = False
        halvings = 0
        while t >= MIN_LINESEARCH_STEP and halvings <= opts.max_halvings:
            u_try = u + t * step
            interior_ok = np.all(u_try[1:-1] > 0.0) and u_try[0] > 0.0 and u_try[-1] > 0.0
            if interior_ok:
                F_try, m_try, s_try = _evaluate(u_try, spec, r, psi, cone)
                if (np.all(m_try > opts.margin_floor)
                        and float(np.max(np.abs(F_try))) < res):
                    u, F, margins, state = u_try, F_try, m_try, s_try
                    res = float(np.max(np.abs(F)))
                    accepted = True
                    break
            t *= 0.5
            halvings += 1
        if not accepted:
            return _make_report(u, spec, r, psi, cone, F, margins,
                                it, continuation_steps, False)
    return _make_report(u, spec, r, psi, cone, F, margins,
                        opts.max_iterations, continuation_steps, res <= opts.tol)


def continuation_tau(spec: ProblemSpec, tau_schedule=None,
                     opts: NewtonOptions | None = None) -> SolveReport:
    """Continuation in tau from the semilinear start to spec.tau.

    Solves at tau = 0 first, then advances by TAU_STEP (or the supplied
    schedule), reusing each solution as the next initial guess and halving
    the step on Newton failure.  Stalls below MIN_TAU_STEP raise.
    """
    if spec.tau >= 1.0:
        raise InvalidArgumentError("continuation target tau must be < 1")
    opts = opts or NewtonOptions()
    target = spec.tau

    spec0 = replace(spec, tau=0.0)
    report = newton_solve(initial_profile(spec0), spec0, opts)
    if not report.converged:
        raise ContinuationStallError("the tau = 0 start problem did not converge")
    steps = 0
    if target == 0.0:
        return replace(report, continuation_steps=0)

    if tau_schedule is None:
        tau_schedule = list(np.arange(TAU_STEP, target, TAU_STEP)) + [target]
    tau_schedule = [t for t in tau_schedule if 0.0 < t <= target]

    current = 0.0
    pending = list(tau_schedule)
    while pending:
        t_next = pending[0]
        spec_t = replace(spec, tau=t_next)
        try:
            trial = newton_solve(report.profile, spec_t, opts)
        except InadmissibleIterateError:
            trial = None
        if trial is not None and trial.converged:
            report = trial
            current = t_next
            pending.pop(0)
            steps += 1
        else:
            if t_next - current < MIN_TAU_STEP:
                raise ContinuationStallError(
                    f"tau continuation stalled at tau = {current:.6f}")
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


def default_delta_schedule(start=DELTA_START, end=DELTA_END, ratio=DELTA_RATIO):
    """Geometric schedule from start down to (exactly) end."""
    out = []
    d = start
    while d > end * (1 + 1e-12):
        out.append(d)
        d *= ratio
    out.append(end)
    return out


def _blend_boundary(profile: RadialProfile, spec_next: ProblemSpec) -> RadialProfile:
    """Warm start: shift the previous solution smoothly onto the new boundary data."""
    r = profile.r
    inner_new, outer_new = spec_next.boundary_deltas()
    u = profile.u.copy()
    if isinstance(spec_next.domain, Ball):
        shift = outer_new - u[-1]
        u = u + shift * (r / r[-1])**2
    else:
        a, b = r[0], r[-1]
        w = (r - a) / (b - a)
        u = u + (inner_new - u[0]) * (1 - w) + (outer_new - u[-1]) * w
    return RadialProfile(r=r, u=u)


def continuation_delta(spec: ProblemSpec, delta_schedule=None,
                       opts: NewtonOptions | None = None,
                       interior_fraction: float = 0.5) -> DeltaContinuationResult:
    """Sweep the boundary datum down a strictly decreasing schedule.

    The first leg runs the full tau continuation; later legs warm-start from
    the previous solution (falling back to a fresh tau continuation if the
    warm start fails).  Records pointwise monotonicity violations beyond h^2
    and the successive interior sup-differences (stabilization diagnostic).
    """
    opts = opts or NewtonOptions()
    if delta_schedule is None:
        delta_schedule = default_delta_schedule()
    delta_schedule = list(delta_schedule)
    if any(d2 >= d1 for d1, d2 in zip(delta_schedule, delta_schedule[1:])) or \
            any(d <= 0 for d in delta_schedule):
        raise InvalidArgumentError("delta schedule must be strictly decreasing and positive")

    result = DeltaContinuationResult(deltas=[], reports=[])
    prev_report = None
    r = spec.radii()
    half = r[0] + interior_fraction * (r[-1] - r[0])
    interior = r <= half
    tol = (r[1] - r[0])**2

    for d in delta_schedule:
        spec_d = replace(spec, delta=d)
        report = None
        if prev_report is not None:
            try:
                warm = _blend_boundary(prev_report.profile, spec_d)
                report = newton_solve(warm, spec_d, opts)
            except (InadmissibleIterateError, InvalidArgumentError):
                report = None
        if report is None or not report.converged:
            try:
                report = continuation_tau(spec_d, opts=opts)
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
