"""Schouten-tensor spectra of exactly computable conformal metrics.

For a radial conformal factor v = v(r) over a Euclidean background,
g_v = v^-2 * delta, the eigenvalues of -g_v^{-1} A_{g_v} split into one
radial value and n-1 equal tangential values.  Writing

    lam = (v_r / (r v)) * (1 - r v_r / (2 v)),   chi = v_rr / v - v_r / (r v),

the tangential eigenvalue is -lam*v^2 and the radial one is -(lam+chi)*v^2,
which simplify to the polynomial forms used below:

    tangential = v_r^2 / 2 - v * v_r / r,
    radial     = v_r^2 / 2 - v * v_rr.

At r = 0 (even profiles on a ball) v_r / r -> v_rr and both eigenvalues
coincide at -v * v_rr.  radial_schouten_spectrum builds every pair, for v
finite and >= 0; BackgroundData checks the input of the certified bound.
"""

from dataclasses import dataclass

import numpy as np

from .cones import _check_form, _check_real, _is_int, _real_array
from .errors import CriticalPointError, InvalidArgumentError, InvalidProfileError


def _radial_stencil(u, r):
    """Second-order discrete (u_r, u_rr) on the uniform grid r.

    Central differences at interior nodes, one-sided second-order stencils
    at the ends; a grid starting at r = 0 is a ball centre and uses the even
    extension u(-h) = u(h).  The interior rows are written through out=, in
    the operation order of (u[2:] - u[:-2]) / (2h) and
    (u[2:] - 2 u[1:-1] + u[:-2]) / h^2.
    """
    h = r[1] - r[0]
    du = np.empty_like(u)
    d2u = np.empty_like(u)
    slope, curv = du[1:-1], d2u[1:-1]
    np.subtract(u[2:], u[:-2], out=slope)
    slope /= 2 * h
    np.multiply(u[1:-1], 2, out=curv)
    np.subtract(u[2:], curv, out=curv)
    curv += u[:-2]
    curv /= h**2
    if r[0] == 0.0:
        du[0] = 0.0
        d2u[0] = 2.0 * (u[1] - u[0]) / h**2
    else:
        du[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * h)
        d2u[0] = (2 * u[0] - 5 * u[1] + 4 * u[2] - u[3]) / h**2
    du[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * h)
    d2u[-1] = (2 * u[-1] - 5 * u[-2] + 4 * u[-3] - u[-4]) / h**2
    return du, d2u


def _spread(x, shape: tuple) -> np.ndarray:
    """x as an array of the given broadcast shape, a view of x; x itself
    where it has that shape already (np.broadcast_to costs microseconds)."""
    x = np.asarray(x)
    return x if x.shape == shape else np.broadcast_to(x, shape)


def _eigenpair(v, v_r, v_rr, r):
    """(radial, tangential) eigenvalues in polynomial form, unchecked, as
    one array of shape (2,) + the inputs' broadcast shape.

    r = 0 entries use the even-profile centre rule v_r / r -> v_rr, as
    does any r that is not > 0 (this path checks no radius).  Zero v is
    allowed: the polynomial forms extend continuously to it.  The buffer
    is filled in the operation order of half_slope_sq - v * v_rr and
    half_slope_sq - v * slope_over_r, half_slope_sq = 0.5 * v_r**2.  With
    every r > 0 the division takes no mask; else the centre rule
    overwrites the quotients where r is not > 0, by index: a ball's one
    centre row takes no masked copy over every row.
    """
    pair = np.empty((2,) + np.broadcast(v, v_r, v_rr, r).shape)
    radial, tangential = pair[0, ...], pair[1, ...]
    half_slope_sq = np.square(v_r)
    half_slope_sq *= 0.5
    np.multiply(v, v_rr, out=radial)
    np.subtract(half_slope_sq, radial, out=radial)
    off_centre = np.greater(r, 0)
    if off_centre.all():
        np.divide(v_r, r, out=tangential)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(v_r, r, out=tangential)
        if tangential.ndim:
            centre = np.nonzero(_spread(~off_centre, tangential.shape))
            tangential[centre] = _spread(v_rr, tangential.shape)[centre]
        else:
            tangential[()] = v_rr
    tangential *= v
    np.subtract(half_slope_sq, tangential, out=tangential)
    return pair


@dataclass(frozen=True)
class RadialProfile:
    """A conformal factor sampled on a uniform radial grid.

    The grid spans [0, b] for a ball (first node at r = 0, even profile) or
    [a, b] for an annulus, with finite radii.  Values must be finite and
    positive on the open domain, which holds a ball's centre; boundary
    values may vanish (zero Dirichlet data).  NaN is refused everywhere.
    """

    r: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        r = _real_array(self.r, "r")
        u = _real_array(self.u, "u")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "u", u)
        _check_shape(r, u)
        # Ends first, by comparisons.  Then order and spacing from the
        # extremes of the steps (fl(x - h) is monotone in x, so they decide
        # every node); out of order, an inf - inf or overflowing step is a
        # silenced NaN or inf that fails the order test.
        if not (r[0] >= 0 and r[-1] < np.inf):
            raise InvalidArgumentError("grid radii must be finite and nonnegative")
        with np.errstate(over="ignore", invalid="ignore"):
            dr = np.subtract(r[1:], r[:-1])
        lo = dr.min()
        if not lo > 0:
            raise InvalidArgumentError("grid radii must be strictly increasing")
        h, tol = dr[0], 1e-13 * r[-1] + 1e-8 * dr[0]
        if not (dr.max() - h <= tol and h - lo <= tol):
            raise InvalidArgumentError("grid spacing must be uniform")
        _check_values(r, u)

    @classmethod
    def _on_grid(cls, r: np.ndarray, u) -> "RadialProfile":
        """The profile of u on r, a grid already checked (the solver's own,
        see solver._grid): only u is checked, with the errors that
        RadialProfile(r=r, u=u) raises for it."""
        u = _real_array(u, "u")
        _check_shape(r, u)
        _check_values(r, u)
        profile = object.__new__(cls)
        object.__setattr__(profile, "r", r)
        object.__setattr__(profile, "u", u)
        return profile

    @property
    def h(self) -> float:
        return float(self.r[1] - self.r[0])


def _check_shape(r: np.ndarray, u: np.ndarray):
    if r.ndim != 1 or r.shape != u.shape or r.size < 4:
        raise InvalidArgumentError("profile needs matching 1-d grids with >= 4 nodes")


def _check_values(r: np.ndarray, u: np.ndarray):
    """u finite and positive on the open domain, a ball's centre included;
    the boundary values may vanish."""
    ends = u[-1] >= 0 and (u[0] > 0 if r[0] == 0.0 else u[0] >= 0)
    if not (ends and u[1:-1].min() > 0 and u.max() < np.inf):
        raise InvalidProfileError(
            "conformal factor must be finite and positive on the open domain")


def radial_schouten_spectrum(v, v_r, v_rr, r) -> np.ndarray:
    """Eigenvalues of -g_v^{-1} A_{g_v} for g_v = v^-2*delta, as the pairs
    (radial, tangential) along a new last axis, like spectrum_field.

    Inputs broadcast; r = 0 entries are evaluated with the even-profile center
    rule (v_r / r -> v_rr).  r = inf gives the half-space factor v(x_n), whose
    pair is the limit (v'^2/2 - v v'', v'^2/2) with v'' along the normal.
    v must be finite and >= 0, as at a RadialProfile's boundary ends, and r
    must be >= 0: a negative or NaN radius is refused by name.
    """
    v = _real_array(v, "v")
    v_r = _real_array(v_r, "v_r")
    v_rr = _real_array(v_rr, "v_rr")
    r = _real_array(r, "r")
    if not ((v >= 0) & (v < np.inf)).all():
        raise InvalidProfileError("conformal factor must be finite and >= 0")
    if not (r >= 0).all():
        bad = float(r[~(r >= 0)].flat[0])
        raise InvalidArgumentError(
            f"radius r must be >= 0 (inf allowed, NaN refused), got {bad!r}")
    return np.stack(_eigenpair(v, v_r, v_rr, r), axis=-1)


def spectrum_field(profile: RadialProfile) -> np.ndarray:
    """Discrete Schouten spectra of a radial profile: per-node pairs
    (radial, tangential), shape (nodes, 2), each standing for the spectrum
    (radial, tangential, ..., tangential) in any dimension n.

    Derivatives come from the profile's second-order stencils, so for profiles
    with smooth closed forms the eigenvalues are O(h^2)-accurate.
    """
    return radial_schouten_spectrum(profile.u, *_radial_stencil(profile.u, profile.r),
                                    profile.r)


def ricci_spectrum_from_schouten(schouten: np.ndarray) -> np.ndarray:
    """lam(-g^{-1} Ric) from a full spectrum lam(-g^{-1} A) of n entries:
    (n-2)*lam + sigma_1(lam)*e.

    Inverts the trace adjustment A = (Ric - R g / (2(n-1))) / (n-2) at the
    eigenvalue level.  sigma_1 sums each row C-ordered, as the cone pass
    does, so a spectrum's bits do not depend on its batch's layout.
    """
    lam = _real_array(schouten, "schouten")
    _check_form(lam, None)
    lam = np.ascontiguousarray(lam)
    return (lam.shape[-1] - 2) * lam + lam.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class BackgroundData:
    """Per-node auxiliary data plus global background bounds.

    v >= 1 everywhere, |dv|^2 > 0 everywhere (no critical points); C0 >= 1
    bounds the metric equivalence and Christoffel symbols, C2 the Schouten
    tensor from above, C3 the Hessian of v.  All values must be finite.
    """

    v: np.ndarray
    dv_sq: np.ndarray
    C0: float = 1.0
    C2: float = 0.0
    C3: float = 0.0

    def __post_init__(self):
        v = _real_array(self.v, "v")
        dv_sq = _real_array(self.dv_sq, "dv_sq")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "dv_sq", dv_sq)
        if v.shape != dv_sq.shape or v.ndim != 1 or v.size == 0:
            raise InvalidArgumentError("v and dv_sq must be matching non-empty 1-d arrays")
        for name in ("C0", "C2", "C3"):
            _check_real(getattr(self, name), name)
        for name in ("v", "dv_sq", "C0", "C2", "C3"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidArgumentError(f"{name} must be finite")
        if np.any(v < 1.0):
            raise InvalidArgumentError("auxiliary function must satisfy v >= 1 everywhere")
        if np.any(dv_sq <= 0.0):
            raise CriticalPointError("auxiliary function has a critical point (|dv|^2 <= 0)")
        if self.C0 < 1.0 or self.C2 < 0.0 or self.C3 < 0.0:
            raise InvalidArgumentError("need C0 >= 1, C2 >= 0, C3 >= 0")
        if self.C0 > np.finfo(float).max / 4:
            raise InvalidArgumentError(
                f"C0 = {self.C0!r} is out of float range: 4*C0, a factor of q, "
                f"overflows")


def rescaled_metric_spectrum_bound(N, data: BackgroundData):
    """Certified lower bound for the spectrum of g^N = e^{2 e^{Nv}} g.

    The guaranteed bound is lam(-g^{-1} A_{g^N}) >= scale * (chi1, chi2, ..., chi2)
    with

        chi2  = 1 - t,    chi1 = -1 + 2 e^{-Nv} - t,    t = t2 + t3,
        t2    = 2*C0*C2 / (N^2 e^{2Nv} |dv|^2),   t3 = 2*C0*C3 / (N e^{Nv} |dv|^2),
        scale = N^2 e^{2Nv} |dv|^2 / (2*C0).

    Returns per node (t, e^{-Nv}, log(scale), q), where

        q = 2 t e^{Nv} = 4*C0*C3 / (N |dv|^2) + 4*C0*C2 e^{-Nv} / (N^2 |dv|^2)

    is the correction relative to e^{-Nv}, rounded up (t follows it, so the
    bound stays a lower bound).  The slack chi1 - (-chi2 + e^{-Nv}) equals
    e^{-Nv} (1 - q), so the bound is a valid certificate exactly where q < 1,
    which also gives chi2 > 1/2.  Nothing here forms e^{Nv}: t and e^{-Nv}
    underflow to 0 at large N*v, while q and log(scale) stay accurate.

    |dv|^2 is measured in the flat reference metric; the C0 in the scale
    converts it to a lower bound for the metric norm.

    N*v, q and log(scale) past the float range are inf, without a warning:
    a node whose q is inf cannot certify, as at any q >= 1, and its t is
    inf, or NaN where e^{-Nv} underflows to 0 as well.  Inside the range
    they have the bits of the plain formulas below.
    """
    _check_real(N, "N")
    if not 0 < N < np.inf:
        raise InvalidArgumentError(f"N must be positive and finite, got {N}")
    if not isinstance(data, BackgroundData):
        raise InvalidArgumentError(f"data must be a BackgroundData, got {type(data).__name__}")
    v, dv_sq, C0, C2, C3 = data.v, data.dv_sq, data.C0, data.C2, data.C3
    with np.errstate(over="ignore", invalid="ignore"):
        e_neg = np.exp(-N * v)
        # Rounded up by 2^-48, more than exp and four roundings lose when
        # N*v is exact (N a power of two, as on the scan), so q < 1 holds
        # exactly too.
        q = 4.0 * C0 * (C3 + C2 * e_neg / N) / (N * dv_sq) * (1.0 + 2.0**-48)
        log_scale = 2.0 * np.log(N) + 2.0 * N * v + np.log(dv_sq) - np.log(2.0 * C0)
        return 0.5 * q * e_neg, e_neg, log_scale, q


def _check_grid(grid, least: int = 3) -> int:
    """grid as a Python int, so that grid + 1 cannot wrap around in a NumPy
    integer type, after checking that it is an integer >= least whose
    grid + 1 radii numpy can create (8 bytes each, at most the largest intp)."""
    if not (_is_int(grid) and grid >= least):
        raise InvalidArgumentError(f"grid must be an integer >= {least}, got {grid!r}")
    grid = int(grid)
    if (grid + 1) * 8 > np.iinfo(np.intp).max:
        raise InvalidArgumentError(
            f"grid {grid} is too large: numpy cannot create its {grid + 1} radii")
    return grid


def _square(x):
    """x^2 in the float type the builders compute it in (float64 unless x
    is a NumPy float), inf where it overflows, without a warning."""
    ftype = type(x) if isinstance(x, np.floating) else np.float64
    with np.errstate(all="ignore"):
        return np.square(ftype(min(x, float(np.finfo(ftype).max))))


def hyperbolic_ball_profile(grid: int) -> RadialProfile:
    """u(r) = (1 - r^2) / 2 on the unit ball: the Poincare-ball conformal
    factor, with all Schouten eigenvalues equal to 1/2."""
    grid = _check_grid(grid)
    r = np.linspace(0.0, 1.0, grid + 1)
    return RadialProfile(r=r, u=(1.0 - r**2) / 2.0)


def barrier_profile(R: float, delta: float, m: float, grid: int) -> RadialProfile:
    """v(r) = (r^2 - R^2)/R^2 on the annulus [R*sqrt(1+delta), R*sqrt(1+m)].

    Over a Euclidean background every eigenvalue equals 2/R^2 exactly, so the
    profile is a supersolution whenever 2/R^2 >= 1/2.  R^2 and the outer
    radius squared, R^2 (1 + m), must lie in the normal float range; an R
    or m that takes them out is refused by name before the profile is built.
    """
    for name, value in (("R", R), ("delta", delta), ("m", m)):
        _check_real(value, name)
    if not 0 < R < np.inf:
        raise InvalidArgumentError(f"R must be positive and finite, got {R}")
    if not 0 < delta < m < np.inf:
        raise InvalidArgumentError(
            f"need 0 < delta < m < inf, got delta={delta}, m={m}")
    grid = _check_grid(grid)
    R_sq = _square(R)
    if not np.finfo(R_sq.dtype).tiny <= R_sq < np.inf:
        raise InvalidArgumentError(
            f"R = {R!r} is out of float range: R^2 "
            f"{'overflows' if R_sq == np.inf else 'underflows'} ({R_sq:.3g})")
    with np.errstate(all="ignore"):
        outer = R * np.sqrt(1.0 + m)
    if _square(outer) == np.inf:
        raise InvalidArgumentError(
            f"R = {R!r} and m = {m!r} are out of float range: the outer "
            f"radius squared R^2 (1 + m) overflows")
    r = np.linspace(R * np.sqrt(1.0 + delta), R * np.sqrt(1.0 + m), grid + 1)
    if not (r[1:] > r[:-1]).all():
        raise InvalidArgumentError(
            f"m = {m!r} is too close to delta = {delta!r} for grid {grid}: the "
            f"radii R*sqrt(1 + delta) = {r[0]!r} to R*sqrt(1 + m) = {r[-1]!r} "
            f"do not give {grid + 1} strictly increasing floats")
    return RadialProfile(r=r, u=(r**2 - R**2) / R**2)
