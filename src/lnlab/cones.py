"""Algebra of Garding cones and their trace deformations.

The supported operator family is f(lam) = c_{n,k} * sigma_{k}(lam)^(1/k) on the
cone Gamma_k^+ = {sigma_j(lam) > 0 for j <= k}, together with the one-parameter
deformation

    lam^tau = tau*lam + (1-tau)*sigma_1(lam)*e,
    f^tau(lam) = f(lam^tau) / (tau + n*(1-tau)),

normalised so f^tau(e) = 1 for every tau in [0, 1].

Shape contract.  Spectra are arrays broadcast over their leading axes, in one
of two forms:

- full: shape (..., n), one eigenvalue per entry;
- pair: shape (..., 2), a row (a, b) standing for the n-vector (a, b, ..., b).

The cone functions (cone_margin, f_eval, grad_f) take either form
and tell them apart by the last axis: a cone has n >= 3, so a last axis of 2
is never a full spectrum.  sigma_all and tau_deform cannot know n from a pair
and take it as an argument.  Every spectrum lnlab builds has the form
(a, b, ..., b), and the solver passes its iterates as pairs: sigma_j then has
the closed form (C(n-1,j)*b + C(n-1,j-1)*a) * b^(j-1), and the
tau-deformation keeps the form.  The full form is the general path and the
oracle for the pair one.

f and the cone Gamma_k read sigma_j for j <= k only, so sigma_all returns the
orders up to the k it is asked for, with the same bits for each of them
whatever k is; the cone functions ask for cone.k.
Every cone function (cone_margin, f_eval, grad_f and the solver's
_f_and_grad_unchecked) is one call into one driver, _by_blocks, which makes
one _deformed_sigma pass per row block, whose output private readers turn
into the margin, f and the gradient.  For pairs the pass is one tau_deform
and one sigma_all call.  For full spectra it sorts each row once (an
argsort for the gradient readers, which need the permutation), deforms
the sorted rows, which the deformation keeps sorted, and runs the product
recurrence on them as they are: the order contract of the full pass is
rows sorted once, so a row's two ends hold its extremes.  Public
tau_deform and sigma_all sort for themselves, through the same
deformation and recurrence.  Every input takes one path (_by_blocks): its
leading axes are flattened to rows (spectra), full rows C-ordered, so one
spectrum is a one-row batch, passed over in blocks of _BLOCK_ROWS rows.
The readers work row by row, and a trace sums a C-ordered row, in the
pass and in tau_deform, so a row's numbers do not depend on its batch.
f_eval and grad_f read the margin of that same pass too, and _inside
checks it after the last block.
The sigma kernels of both forms, and the pair path's deformation and
gradient, write their columns into one preallocated (columns, rows) buffer
and return it viewed as (rows, columns).  The full path's gradient runs the
same column recurrence over the sorted rows, skipping one position at a
time, and puts the results back in entry order before it sums them.
"""

import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .errors import ConeDomainError, InvalidArgumentError


_FLOAT64 = np.dtype(np.float64)


def _check_real(value, name: str):
    """Raise InvalidArgumentError naming the field unless value is one real
    number.  A bool is refused although Python counts it as an int."""
    if type(value) is float:
        return
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise InvalidArgumentError(f"{name} must be a real number, got {value!r}")


def _real_array(value, name: str) -> np.ndarray:
    """value as a float64 array, float64 input without a copy.  Integer and
    float dtypes convert; bool, string and every other dtype raise
    InvalidArgumentError naming the argument."""
    if type(value) is np.ndarray and value.dtype is _FLOAT64:
        return value
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise InvalidArgumentError(
            f"{name} must be an array of real numbers, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def _is_int(value) -> bool:
    """Whether value is a Python or NumPy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ConeSpec:
    """A Garding cone Gamma_k^+ in dimension n, optionally tau-deformed.

    tau = 1 is the undeformed cone; tau = 0 collapses everything onto the
    trace, so membership degenerates to sigma_1 > 0.
    """

    n: int
    k: int
    tau: float = 1.0

    def __post_init__(self):
        if not (_is_int(self.n) and self.n >= 3):
            raise InvalidArgumentError(f"dimension n must be an integer >= 3, got {self.n}")
        if not (_is_int(self.k) and 1 <= self.k <= self.n):
            raise InvalidArgumentError(f"order k must satisfy 1 <= k <= n, got {self.k}")
        _check_real(self.tau, "tau")
        if not (0.0 <= self.tau <= 1.0):
            raise InvalidArgumentError(f"tau must lie in [0, 1], got {self.tau}")
        # The sigma and margin arithmetic takes C(n, j), j <= k, as floats.
        j = min(self.k, self.n // 2)
        largest = comb(self.n, j)
        if largest > sys.float_info.max:
            raise InvalidArgumentError(
                f"order k = {self.k} is too large for n = {self.n}: C({self.n}, {j})"
                f" >= 2^{largest.bit_length() - 1} overflows a float")

    @property
    def normalization(self) -> float:
        """c_{n,k} = binom(n,k)^(-1/k), so that f(e) = 1."""
        return comb(self.n, self.k) ** (-1.0 / self.k)

    @property
    def deformation_scale(self) -> float:
        """tau + n*(1-tau), the trace factor picked up by e under deformation."""
        return self.tau + self.n * (1.0 - self.tau)


# Above this many spectra (rows of the flattened leading axes) the cone
# functions make their pass block by block, so that a block's temporaries,
# 128 KiB per column, stay in a 4 MiB L2 cache.  Freed, they stay in the
# heap, as a whole pass's would under the solver's heap policy (see
# solver._heap_policy).
_BLOCK_ROWS = 16384


def sigma_all(lam: np.ndarray, n: int | None, k: int) -> np.ndarray:
    """Elementary symmetric polynomials of lam, up to order k.

    Returns an array of shape lam.shape[:-1] + (k+1,) whose entry [..., j]
    is sigma_j(lam), with sigma_0 = 1.  A full spectrum (n = None) uses the
    stable product recurrence (coefficients of prod_i (t + lam_i)) rather
    than subset enumeration, on entries sorted first so permutations give
    bit-identical results.  A pair (a, b) standing for (a, b, ..., b) of
    length n uses the closed form (C(n-1,j)*b + C(n-1,j-1)*a) * b^(j-1).
    Column j depends on columns < j only, so every order up to k has the
    same bits whatever k is.
    """
    lam = _real_array(lam, "lam")
    _check_form(lam, n)
    length = lam.shape[-1] if n is None else n
    if not (_is_int(k) and 0 <= k <= length):
        raise InvalidArgumentError(
            f"order k must be an integer in [0, {length}], got {k!r}")
    if n is None:
        return _sigma_sorted(np.sort(lam, axis=-1), k)
    a, b = lam[..., 0], lam[..., 1]
    e = np.empty((k + 1,) + lam.shape[:-1])
    e[0, ...] = 1.0
    b_pow = b                             # b^(j-1) from j = 2 on
    term = np.empty_like(e[0, ...])
    for j in range(1, k + 1):
        row = e[j, ...]
        np.multiply(b, comb(n - 1, j), out=row)
        if j == 1:
            row += a                      # C(n-1, 0) = 1 and b^0 = 1
            continue
        row += np.multiply(a, comb(n - 1, j - 1), out=term)
        row *= b_pow
        if j < k:
            b_pow = b_pow * b
    return _last_axis_outermost(e)


def _sigma_sorted(lam: np.ndarray, k: int) -> np.ndarray:
    """sigma_0..sigma_k of full spectra whose rows are sorted: the product
    recurrence over their entries in that order, on one (k+1, rows)
    buffer whose row j holds sigma_j of every spectrum contiguously
    (_product_step), returned viewed as (rows, k+1).  Orders above k are
    never formed."""
    e = np.zeros((k + 1,) + lam.shape[:-1])
    e[0, ...] = 1.0
    term = np.empty_like(e[1:])
    for i, x in enumerate(np.moveaxis(lam, -1, 0)):
        _product_step(e, x, min(i + 1, k), term)
    return _last_axis_outermost(e)


def _product_step(e: np.ndarray, x: np.ndarray, top: int, term: np.ndarray):
    """Multiply the polynomials in the (orders, rows) buffer e by (t + x):
    e_j += x * e_{j-1} for 1 <= j <= top, each product formed from the old
    e_{j-1} in the scratch rows of term before any e_j changes.  The same
    operations, and so the same bits, as e[..., 1:top+1] += x[..., None] *
    e[..., 0:top] on a (rows, orders) array, over whole rows of e."""
    np.multiply(x, e[:top], out=term[:top])
    e[1:top + 1] += term[:top]


def _sigma_drop_one(mu: np.ndarray, m: int, order: np.ndarray) -> np.ndarray:
    """sigma_m of a full spectrum with entry i deleted, for every i, in entry
    order, with the bits of _sigma_sorted on the spectrum without entry i.
    mu holds the spectrum's rows sorted, and order the argsort that sorted
    them: mu[..., s] is entry order[..., s].

    The spectrum without entry i, sorted, is mu without the position s
    that holds it: the product recurrence runs over the sorted columns,
    skipping each s in turn, and its values go back to the entries' own
    order.  The state after the columns before s is the same for every
    later s, so it is kept and extended instead of recomputed.
    """
    columns = np.moveaxis(mu, -1, 0)
    n = len(columns)
    head = np.zeros((m + 1,) + mu.shape[:-1])    # columns 0..s-1
    head[0, ...] = 1.0
    e, term = np.empty_like(head), np.empty_like(head[1:])
    dropped = np.empty((n,) + mu.shape[:-1])
    for s in range(n):
        np.copyto(e, head)
        for t in range(s + 1, n):                # position t-1 without s
            _product_step(e, columns[t], min(t, m), term)
        dropped[s, ...] = e[m, ...]
        if s + 1 < n:
            _product_step(head, columns[s], min(s + 1, m), term)
    drop = np.empty(mu.shape)
    np.put_along_axis(drop, order, _last_axis_outermost(dropped), axis=-1)
    return drop


def tau_deform(lam: np.ndarray, tau: float, n: int | None = None) -> np.ndarray:
    """lam^tau = tau*lam + (1-tau)*sigma_1(lam)*e.

    With n given, lam is a pair (a, b) standing for (a, b, ..., b) of length
    n, and the result is the deformed pair.
    """
    _check_real(tau, "tau")
    if not 0.0 <= tau <= 1.0:
        raise InvalidArgumentError(f"tau must lie in [0, 1], got {tau}")
    lam = _real_array(lam, "lam")
    _check_form(lam, n)
    if n is not None:
        a, b = lam[..., 0], lam[..., 1]
        out = np.empty((2,) + lam.shape[:-1])
        shift = np.multiply(b, n - 1)
        shift += a
        shift *= 1.0 - tau
        for i, x in enumerate((a, b)):
            column = out[i, ...]
            np.multiply(x, tau, out=column)
            column += shift
        return _last_axis_outermost(out)
    lam = np.ascontiguousarray(lam)
    return _deform_full(lam, tau, np.sort(lam, axis=-1))


def _deform_full(lam: np.ndarray, tau: float, rows: np.ndarray,
                 out=None) -> np.ndarray:
    """tau*lam + (1-tau)*sigma_1(lam)*e for full spectra lam, whose rows
    sorted are given C-ordered as rows, written into out if given (lam
    itself may be rows and out).  sigma_1 sums the sorted rows, so
    permutations of lam give bit-identical traces."""
    s1 = rows.sum(axis=-1, keepdims=True)
    mu = np.multiply(lam, tau, out=out)
    mu += (1.0 - tau) * s1
    return mu


def _last_axis_outermost(columns: np.ndarray) -> np.ndarray:
    """View of a (c, ...) array as (..., c).

    Column buffers keep each column contiguous: numpy loops over a short
    last axis (or broadcast against one) run row by row, many times slower
    than the same work over whole columns.
    """
    return columns.transpose((*range(1, columns.ndim), 0))


def _check_form(lam: np.ndarray, n: int | None):
    """Refuse a spectrum whose shape does not fit its form: a pair (n given)
    has a last axis of 2 and a length n that is a positive integer, a full
    spectrum (n None) at least one axis."""
    if n is not None:
        if not (_is_int(n) and n >= 1):
            raise InvalidArgumentError(
                f"pair length n must be a positive integer, got {n!r}")
        if lam.shape[-1:] != (2,):
            raise InvalidArgumentError(
                f"a pair spectrum has a last axis of 2, got shape {lam.shape}")
    elif not lam.ndim:
        raise InvalidArgumentError(
            f"a full spectrum has at least one axis, got shape {lam.shape}")


def _pair_length(cone: ConeSpec, lam: np.ndarray) -> int | None:
    """cone.n if lam is in pair form, None if it is a full spectrum."""
    if lam.shape[-1:] == (2,):
        return cone.n
    if lam.shape[-1:] != (cone.n,):
        raise InvalidArgumentError(
            f"spectrum has {lam.shape[-1] if lam.ndim else 0} entries, cone "
            f"dimension is {cone.n} (or 2 for an (a, b, ..., b) pair)")
    return None


def _deformed_sigma(cone: ConeSpec, lam: np.ndarray, pair, argsort: bool):
    """The one deformation and sigma pass that every cone function reads:
    (mu, sig, pair, order) with mu = lam^tau, sig = sigma_0..sigma_k(mu),
    on (rows, 2) pairs (pair = cone.n) or C-ordered full rows (None).

    A pair goes through tau_deform and sigma_all.  A full spectrum's rows
    are sorted once, by np.sort, or with argsort by np.argsort, whose
    permutation comes back as order (None otherwise).  The deformation
    x -> fl(fl(tau*x) + (1-tau)*s1) never decreases, so it keeps them
    sorted: mu holds lam^tau with its rows in the order sigma_all would
    sort them into, and the recurrence runs on them as they are.  Only
    NaN can stand apart, and only at an end (0 * -inf at tau = 0 puts it
    first, where a sort would put it last); a NaN anywhere in a row makes
    the row's margin and every sigma_j, j >= 1, NaN.
    """
    if pair is not None:
        mu = tau_deform(lam, cone.tau, pair)
        return mu, sigma_all(mu, pair, cone.k), pair, None
    if argsort:
        order = np.argsort(lam, axis=-1)
        rows = np.take_along_axis(lam, order, axis=-1)
    else:
        order, rows = None, np.sort(lam, axis=-1)
    mu = _deform_full(rows, cone.tau, rows, out=rows)
    return mu, _sigma_sorted(mu, cone.k), None, order


def _margin(cone: ConeSpec, mu: np.ndarray, sig: np.ndarray,
            out=None) -> np.ndarray:
    """cone_margin from a _deformed_sigma pass, written into out if given."""
    # max|mu| over a row is the larger |mu| at its two ends: a pair's two
    # columns are its ends, and a full pass's rows are sorted, with any NaN
    # at an end (see _deformed_sigma).  Column-wise max and min: exact like
    # the axis reductions, and much cheaper than them on a short last axis.
    # The scale is built in place in one (rows,) column of its own, one
    # spectrum's too, so every row's powers take numpy's array path.
    # scale ** 1 would be a copy of scale.
    scale = np.abs(mu[..., 0], out=np.empty(mu.shape[:-1]))
    np.maximum(scale, np.abs(mu[..., -1]), out=scale)
    np.maximum(scale, 1.0, out=scale)
    # With out given, the last ufunc of the loop writes into it.
    for j in range(1, cone.k + 1):
        margin_j = np.divide(sig[..., j],
                             comb(cone.n, j) * (scale ** j if j > 1 else scale),
                             out=out if cone.k == 1 else None)
        margin = margin_j if j == 1 else np.minimum(margin, margin_j, out=out)
    return margin


def _f_undeformed(cone: ConeSpec, sig: np.ndarray, out=None) -> np.ndarray:
    """c_{n,k} * sigma_k^(1/k) from a _deformed_sigma pass, before the
    division by the deformation scale, written into out if given, else
    into a fresh (rows,) buffer.  x ** p takes the path of x **= p, and
    c * x is x * c."""
    fk = sig[..., cone.k]
    if cone.k > 1:                      # x ** 1.0 would be a copy of x
        fk = fk ** (1.0 / cone.k)
        if out is None:
            fk *= cone.normalization
            return fk
    return np.multiply(fk, cone.normalization, out=out)


def _f_and_grad(cone: ConeSpec, mu: np.ndarray, sig: np.ndarray, pair, order,
                f_out=None, g_out=None):
    """_f_and_grad_unchecked from a _deformed_sigma pass, whose sigma_k it
    consumes: the weight df / dsigma_k is formed in its place.  f and the
    gradient are written into f_out and g_out where given.

    Works in its output buffers and in sig's with in-place ufuncs, in the
    operation order (and so with the bits) of the plain expressions in
    the comments.
    """
    n, k = cone.n, cone.k
    s = cone.deformation_scale
    fk = _f_undeformed(cone, sig, f_out)
    weight = sig[..., k]                # df / dsigma_k = fk / (k * sigma_k)
    if k > 1:
        weight *= k
    np.divide(fk, weight, out=weight)
    fk /= s

    # sigma_{k-1} of mu with entry i deleted, computed from the deleted
    # entries themselves.  The downward recurrence sigma_j(mu) - mu_i *
    # sigma_{j-1}(mu \ i) loses a factor of about (mu_i / the rest)^(k-1) in
    # relative accuracy, which near the e1 ray is every digit.  Then the
    # chain rule through lam^tau: d mu_i / d lam_j = tau*delta_ij + (1-tau).
    if pair is None:
        grad_F = weight[..., None] * _sigma_drop_one(mu, k - 1, order)
        total = grad_F.sum(axis=-1, keepdims=True)
        return fk, np.divide(cone.tau * grad_F + (1.0 - cone.tau) * total, s, out=g_out)

    # A pair, column by column, each formed in its row of the output block
    # g.  Deleting a leaves b n-1 times; deleting a b leaves (a, b, ..., b)
    # of length n-1.  Both in the closed form of sigma_all.
    g = np.empty((2,) + fk.shape) if g_out is None else g_out.T
    grad_a, grad_b = g[0, ...], g[1, ...]
    if k == 1:
        # grad_a = grad_b = weight: one row, formed in grad_a's, while
        # grad_b holds the shift until it is a copy of it
        shift = np.multiply(weight, n - 1, out=grad_b)
        shift += weight
        shift *= 1.0 - cone.tau
        np.multiply(weight, cone.tau, out=grad_a)
        grad_a += shift
        grad_a /= s
        grad_b[...] = grad_a
        return fk, _last_axis_outermost(g)
    a, b = mu[..., 0], mu[..., 1]
    b_pow = b ** (k - 2) if k > 2 else None     # None standing for b^0 = 1
    # grad_b = weight * ((C(n-2,k-1) * b + C(n-2,k-2) * a) * b_pow), its
    # a term in grad_a's row until grad_a is formed; C(n-2,0) = 1
    np.multiply(b, comb(n - 2, k - 1), out=grad_b)
    grad_b += a if k == 2 else np.multiply(a, comb(n - 2, k - 2), out=grad_a)
    # grad_a = weight * (C(n-1,k-1) * b * b_pow)
    np.multiply(b, comb(n - 1, k - 1), out=grad_a)
    for grad in (grad_a, grad_b):
        if b_pow is not None:
            grad *= b_pow
        grad *= weight
    # shift = (1 - tau) * (grad_a + (n-1) * grad_b), in weight's place
    shift = np.multiply(grad_b, n - 1, out=weight)
    shift += grad_a
    shift *= 1.0 - cone.tau
    # g = (tau * grad + shift) / s, row by row
    for grad in (grad_a, grad_b):
        grad *= cone.tau
        grad += shift
        grad /= s
    return fk, _last_axis_outermost(g)


def _by_blocks(cone: ConeSpec, lam, read, argsort: bool = False) -> tuple:
    """read(mu, sig, pair, order, *out) on the _deformed_sigma pass of lam
    (with argsort passed on), the one driver of every cone function.

    Every lam takes one path: flattened to rows (spectra of its leading
    axes), a view for pairs, which keeps the solver's column layout, and
    C-ordered for full spectra, so one spectrum is a one-row batch.  The
    rows are passed over in blocks of _BLOCK_ROWS rows and a remainder.
    read returns a tuple of per-row results, in fresh buffers, or written
    into out, one destination per result, where out is given.  The first
    block's results are the outputs when it holds every row.  Otherwise
    outputs are allocated after it, (rows,) or a (rows, columns) view of a
    (columns, rows) buffer, and its results copied in; every later read
    gets its block of the outputs as out and writes straight into it, so
    at 1e5 rows (seven blocks) each result is copied for one block, not
    seven.  The outputs never live beside the first block's temporaries:
    preallocated, they made the tau step at grid 2e4 (one block and a
    remainder) peak at 15.9 grid arrays, not 14.6.  The outputs come back
    with lam's leading shape, [()] making one spectrum's numpy scalars.
    Every read is row by row, so a row has the same bits in every batch.
    """
    lam = _real_array(lam, "lam")
    pair = _pair_length(cone, lam)
    flat = lam.reshape(-1, lam.shape[-1])
    if pair is None:
        flat = np.ascontiguousarray(flat)
    rows = len(flat)
    outs = read(*_deformed_sigma(cone, flat[:_BLOCK_ROWS], pair, argsort))
    if rows > _BLOCK_ROWS:
        first = outs
        outs = tuple(_last_axis_outermost(np.empty(res.shape[1:] + (rows,)))
                     for res in first)
        for out, res in zip(outs, first):
            out[:_BLOCK_ROWS] = res
        for start in range(_BLOCK_ROWS, rows, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            read(*_deformed_sigma(cone, flat[block], pair, argsort),
                 *[out[block] for out in outs])
    if lam.ndim == 2:                   # already in lam's leading shape
        return outs
    return tuple(out.reshape(lam.shape[:-1] + out.shape[1:])[()] for out in outs)


def _inside(cone: ConeSpec, lam, read, argsort: bool = False):
    """read(mu, sig, pair, order, out=None) by _by_blocks, returned once every
    margin of the pass is checked positive; ConeDomainError with the worst
    margin otherwise.  Until then a point outside reads NaN or inf without
    a warning."""
    with np.errstate(divide="ignore", invalid="ignore"):
        margin, out = _by_blocks(cone, lam, lambda mu, sig, pair, order, *out: (
            _margin(cone, mu, sig, *out[:1]), read(mu, sig, pair, order, *out[1:])),
            argsort)
    if not np.all(margin > 0.0):
        worst = float(np.min(margin))
        raise ConeDomainError(
            f"spectrum outside Gamma (worst margin {worst:.3e})", margin=worst)
    return out


def cone_margin(cone: ConeSpec, lam: np.ndarray) -> np.ndarray | float:
    """Signed, scale-aware membership margin.

    min over j <= k of sigma_j(lam^tau) / (binom(n,j) * max(1, |lam^tau|_inf)^j);
    positive inside the cone, zero on the boundary, negative outside.  The
    normalization makes margins comparable across j.  lam may be a full
    spectrum or a pair (see the module docstring).
    """
    margin = _by_blocks(cone, lam, lambda mu, sig, pair, order, *out: (
        _margin(cone, mu, sig, *out),))[0]
    return margin if margin.ndim else float(margin)


def f_eval(cone: ConeSpec, lam: np.ndarray) -> np.ndarray | float:
    """f^tau(lam) = c_{n,k} * sigma_{k}(lam^tau)^(1/k) / (tau + n*(1-tau)).

    Degree-one homogeneous with f^tau(e) = 1.  lam may be a full spectrum or
    a pair.  Raises ConeDomainError if any point lies outside the cone.
    """
    fk = _inside(cone, lam, lambda mu, sig, pair, order, *out: _f_undeformed(
        cone, sig, *out))
    out = fk / cone.deformation_scale
    return out if np.ndim(out) else float(out)


def _f_and_grad_unchecked(cone: ConeSpec, lam: np.ndarray):
    """f^tau and its gradient, assuming sigma_{k}(lam^tau) > 0.

    Used by the solver on iterates already certified admissible.  The gradient
    combines d sigma_{k} / d mu_i = sigma_{k-1}(mu with entry i removed), the
    power 1/k, and the linear deformation map.  For a pair (a, b) the
    gradient is the pair (df/da, df/db_i): the derivative along the one a
    entry and along any one of the n-1 b entries.
    """
    return _by_blocks(cone, lam, lambda mu, sig, pair, order, *out: _f_and_grad(
        cone, mu, sig, pair, order, *out), argsort=True)


def grad_f(cone: ConeSpec, lam: np.ndarray) -> np.ndarray:
    """Gradient of f^tau at an interior lam; all components positive.

    For a pair (a, b) it is the pair (df/da, df/db_i), see
    _f_and_grad_unchecked.  Raises ConeDomainError where f_eval does.
    """
    return _inside(cone, lam, lambda mu, sig, pair, order, *out: _f_and_grad(
        cone, mu, sig, pair, order, None, *out)[1], argsort=True)


def _mu_plus_exact(cone: ConeSpec) -> Fraction:
    """mu+ of the cone in exact rational arithmetic on the float tau.

    (-mu, 1, ..., 1) deforms to the pair a' = (1-tau)(n-1) - mu,
    b' = tau + (1-tau)(n-1-mu).  With b' > 0, sigma_j of the pair is
    (C(n-1,j)*b' + C(n-1,j-1)*a') * b'^(j-1), so the pair is in Gamma_k
    exactly when k*a' + (n-k)*b' > 0, which solves to

        mu+ = [k(1-tau)(n-1) + (n-k)(tau + (1-tau)(n-1))] / [k + (n-k)(1-tau)].

    It equals n-1 - tau*n*(k-1) / [k + (n-k)(1-tau)], so it lies in [0, n-1]
    for every tau in [0, 1] and needs no clamp.
    """
    n, k, tau = cone.n, cone.k, Fraction(float(cone.tau))
    s = 1 - tau
    return ((k * s * (n - 1) + (n - k) * (tau + s * (n - 1)))
            / (k + (n - k) * s))


def mu_plus(cone: ConeSpec) -> float:
    """The unique mu in [0, n-1] with (-mu, 1, ..., 1) on the cone boundary,
    correctly rounded from the closed form (see _mu_plus_exact).

    Equals (n-k)/k for the undeformed Gamma_k^+ and (1-tau)(n-1) for the
    deformed top cone Gamma_n.
    """
    return float(_mu_plus_exact(cone))


def contains_ray_e1(cone: ConeSpec) -> bool:
    """Whether (1, 0, ..., 0) is strictly inside the cone.

    True marks the regime in which the limiting zero-boundary solutions stay
    smooth; false once the cone boundary touches that ray (k >= 2, tau = 1).
    The ray deforms to the pair (1, 1-tau): every sigma_j of it is positive
    when 1-tau > 0, and with tau = 1 only sigma_1 is.
    """
    return bool(cone.k == 1 or cone.tau < 1.0)
