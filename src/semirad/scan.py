"""Second-order refinement over the rotated parts of C.

Every refined quantity is read off extreme eigenvalues of the rotated
Hermitian parts of a compressed matrix C,

    P(t) = Re(exp(-i t) C),  so that  P'(t) = Im(exp(-i t) C),  P'' = -P,

one matrix or a stack of them over an array of angles (:func:`_rotated`).
One ``eigh`` of P(t) gives each eigenvalue branch lambda, with unit
eigenvector x, its slope x* P' x = Im(exp(-i t) x* C x) and its curvature
-lambda + 2 sum_j |x_j* P' x|^2 / (lambda - lambda_j) (Hellmann-Feynman;
Lancaster, Numer. Math. 6, 1964), so each branch comes with a quadratic
model (:func:`branches`).  The slope needs C x alone and the couplings
C x and C* x, so no stack of derivatives is formed.  Every eigensolve
factors the parts of C / s and its adjoint, s the power of two at the
scale of C, formed once per operator's cells (:class:`Parts`): s is the
unit of every branch value, so C -> 2^j C moves none of their bits.  Only
the steps of :func:`refine` read curvature.  The support-line cells of
:mod:`semirad.cells` read the value and slope of the bottom and top
branch alone, over a stack of angles (:func:`extremes`): below SOLVE_K
from the same eigh, skipping the curvature; from SOLVE_K on from one
stacked eigvalsh and one stacked shifted LU solve per extreme, which give
the two eigenvectors without the other k - 2, and from eigh again for a
part whose solve cannot be trusted.  The callers cut those cells at their
valleys into segments, each holding one peak as far as its points tell.
For the most promising segment whose bound beats the best value they hand
:func:`refine`, the one refinement, its bracket from valley to valley and
a start next to its best angle: the peak of the cubic Hermite interpolant
of the values and slopes on the cell uphill of that angle.  :func:`refine`
maximizes a function f of the branches, so unimodality only has to hold
inside a segment; the callers then check the refined value against every
cell's bound.  Each step minimizes the model of -f, the sum over parts of
the max over branches of their quadratics, inside a bracket that the sign
of the slope shrinks; where that minimizer is not strictly inside the
bracket, or the steps stop halving, the step bisects the bracket instead.
A point below the best value ends the bracket on its own side of the best
point, whatever its slope says, so the best point never leaves the
bracket; if its slope does not point back to the best point, it lies on
the flank of another peak, and the next step starts from the best point
instead.  A kink, where two branches cross, is where their quadratics
cross; the crossings of every pair of branches of every part are solved
in one array pass (:func:`_model_step`), so kinks converge as fast as
smooth optima.  The search stops once the model promises no more than the
rounding of h, 4 k eps times the reach, that the callers pass, or once
the bracket is at most ``TOL`` wide.
"""

from __future__ import annotations

from functools import cache, reduce
from math import isfinite
from typing import Callable

import numpy as np

from .linalg import in_unit, lapack

#: Width of the bracket at which the refinement stops.
TOL = 1e-10

#: Size of the parts from which :func:`extremes` reads the extreme
#: eigenvectors off shifted solves instead of eigh.  On stacks of 16 random
#: parts, with one BLAS thread on a 2-vCPU x86-64 virtual machine, the
#: solves take 1.00-1.10 times the time of eigh at k = 8, 0.97 at k = 10,
#: 0.88 at k = 12, 0.66-0.70 at k = 16 and 0.83 at k = 32.
SOLVE_K = 12

_EPS = float(np.finfo(np.float64).eps)


def _rotated(c: np.ndarray, theta, ct: np.ndarray | None = None) -> np.ndarray:
    """Re(exp(-i*theta) C) = (exp(-i*theta) C + exp(i*theta) C*) / 2, with
    C* the given *ct* if the caller has it.

    A scalar theta gives one Hermitian matrix, an array of angles the
    stack of them.
    The phase is halved before the sum, so entries near the float limit
    do not overflow; halving is exact, so the result is the same.
    """
    half = 0.5 * np.exp(1j * np.asarray(theta, dtype=np.float64))[..., None, None]
    return half.conj() * c + half * (c.conj().T if ct is None else ct)


class Parts:
    """C / s and its adjoint, formed once, whose rotated parts P(t) every
    eigensolve factors, s the power of two at *scale*, by default at the
    largest part of an entry of C (:func:`linalg.in_unit`): a unit means
    the same at every t, squares neither overflow nor underflow, and C ->
    2^j C moves no bit of a value in units of s.  An operator's cells
    build one, whose s is their unit."""

    def __init__(self, c: np.ndarray, scale: float | None = None):
        self.s, self.cs = in_unit(c, scale)
        self.cts = self.cs.conj().T


def branches(parts: Parts, t, idx, curvature: bool = True) -> np.ndarray:
    """The quadratic models of the eigenvalue branches *idx* (indices into
    each ascending spectrum) of the rotated parts P(t).

    *t* is an angle, one part, or an array of them, a stack of parts.
    Returns q: the value, slope and curvature of each branch, shape (3,
    parts, len(idx)), in units of ``parts.s``, read off the parts of
    ``parts.cs``.  Without *curvature*, q holds value and slope only,
    shape (2, parts, len(idx)), the same to the bit: the coupling to the
    other branches, which only the curvature reads, is skipped.  A LAPACK
    failure raises NumericalFailure.
    """
    t = np.asarray(t, dtype=np.float64)
    with lapack("eigensolve of the support lines"):
        lam, vec = np.linalg.eigh(_rotated(parts.cs, t, parts.cts))
    k = lam.shape[-1]
    lam, vec = lam.reshape(-1, k), vec.reshape(-1, k, k)
    turn = np.exp(-1j * t).reshape(-1, 1)
    x = vec[:, :, idx]
    cx = parts.cs @ x
    value = lam[:, idx]
    # x_b* P' x_b = Im(exp(-i t) x_b* C x_b)
    slope = (turn * (x.conj() * cx).sum(axis=1)).imag
    if not curvature:
        return np.array((value, slope))
    # 2i P' x_b = exp(-i t) C x_b - exp(i t) C* x_b, and g[p, j, b] is the
    # conjugate of 2i x_j* P' x_b, whose modulus alone the curvature reads
    turn = turn[:, :, None]
    dx = turn * cx - turn.conj() * (parts.cts @ x)
    g = vec.swapaxes(1, 2) @ dx.conj()
    gap = value[:, None, :] - lam[:, :, None]
    coupling = np.abs(g) ** 2
    # j = b, and any eigenvalue equal to the branch's, has no coupling term
    coupling = np.divide(coupling, gap, out=np.zeros(coupling.shape), where=gap != 0)
    bend = 0.5 * coupling.sum(axis=1) - value
    return np.array((value, slope, bend))


@cache
def _rhs(k: int) -> np.ndarray:
    """The fixed right-hand sides of the shifted solves, shape (k, 2): sin j
    and cos j for j = 1, ..., k, each scaled to norm 1, so that no
    eigenvector is orthogonal to both but by construction."""
    j = np.arange(1.0, k + 1.0)
    b = np.stack((np.sin(j), np.cos(j)), axis=1)
    b /= np.linalg.norm(b, axis=0)
    b.setflags(write=False)
    return b


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stacked solutions of a y = b, NaN where the LU of a is singular
    (numpy raises for the whole stack, so that stack is solved again one
    matrix at a time)."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        y = np.full(b.shape, np.nan, dtype=np.complex128)
        for i in range(len(a)):
            try:
                y[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return y


def extremes(parts: Parts, t: np.ndarray) -> np.ndarray:
    """The bottom and top branch of the parts P(t) at an array of angles:
    value and slope, shape (2, parts, 2), in units of ``parts.s``.

    Below SOLVE_K this is ``branches(parts, t, [0, -1], curvature=False)``.
    From SOLVE_K on, one stacked eigvalsh gives each extreme eigenvalue
    lambda.  One stacked LU solve per extreme gives its eigenvector x, by
    one step of inverse iteration: (P - sigma) y = b, with the two fixed
    columns b of :func:`_rhs` and sigma = lambda + eps ||P|| beyond lambda;
    x is the longer column of y, scaled to norm 1.  The eigenvector's share
    of b grows by about 1 / (eps ||P||) and every other's by at most 1 /
    gap, the distance from lambda to the next eigenvalue, so the others'
    share of x is at most 1 / (gap |y|).  The slope is x* P' x = Im(exp(-i
    t) x* C x), and the real part of the same product is the Rayleigh
    quotient x* P x.

    A part is solved again by eigh (:func:`branches`) where

      * an LU is singular or the solve overflows (NaN fails every test);
      * the others' share exceeds sqrt(eps): at a near-crossing of two
        branches, a corner of the range, one step cannot tell them apart.
        Below it the share moves the slope of a normal C by its square
        times the spread of the slopes;
      * x* P x misses lambda by more than the rounding of h, 4 k eps ||P||,
        as where b holds no share of the eigenvector.

    A LAPACK failure of eigvalsh raises NumericalFailure.
    """
    k = parts.cs.shape[0]
    if k < SOLVE_K:
        return branches(parts, t, [0, -1], curvature=False)
    t = np.asarray(t, dtype=np.float64)
    m = len(t)
    p = _rotated(parts.cs, t, parts.cts)
    with lapack("eigensolve of the support lines"):
        lam = np.linalg.eigvalsh(p)
    value = lam[:, [0, -1]]
    norm = np.abs(value).max(axis=1, keepdims=True)
    gap = np.stack((lam[:, 1] - lam[:, 0], lam[:, -1] - lam[:, -2]), axis=1)
    sigma = value + [-_EPS, _EPS] * norm
    # b of the stack's shape: numpy 1 reads one of a dimension less as vectors
    b = np.broadcast_to(_rhs(k), (m, k, 2))
    diagonal = p.reshape(m, k * k)[:, :: k + 1]  # a view of each diagonal
    base = diagonal.copy()
    x = np.empty((m, k, 2), dtype=np.complex128)
    size = np.empty((m, 2))
    rows = np.arange(m)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for e in (0, 1):
            diagonal[...] = base - sigma[:, e, None]
            y = _solve(p, b)
            lengths = np.linalg.norm(y, axis=1)
            longer = lengths.argmax(axis=1)  # NaN first, and so is kept
            x[:, :, e], size[:, e] = y[rows, :, longer], lengths[rows, longer]
        x /= size[:, None, :]
        # exp(-i t) x* C x = x* P x + i x* P' x
        z = np.exp(-1j * t)[:, None] * (x.conj() * (parts.cs @ x)).sum(axis=1)
        ok = (np.abs(z.real - value) <= 4.0 * k * _EPS * norm) & (
            1.0 <= np.sqrt(_EPS) * gap * size
        )
    q = np.array((value, z.imag))
    redo = ~ok.all(axis=1)
    if redo.any():
        q[:, redo] = branches(parts, t[redo], [0, -1], curvature=False)
    return q


@cache
def _pairs(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs i < j of *count* branches, in lexicographic order."""
    return np.triu_indices(count, 1)


def _model_step(q: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """(d, gain): the minimizer over [lo, hi] of the model, the sum over
    parts of the max over branches of v + g d + c d^2 / 2, and the decrease
    it promises from d = 0.

    The model is smooth between crossings of two branches of one part, so
    its minimizer is an end of the interval, a crossing, or a stationary
    point of one sum that picks one branch per part.  Each part is taken
    relative to its largest value, so the gain carries no rounding of the
    values themselves.  One branch of one part is a plain quadratic, whose
    candidates are taken in floats, by the same operations.
    """
    if q.shape[1:] == (1, 1):
        g, c = float(q[1, 0, 0]), float(q[2, 0, 0])
        cands = [lo, hi, -g / c] if c > 0 else [lo, hi]
        d = [min(max(x, lo), hi) for x in cands if isfinite(x)]
        model = [x * (g + 0.5 * c * x) for x in d]
        best = model.index(min(model))
        return d[best], -model[best]
    v, g, c = q
    gs, cs = reduce(np.add.outer, g).ravel(), reduce(np.add.outer, c).ravel()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the crossings of each pair i < j of branches of one part: the real
        # roots of c0 + c1 d + c2 d^2, in part, pair and root order.  A line
        # (c2 = 0) has the one root -c0/c1 and a double root at 0 has r = 0;
        # a root that is not there (c1 = 0 on a line, a negative
        # discriminant) comes out as inf or nan, and every candidate is kept
        # only if finite
        i, j = _pairs(q.shape[2])
        c0, c1, dc = q[:, :, i] - q[:, :, j]
        c2 = 0.5 * dc
        r = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
        linear = c2 == 0.0
        roots = np.stack(
            (
                np.where(linear, -c0 / c1, np.where(r != 0.0, r / c2, 0.0)),
                np.where(linear, np.nan, c0 / r),
            ),
            axis=-1,
        )
        cands = np.concatenate(([lo, hi], -gs[cs > 0] / cs[cs > 0], roots.ravel()))
        d = np.clip(cands[np.isfinite(cands)], lo, hi)
        rise = (v - v.max(axis=1, keepdims=True))[..., None] + d * (
            g[..., None] + 0.5 * c[..., None] * d
        )
        model = rise.max(axis=1).sum(axis=0)
    best = int(model.argmin())
    return float(d[best]), -float(model[best])


def refine(
    evaluate: Callable, t: float, lo: float, hi: float, floor: float = _EPS
) -> tuple[float, float]:
    """(x, f(x)) at the largest f evaluated while maximizing f on [lo, hi],
    starting at t.

    ``evaluate(t)`` returns f(t) and the quadratic models of the branches
    of -f (as :func:`branches` gives them), so that the sum over parts of
    the max over branches is -f.  The search stops once a model step
    promises a gain of at most *floor*, in the models' units: the pruned
    searches pass the rounding of h, and the default is one unit in the
    last place of the unit scale.  A model step must be at most half the
    step before the last (Press et al., Numerical Recipes, ``rtsafe``), so
    model steps shrink geometrically and bisections halve the bracket; 200
    steps at most, as a backstop.
    """
    best_t, best = t, -np.inf
    moves = [hi - lo, hi - lo]  # the last two steps taken
    for _ in range(200):
        f, q = evaluate(t)
        if f > best:
            best_t, best, best_q = t, f, q
        elif moves[1] <= TOL:
            break  # a step within TOL gained nothing: f is at its rounding
        # the slope of the top branch of each part
        slope = float(q[1][np.arange(len(q[0])), q[0].argmax(axis=1)].sum())
        if t != best_t:
            # below the best value, t ends the bracket on its own side of
            # the best point, whatever its slope says; a slope that does
            # not point back to the best point puts t on the flank of
            # another peak, so the next step starts from the best point
            if t < best_t:
                lo = t
            else:
                hi = t
            if (t - best_t) * slope <= 0.0:
                t, q = best_t, best_q
        elif slope > 0.0:
            hi = t
        elif slope < 0.0:
            lo = t
        else:
            break
        if hi - lo <= TOL:
            break
        d, gain = _model_step(q, lo - t, hi - t)
        if not gain > floor or t + d == t:
            break
        # a minimizer at an end of the bracket bisects, also where t + d
        # rounds to a point inside it, and so does one that rounds onto an end
        if not (lo - t < d < hi - t and lo < t + d < hi) or abs(d) > 0.5 * moves[0]:
            d = 0.5 * (lo + hi) - t
            if t + d == t:
                break  # the bracket is at the float spacing of t
        moves = [moves[1], abs(d)]
        t += d
    return best_t, best
