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
C x and C* x, so no stack of derivatives is formed; C* and the scaled
C and C* are formed once per operator's cells (:class:`Parts`), whose
power of two is the unit of every branch value.  Over a stack of
angles, the same call, told to skip the curvature, gives the
support-line cells of :mod:`semirad.cells` their values and slopes
alone; only the steps of :func:`refine` read curvature.
The callers cut those cells at their valleys into segments, each
holding one peak as far as its points tell.  For the most promising
segment whose bound beats the best value they hand :func:`refine`, the
one refinement, its bracket from valley to valley and a start next to
its best angle: the peak of the cubic Hermite interpolant of the values
and slopes on the cell uphill of that angle.  :func:`refine` maximizes a
function f of the branches, so unimodality only has to hold inside a
segment; the callers then check the refined value against every cell's
bound.  Each step
minimizes the model of -f, the sum over parts of the max over branches
of their quadratics, inside a bracket that the sign of the slope
shrinks; where that minimizer is not strictly inside the bracket, or the
steps stop halving, the step bisects the bracket instead.  A point below
the best value ends the bracket on its own side of the best point,
whatever its slope says, so the best point never leaves the bracket; if
its slope does not point back to the best point, it lies on the flank of
another peak, and the next step starts from the best point instead.  A
kink, where two branches cross, is where their quadratics cross; the
crossings of every pair of branches of every part are solved in one
array pass (:func:`_model_step`), so kinks converge as fast as smooth
optima.  The search stops once the model promises no more than the
rounding of h, 4 k eps times the reach, that the callers pass, or once
the bracket is at most ``TOL`` wide.
"""

from __future__ import annotations

from functools import cache, reduce
from math import frexp, isfinite, ldexp
from typing import Callable

import numpy as np

from .linalg import lapack

#: Width of the bracket at which the refinement stops.
TOL = 1e-10

_EPS = float(np.finfo(np.float64).eps)


def unit(scale: float) -> float:
    """The power of two s with s <= *scale* < 2 s (1 for a zero scale)."""
    return ldexp(1.0, frexp(scale)[1] - 1) if scale else 1.0


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
    """The rotated parts P(t) of one C, with what every eigensolve of them
    shares formed once: C*, and C and C* in units of s, the power of two
    at *scale*, so that a unit means the same at every t and squares
    neither overflow nor underflow.  An operator's cells build one, whose
    s is the unit of every value that :func:`branches` gives them."""

    def __init__(self, c: np.ndarray, scale: float):
        self.c, self.ct, self.s = c, c.conj().T, unit(scale)
        # part by part, exactly: a complex quotient forms 1/s, which
        # overflows for s below 2**-1024
        self.cs = np.empty(c.shape, dtype=np.complex128)
        self.cs.real, self.cs.imag = c.real / self.s, c.imag / self.s
        self.cts = self.cs.conj().T


def branches(parts: Parts, t, idx, curvature: bool = True) -> np.ndarray:
    """The quadratic models of the eigenvalue branches *idx* (indices into
    each ascending spectrum) of the rotated parts P(t).

    *t* is an angle, one part, or an array of them, a stack of parts.
    Returns q: the value, slope and curvature of each branch, shape (3,
    parts, len(idx)), in units of ``parts.s``.  Without *curvature*, q
    holds value and slope only, shape (2, parts, len(idx)), the same to
    the bit: the coupling to the other branches, which only the curvature
    reads, is skipped.  A LAPACK failure raises NumericalFailure.
    """
    t = np.asarray(t, dtype=np.float64)
    with lapack("eigensolve of the support lines"):
        lam, vec = np.linalg.eigh(_rotated(parts.c, t, parts.ct))
    k = lam.shape[-1]
    lam, vec = lam.reshape(-1, k) / parts.s, vec.reshape(-1, k, k)
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
