"""Second-order refinement of grid scans over a Hermitian family.

Every refined quantity is read off extreme eigenvalues of a stack of
Hermitian parts of the form

    P(t) = cos(t) X + sin(t) Y,  so that  P'(t) = P(t + pi/2),  P'' = -P.

One ``eigh`` of P(t) gives each eigenvalue branch lambda, with unit
eigenvector x, its slope x* P' x and its curvature
-lambda + 2 sum_j |x_j* P' x|^2 / (lambda - lambda_j) (Hellmann-Feynman;
Lancaster, Numer. Math. 6, 1964), so each branch comes with a quadratic
model.  The callers scan a coarse grid first and hand it to
:func:`refine_best`, which refines inside the two cells next to the best
grid point, so unimodality only has to hold locally.  Each step
minimizes the objective's model, the sum over parts of the max over
branches of their quadratics, inside a bracket that the sign of the
slope shrinks; where that minimizer is not strictly inside the bracket,
or the steps stop halving, the step bisects the bracket instead.  A kink,
where two branches cross, is where their quadratics cross, so kinks
converge as fast as smooth optima.  The search stops once the model
promises less than the rounding of the spectrum, or once the bracket is
at most ``TOL`` wide.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import copysign, frexp, ldexp, sqrt
from typing import Callable

import numpy as np

#: Width of the bracket at which the refinement stops.
TOL = 1e-10


def branches(
    family: Callable, t: float, idx, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of the Hermitian stack ``family(t)`` and the quadratic models
    of its eigenvalue branches *idx*.

    *family* maps an angle to one k x k part or a stack of them, of the form
    above, so that ``family(t + pi/2)`` is the derivative.  Returns
    (lam, q): the ascending spectra, shape (parts, k), and the value, slope
    and curvature of each branch, shape (3, parts, len(idx)), in units of
    s, a power of two at *scale* (the largest |eigenvalue| on the grid), so
    that a unit means the same at every t and squares neither overflow nor
    underflow.
    """
    lam, vec = np.linalg.eigh(family(t))
    k = lam.shape[-1]
    lam, vec = lam.reshape(-1, k), vec.reshape(-1, k, k)
    s = ldexp(1.0, frexp(scale)[1] - 1) if scale else 1.0  # s <= scale < 2 s
    lam = lam / s
    dp = np.reshape(family(t + 0.5 * np.pi), (-1, k, k)) / s
    x = vec[:, :, idx]
    g = np.swapaxes(vec.conj(), 1, 2) @ (dp @ x)  # g[p, j, b] = x_j* P' x_b
    value = lam[:, idx]
    slope = g[:, idx, np.arange(len(idx))].real
    gap = value[:, None, :] - lam[:, :, None]
    coupling = np.abs(g) ** 2
    # j = b, and any eigenvalue equal to the branch's, has no coupling term
    coupling = np.divide(coupling, gap, out=np.zeros_like(coupling), where=gap != 0)
    curvature = 2.0 * np.sum(coupling, axis=1) - value
    return lam * s, np.stack((value, slope, curvature))


def _roots(c0: float, c1: float, c2: float) -> list[float]:
    """Real roots of c0 + c1 d + c2 d^2."""
    if c2 == 0.0:
        return [-c0 / c1] if c1 else []
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    r = -0.5 * (c1 + copysign(sqrt(disc), c1))
    return [r / c2, c0 / r] if r else [0.0]


def _model_step(q: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """(d, gain): the minimizer over [lo, hi] of the model, the sum over
    parts of the max over branches of v + g d + c d^2 / 2, and the decrease
    it promises from d = 0.

    The model is smooth between crossings of two branches of one part, so
    its minimizer is an end of the interval, a crossing, or a stationary
    point of one sum that picks one branch per part.  Each part is taken
    relative to its largest value, so the gain carries no rounding of the
    values themselves.
    """
    v, g, c = q
    gs, cs = reduce(np.add.outer, g).ravel(), reduce(np.add.outer, c).ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # kept only if finite
        cands = [lo, hi, *(-gs[cs > 0] / cs[cs > 0])]
        for vp, gp, cp in zip(*q):
            for i, j in combinations(range(len(vp)), 2):
                dv, dg, dc = vp[i] - vp[j], gp[i] - gp[j], cp[i] - cp[j]
                cands += _roots(float(dv), float(dg), 0.5 * float(dc))
        d = np.clip([x for x in cands if np.isfinite(x)], lo, hi)
        rise = (v - v.max(axis=1, keepdims=True))[..., None] + d * (
            g[..., None] + 0.5 * c[..., None] * d
        )
        model = np.sum(np.max(rise, axis=1), axis=0)
    best = int(np.argmin(model))
    return float(d[best]), -float(model[best])


def _minimize(
    evaluate: Callable, t: float, step: float, sign: float
) -> tuple[float, float]:
    """Best (t, f(t)) evaluated while minimizing sign * f on
    [t - step, t + step], starting at t (see :func:`refine_best`).

    A model step must be at most half the step before the last
    (Press et al., Numerical Recipes, ``rtsafe``), so model steps shrink
    geometrically and bisections halve the bracket; 200 steps at most, as
    a backstop.
    """
    a, b = t - step, t + step
    best_t, best = t, np.inf
    moves = [2.0 * step, 2.0 * step]  # the last two steps taken
    for _ in range(200):
        f, q = evaluate(t)
        if sign * f < best:
            best_t, best = t, sign * f
        elif moves[1] <= TOL:
            break  # a step within TOL gained nothing: f is at its rounding
        v, g = q[0], q[1]
        top = np.argmax(v, axis=1)[:, None]
        slope = float(np.sum(np.take_along_axis(g, top, axis=1)))
        if slope > 0.0:
            b = t
        elif slope < 0.0:
            a = t
        else:
            break
        if b - a <= TOL:
            break
        d, gain = _model_step(q, a - t, b - t)
        if not gain > np.finfo(np.float64).eps or t + d == t:
            break
        if not a < t + d < b or abs(d) > 0.5 * moves[0]:
            d = 0.5 * (a + b) - t
            if t + d == t:
                break  # the bracket is at the float spacing of t
        moves = [moves[1], abs(d)]
        t += d
    return best_t, sign * best


def refine_best(
    evaluate: Callable, xs, values, step: float, maximize: bool
) -> tuple[float, float]:
    """Best point of a grid scan, refined; returns (x, f(x)).

    *values* holds f at the grid points *xs*, which lie *step* apart.
    ``evaluate(t)`` returns f(t) and the quadratic models of the branches
    it is read off (as :func:`branches` gives them), arranged so that the
    sum over parts of the max over branches grows with f when minimizing
    and with -f when maximizing.  The search starts at the best grid point
    and stays within one cell of it; the grid point is kept only if it is
    strictly better than every point evaluated.
    """
    sign = -1.0 if maximize else 1.0
    k = int(np.argmin(sign * np.asarray(values)))
    x, fx = _minimize(evaluate, float(xs[k]), step, sign)
    grid = float(values[k])
    if sign * grid < sign * fx:
        return float(xs[k]), grid
    return x, fx
