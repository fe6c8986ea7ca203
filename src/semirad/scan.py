"""Scalar line search used to refine grid scans.

Golden-section search over a bracket.  The callers scan a coarse grid
first and hand it to :func:`_refine_best`, which refines inside the two
cells next to the best grid point, so unimodality only has to hold
locally.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

INV_PHI = 0.6180339887498949  # (sqrt(5) - 1) / 2
INV_PHI2 = 0.38196601125010515  # (3 - sqrt(5)) / 2


def golden_section_min(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Minimize *f* on [a, b]; returns (x_min, f(x_min)).

    Interval shrinks by 1/phi per step, so ~48 iterations reach 1e-10 on a
    unit bracket.  The best evaluated point is returned, never an
    unevaluated midpoint.
    """
    if b < a:
        a, b = b, a
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    fc = f(c)
    fd = f(d)
    for _ in range(max_iter):
        if h <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + INV_PHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INV_PHI * h
            fd = f(d)
    if fc < fd:
        return c, fc
    return d, fd


def golden_section_max(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Maximize *f* on [a, b]; returns (x_max, f(x_max))."""
    x, neg = golden_section_min(lambda t: -f(t), a, b, tol=tol, max_iter=max_iter)
    return x, -neg


def _refine_best(
    f: Callable[[float], float],
    xs,
    values,
    step: float,
    maximize: bool,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Best point of a grid scan, refined; returns (x, f(x)).

    *values* holds f at the grid points *xs*, which lie *step* apart.
    Golden section runs over the two cells next to the best grid point;
    the grid point is kept only if it is strictly better.
    """
    k = int(np.argmax(values) if maximize else np.argmin(values))
    search = golden_section_max if maximize else golden_section_min
    x, fx = search(f, xs[k] - step, xs[k] + step, tol=tol)
    grid = float(values[k])
    if (grid > fx) if maximize else (grid < fx):
        return float(xs[k]), grid
    return x, fx
