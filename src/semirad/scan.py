"""Scalar line search used to refine grid scans.

Golden-section search over a bracket, stopped once the bracket is at
most ``TOL`` wide.  The callers scan a coarse grid first and hand it to
:func:`_refine_best`, which refines inside the two cells next to the
best grid point, so unimodality only has to hold locally.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

INV_PHI = 0.6180339887498949  # (sqrt(5) - 1) / 2
INV_PHI2 = 0.38196601125010515  # (3 - sqrt(5)) / 2

#: Width of the bracket at which golden-section search stops.
TOL = 1e-10


def golden_section_min(
    f: Callable[[float], float], a: float, b: float
) -> tuple[float, float]:
    """Minimize *f* on [a, b]; returns (x_min, f(x_min)).

    Interval shrinks by 1/phi per step, so ~48 iterations reach TOL on a
    unit bracket; 200 steps at most, in case the bracket's float spacing
    exceeds TOL.  The best evaluated point is returned, never an
    unevaluated midpoint.
    """
    if b < a:
        a, b = b, a
    h = b - a
    if h <= TOL:
        x = 0.5 * (a + b)
        return x, f(x)
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    fc = f(c)
    fd = f(d)
    for _ in range(200):
        if h <= TOL:
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


def _refine_best(
    f: Callable[[float], float], xs, values, step: float, maximize: bool
) -> tuple[float, float]:
    """Best point of a grid scan, refined; returns (x, f(x)).

    *values* holds f at the grid points *xs*, which lie *step* apart.
    Golden section minimizes f (or -f, to maximize) over the two cells
    next to the best grid point; the grid point is kept only if it is
    strictly better.
    """
    sign = -1.0 if maximize else 1.0
    k = int(np.argmin(sign * np.asarray(values)))
    x, fx = golden_section_min(lambda t: sign * f(t), xs[k] - step, xs[k] + step)
    grid = float(values[k])
    if sign * grid < fx:
        return float(xs[k]), grid
    return x, sign * fx
