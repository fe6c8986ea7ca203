"""Support-line cells of a compressed matrix C and their pruned search.

The cells (Johnson, SIAM J. Numer. Anal. 15, 1978; :class:`Cells`)
sample the support function h(theta) = lambda_max(Re(exp(-i*theta) C)).
One eigh of the part at theta gives h at theta and, the part at theta +
pi being minus it, at theta + pi, and the eigenvector gives the slope h'
and so the support point p_theta = exp(i theta) (h + i h').  Between two
neighbouring angles the points span a chord of the inner polygon and
their support lines meet at a vertex of the outer polygon; the range
lies between the two.  Every operator's cells start from 32 support
lines, and each quantity grows only the cells it needs from them:

  * the radius, max h, pruned on the outer vertices and checked against
    its farthest support point and the eigenvalues of C (:func:`radius`),
  * the Crawford number, max(0, -min h), 0 at once when the start lines'
    inner polygon holds the origin, else pruned on the chords
    (:func:`crawford`),
  * the H_phi bound, pruned on the quarter-turn cells of the picture
    (:func:`hphi`),
  * the picture, which the boundary, the inclusion check and the H_phi
    bound read, refined in rounds of one stacked eigensolve each that
    reads values and slopes only, until every outer vertex lies within
    RTOL times the largest h of its chord; each open cell is split at the
    normal of its chord (the chord rule of the sandwich algorithm;
    :func:`_chord_rule`).  It is made once per operator and kept on it
    (like its ``adjoint``); the radius and the Crawford number never grow
    it.

This module alone knows the quarter-turn layout and runs the three
pruned searches.  Every eigh is one call of :func:`scan.branches`:
the cells' stacks through :func:`Cells.support` alone, and each
refinement step of the pruned search (:func:`_optimize`).  Every batched
eigensolve runs in chunks of at most CHUNK_ENTRIES matrix entries, so
its memory does not grow with the number of angles.  A round merges the
new values into the cells once and reads its view in one pass
(:func:`_geometry`): the support points, the chords, the spans and the
outer vertices, each computed once, which the gaps, the split angles and
the bounds all read.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from functools import cached_property, reduce
from math import copysign, hypot, isfinite, sqrt

import numpy as np

from .linalg import lapack
from .scan import Parts, branches, refine, unit
from .semihilbert import SemiOperator

#: Outer-inner gap of every cell of the range picture, relative to the
#: radius, down to which :func:`arange.estimate_range` bisects the cells.
RTOL = 1e-3

#: Complex entries in one stack of matrices handed to LAPACK (1 MiB): the
#: batched eigensolves run over chunks of angles this size.
CHUNK_ENTRIES = 2**16

# Angles are integer multiples of _UNIT, 2**30 to the quarter turn, so that
# a midpoint, a rotation by pi/2 and the test for an angle already seen are
# exact.  The cells start from _START support lines per quarter turn (32 in
# all: 16 parts of the half turn).  A pruned search splits every open cell
# in each round and refines at most one new segment per round, until no
# cell is open or no split adds an angle: a cell one unit wide has no new
# point, so every search ends.
_QUARTER = 2**30
_UNIT = 0.5 * np.pi / _QUARTER
_START = 8
_EPS = np.finfo(np.float64).eps
_ORBIT = _QUARTER * np.arange(4)[:, None]
_SIGNS = np.array([1.0, -1.0])  # the top branch, and minus the bottom one
_BACK = np.array([1, -1j, -1, 1j])[:, None, None]  # exact turns back to [0, pi/2)


def chunks(m: int, k: int, copies: int = 1) -> list[slice]:
    """Slices of *m* stacked k x k matrices, each holding at most
    CHUNK_ENTRIES entries in *copies* arrays of its size (one matrix at
    least)."""
    step = max(1, CHUNK_ENTRIES // (copies * k * k))
    return [slice(i, min(i + step, m)) for i in range(0, m, step)]


class Cells:
    """The support-line cells of C: h on a cell [a, b] lies between the
    support functions of its chord [p_a, p_b] and of its outer vertex.

    Angles are evaluated for a whole quarter-turn orbit at once, so the
    set is closed under rotation by pi/2 and the norm of every part at
    theta + pi/2 is known too.  Values are kept, in units of a power of
    two at the scale of C, per base angle in [0, pi/2).  The 32 start
    lines are evaluated at once; their outer polygon sets the reach, the
    scale of every later decision.  The picture is grown on first read
    (:func:`_coarse`).  Each pruned search grows its own set of base
    angles from the start lines (the H_phi bound's from the picture), so
    what it reads depends on C alone, whatever else was grown before, and
    no angle is evaluated twice.
    """

    def __init__(self, c: np.ndarray):
        self.c = c
        self.unit = unit(float(np.max(np.abs(c))))
        self.parts = Parts(c, self.unit)
        self.base = np.zeros(0, dtype=np.int64)
        self.lines = np.zeros((2, 4, 0))  # (h, h') per quarter turn and base angle
        self.start = np.arange(_START, dtype=np.int64) * (_QUARTER // _START)
        self.evaluate(self.start)

    @cached_property
    def picture(self) -> np.ndarray:
        """The base angles of the picture, grown from the start lines."""
        # a cell one unit wide has no new point, so this ends
        picture = self.start
        while True:
            grown = self.extend(picture, _coarse(*self.view(picture)))
            if len(grown) == len(picture):
                return picture
            picture = grown

    @cached_property
    def reach(self) -> float:
        """The largest modulus of the start lines' outer polygon, which
        holds the range, so that it bounds the radius: the scale of every
        later decision, in units of ``unit``, the same whatever else has
        been grown."""
        return float(np.max(np.abs(_geometry(*self.view(self.start)).vertex)))

    @cached_property
    def rounding(self) -> float:
        """The rounding of h, in units of ``unit``: the backward error of
        eigh, carried over by Weyl's inequality."""
        return 4.0 * self.c.shape[0] * _EPS * self.reach

    def support(self, angles: np.ndarray) -> np.ndarray:
        """(h, h') at *angles* (column 0) and at *angles* + pi (column 1),
        in units of ``unit``: the top branch of each part and minus its
        bottom one, value and slope only, in stacked eigh calls of at most
        CHUNK_ENTRIES entries."""
        # the parts and their eigenvectors are two stacks of the chunk's size
        q = [
            branches(self.parts, angles[s], [0, -1], curvature=False)
            for s in chunks(len(angles), self.c.shape[0], copies=2)
        ]
        q = q[0] if len(q) == 1 else np.concatenate(q, axis=1)
        return q[:, :, ::-1] * _SIGNS

    def evaluate(self, base: np.ndarray) -> None:
        """One round: the parts at the new base angles and a quarter turn
        on, in one call of :func:`Cells.support`, merged into the lines
        once."""
        n = len(base)
        q = self.support(np.concatenate((base, base + _QUARTER)) * _UNIT)
        # top branch at base, base + pi/2; bottom at base + pi, base + 3 pi/2
        lines = q.reshape(2, 2, n, 2).transpose(0, 3, 1, 2).reshape(2, 4, n)
        merged = np.concatenate((self.base, base))
        order = merged.argsort(kind="stable")
        self.base = merged[order]
        self.lines = np.concatenate((self.lines, lines), axis=2)[:, :, order]

    def view(self, base: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(index, h, h') over the whole turn, in angle order, for the
        sorted base angles *base*; the angle is index * _UNIT."""
        h, dh = self.lines[:, :, np.searchsorted(self.base, base)].reshape(2, -1)
        return (base + _ORBIT).ravel(), h, dh

    def extend(self, base: np.ndarray, names: np.ndarray) -> np.ndarray:
        """*base* with the base angles of *names* (any angles, taken modulo
        a quarter turn), evaluating those not seen before in one round."""
        new = np.sort(names % _QUARTER)
        fresh = ~_member(new, base)
        fresh[1:] &= new[1:] != new[:-1]
        new = new[fresh]
        unseen = new[~_member(new, self.base)]
        if unseen.size:
            self.evaluate(unseen)
        return np.sort(np.concatenate((base, new))) if new.size else base

    def axes(self) -> np.ndarray:
        """h at 0, pi/2, pi and 3 pi/2, in the units of C: lambda_max of
        Re C and Im C, then -lambda_min of each."""
        return self.lines[0, :, 0] * self.unit  # base angle 0 comes first

    def outline(self) -> tuple:
        """(theta, h, boundary, outer, gap) of the picture, in the units of
        C: one entry per angle or per cell, in angle order."""
        index, h, dh = self.view(self.picture)
        g = _geometry(index, h, dh)
        s = self.unit
        return g.theta, h * s, g.p * s, g.vertex * s, _gap(g) * s


def _member(x: np.ndarray, sorted_: np.ndarray) -> np.ndarray:
    """Which entries of *x* the sorted array *sorted_* holds."""
    at = np.minimum(np.searchsorted(sorted_, x), len(sorted_) - 1)
    return sorted_[at] == x


def _chord_rule(g: Geometry) -> np.ndarray:
    """Where to split each cell of a view of :func:`_geometry` *g*: at the
    normal of its chord, the chord rule of the sandwich algorithm (Rote,
    Computing 48, 1992), rounded to the angle grid.  The support line
    there closes a flat edge that the cell straddles at once, where equal
    splits would only halve its gap, and finds a corner hidden between the
    cell's support points.  A normal outside the cell, or within 1/8 of
    the cell's width of its midpoint (as on a smooth arc), and a chord of
    length 0 give way to the midpoint, so that the four cells of a
    quarter-turn orbit share one new base angle."""
    chord, span = g.chord, g.span
    # the chord's outward normal, in grid units from the cell's first angle
    normal = np.arctan2(chord.imag, chord.real) - 0.5 * np.pi - g.theta
    off = np.rint(normal % (2.0 * np.pi) / _UNIT).astype(np.int64)
    mid = span // 2
    snap = (off <= 0) | (off >= span) | (8 * np.abs(off - mid) <= span) | (chord == 0)
    return g.index + np.where(snap, mid, off)


def _coarse(index, h, dh):
    """The picture's rule: split every cell whose gap exceeds RTOL * max h
    by the chord rule (:func:`_chord_rule`)."""
    g = _geometry(index, h, dh)
    return _chord_rule(g)[_gap(g) > RTOL * h.max()]


def _next(x: np.ndarray) -> np.ndarray:
    """*x* at the next point of a cyclic view."""
    return np.concatenate((x[1:], x[:1]))


def _span(index: np.ndarray) -> np.ndarray:
    """Width of each cell of a cyclic view of *index* over the whole turn."""
    nxt = _next(index)
    nxt[-1] += 4 * _QUARTER
    return nxt - index


Geometry = namedtuple("Geometry", "index theta span width p p_next chord vertex")


def _geometry(index: np.ndarray, h: np.ndarray, dh: np.ndarray) -> Geometry:
    """The geometry of every cell of a view, the cell of an angle running to
    the next one, each quantity computed once: its index and angle, its
    span in grid units and its width, the support points at both ends, the
    chord p_next - p, and the outer vertex where their support lines meet."""
    theta = index * _UNIT
    span = _span(index)
    width = span * _UNIT
    turn = np.exp(1j * theta)
    p = turn * (h + 1j * dh)
    p_next = _next(p)
    chord = p_next - p
    # along the line at theta from p to where it meets the next one; the
    # points' difference carries no cancellation of h itself
    t = (_next(turn).conj() * chord).real / np.sin(width)
    return Geometry(index, theta, span, width, p, p_next, chord, p + 1j * turn * t)


def _gap(g: Geometry) -> np.ndarray:
    """Distance from each outer vertex to its inner chord [p, p_next]:
    every point between the two polygons in a cell lies this close to the
    inner one."""
    chord, p, vertex = g.chord, g.p, g.vertex
    norm = np.abs(chord) ** 2
    along = np.divide(
        ((vertex - p) * chord.conj()).real,
        norm,
        out=np.zeros(norm.shape),
        where=norm > 0,
    )
    return np.abs(vertex - (p + along.clip(0.0, 1.0) * chord))


def _floor(a: np.ndarray, width: np.ndarray, groups: list[np.ndarray]) -> np.ndarray:
    """Least value over each cell [a, a + width] of the max over each group
    (cells x points) of Re(exp(-i theta) g), joined by hypot over groups.

    Between the crossings of two points of a group the function is one
    sinusoid per group, or the root of a sum of their squares, so its least
    value sits at an end of the cell, at a crossing, or where such a sum is
    stationary: these candidate angles are closed forms, and the least
    value over them is exact.
    """
    cells = len(a)
    cands = [a[:, None], (a + width)[:, None]]
    for g in groups:
        i, j = np.triu_indices(g.shape[1], 1)
        cross = np.angle(g[:, i] - g[:, j])[:, :, None] + [0.5 * np.pi, 1.5 * np.pi]
        cands.append(cross.reshape(cells, -1))
    square = groups[0] ** 2
    for g in groups[1:]:
        square = (square[:, :, None] + g[:, None, :] ** 2).reshape(cells, -1)
    flat = 0.5 * np.angle(square)[:, :, None] + 0.5 * np.pi * np.arange(4)
    cands.append(flat.reshape(cells, -1))
    off = (np.concatenate(cands, axis=1) - a[:, None]) % (2.0 * np.pi)
    cell, k = np.nonzero(off <= width[:, None])  # both ends, at the least
    turn = np.exp(-1j * (a[cell] + off[cell, k]))[:, None]
    values = reduce(np.hypot, [np.max((turn * g[cell]).real, axis=1) for g in groups])
    return np.minimum.reduceat(values, np.flatnonzero(np.diff(cell, prepend=-1)))


def _vertex_bound(g: Geometry, h: np.ndarray) -> np.ndarray:
    """Upper bound of h over each cell of a view of :func:`_geometry` *g*:
    the outer vertex's support there, its modulus if the cell holds its
    direction, else the larger end."""
    v = g.vertex
    inside = (np.arctan2(v.imag, v.real) - g.theta) % (2.0 * np.pi) <= g.width
    return np.where(inside, np.abs(v), np.maximum(h, _next(h)))


def _chord_bound(g: Geometry, h: np.ndarray) -> np.ndarray:
    """Lower bound of h over each cell of a view of :func:`_geometry` *g*:
    the inner chord's support there."""
    return _floor(g.theta, g.width, [np.stack((g.p, g.p_next), axis=1)])


def _segments(value, slope, slack) -> list[tuple[int, int, int]]:
    """The segments of a pruned search for the max of *value* over a
    cyclic view of n points: its valleys, the least point from each falling
    one (*slope* below -*slack*) to the next rising one (above *slack*), cut
    the whole turn into segments of one peak each, as far as its points can
    tell, the highest best point first.  Each is (best point, first
    point, last point), the first and last the same when one segment runs
    around the whole turn.  The points are few, so this runs on lists."""
    n = len(value)
    best = int(value.argmax())
    # from the best point, which no valley holds: the valleys lie on one
    # turn, and the last segment runs on into the next
    value = value.tolist()
    value = (value[best:] + value[:best]) * 2 + value[best : best + 1]
    sign = ((slope > slack).astype(int) - (slope < -slack)).tolist()
    sign = sign[best:] + sign[: best + 1]
    moving = [i for i, s in enumerate(sign) if s]
    # the first least (or largest) point from i to j
    cuts = [
        value.index(min(value[i : j + 1]), i)
        for i, j in zip(moving, moving[1:])
        if sign[i] < 0 < sign[j]
    ] or [0]
    ends = [*cuts, cuts[0] + n]
    tops = [value.index(max(value[i : j + 1]), i) for i, j in zip(ends, ends[1:])]
    segments = sorted(zip(tops, ends, ends[1:]), key=lambda seg: -value[seg[0]])
    return [((best + p) % n, (best + i) % n, (best + j) % n) for p, i, j in segments]


def _seed(theta, value, slope, top: int, period: float) -> float:
    """Where the refinement from the point *top* of a cyclic view of
    *theta*, wrapped by *period*, starts: the maximizer of the cubic Hermite
    interpolant of the values and slopes at the ends of the cell from *top*
    to the neighbour its slope points to; *top* itself where its slope is 0
    or the samples say nothing finite."""
    t0, m0 = float(theta[top]), float(slope[top])
    step = 1 if m0 > 0.0 else -1
    near = (top + step) % len(theta)
    width = (step * (float(theta[near]) - t0)) % period
    # along the cell from top, s in [0, 1]: p(s) = p(0) + s (d0 + s (b + c s)),
    # in units of its largest coefficient, so that nothing overflows
    d0, d1 = width * abs(m0), step * width * float(slope[near])
    rise = float(value[near]) - float(value[top])
    scale = max(abs(d0), abs(d1), abs(rise))
    if not (d0 > 0.0 and isfinite(scale)):
        return t0
    d0, d1, rise = d0 / scale, d1 / scale, rise / scale
    b, c = 3.0 * rise - 2.0 * d0 - d1, d0 + d1 - 2.0 * rise
    # the stationary points, the roots of d0 + 2 b s + 3 c s^2
    disc = b * b - 3.0 * c * d0
    q = -(b + copysign(sqrt(max(disc, 0.0)), b))
    roots = []
    if disc >= 0.0 and q != 0.0:
        roots = [d0 / q, q / (3.0 * c)] if c else [d0 / q]
    cands = [1.0, *(s for s in roots if 0.0 < s < 1.0)]
    s = max(cands, key=lambda s: s * (d0 + s * (b + c * s)))
    return t0 + step * width * s


def _optimize(
    cells: Cells, base: np.ndarray, survey, evaluate, period: float
) -> tuple[float, float, np.ndarray]:
    """(t, f(t), angles) at the max of a function f of the support lines,
    of period *period*, pruned on the cells from the base angles *base*,
    then refined and checked; *angles* are the base angles the search grew.

    ``survey(view)`` gives (theta, f, f', bound, names, coarse) over a
    cyclic view: f and its slope at each point, a bound of f over each
    cell (the cell from a point to the next), where to split each cell, and
    which cells are coarser than the picture; ``evaluate(t)`` gives f(t)
    and the models of the branches of -f, for :func:`scan.refine`.  The
    result starts at the best point.  Each round cuts the view into
    segments (:func:`_segments`) and refines one new segment, the most
    promising one whose bound beats the best value and that holds no
    refined optimum yet, within its bracket, from the optimum that the
    values and slopes at its best point and the neighbour uphill of it
    imply (:func:`_seed`), so that no sampled angle is evaluated again,
    until a step promises less than the rounding of f.  Then
    every cell whose bound beats the best value is split: by more than the
    rounding of f outside the segments that hold a refined optimum, and
    inside them while the cell is coarser than the picture or its bound
    beats the value by more than twice RTOL times the reach, the most a
    bound at the picture's resolution overshoots one smooth optimum (the
    outer vertex lies within the picture's gap of the range, and the H_phi
    floor within sqrt(2) gaps of its objective).  Around a refined optimum
    the cells thus reach the picture's resolution, so a second peak hidden
    in its segment shows as a valley or as a farther support point.  The
    search ends once no cell's bound beats the best value by more than its
    tolerance, or, with a RuntimeWarning, once no split adds an angle.
    Every value, bound and model is in units of ``cells.unit``; the rounding
    of h is the slack of every decision and the floor of each refinement.
    """
    best = (-np.inf, 0.0)
    refined: list[float] = []  # the angles of the refined optima
    while True:
        theta, value, slope, bound, names, coarse = survey(*cells.view(base))
        top = int(value.argmax())
        best = max(best, (float(value[top]), float(theta[top])))
        angle, ceiling = theta.tolist(), bound.tolist()
        held = np.zeros(len(angle), dtype=bool)  # the segments of refined optima
        fresh = True  # no segment refined yet in this round
        # the most promising first
        for top, a, b in _segments(value, slope, cells.rounding):
            # the points a, ..., b - 1, modulo n
            inside = (slice(a, b),) if a < b else (slice(a, None), slice(0, b))
            t = angle[top]
            below = (t - angle[a]) % period
            above = period - below if a == b else (angle[b] - t) % period
            if a == b == top:  # the whole turn from the best point
                below = above = 0.5 * period
            if not any((u - t + below) % period <= below + above for u in refined):
                if not fresh:
                    continue
                peak = max(max(ceiling[i], default=-np.inf) for i in inside)
                if peak - best[0] <= cells.rounding:
                    continue
                fresh = False
                lo, hi = t - below, t + above
                start = min(max(_seed(angle, value, slope, top, period), lo), hi)
                t, v = refine(evaluate, start, lo, hi, cells.rounding)
                refined.append(t)
                best = max(best, (v, t))
            for i in inside:
                held[i] = True
        over = bound - best[0]
        tol = np.where(held & ~coarse, 2.0 * RTOL * cells.reach, cells.rounding)
        split = (over > tol).nonzero()[0]
        if not split.size:
            break
        grown = cells.extend(base, names[split])
        if len(grown) == len(base):
            warnings.warn(
                f"the pruned search stopped, as no split adds an angle, with a "
                f"cell bound {np.max(over):.3e} beyond its result {best[0]:.17g}",
                RuntimeWarning,
                stacklevel=2,
            )
            break
        base = grown
    return best[1], best[0], base


def _extremum(
    cells: Cells, base: np.ndarray, maximize: bool, bound
) -> tuple[float, np.ndarray]:
    """(max (or min) of h, in units of ``cells.unit``, the base angles
    evaluated), as the max of sign * h over full-turn views from *base*, with
    ``bound(geometry, h)`` bounding h over each cell of a view of
    :func:`_geometry` *geometry*; each open cell is split by the chord
    rule (:func:`_chord_rule`).

    The max of h sits where the top branch is smooth.  The min may sit
    where the top branch crosses the next one, or, where the whole
    spectrum meets (a segment's normal), the bottom one, so those three
    are modelled.
    """
    k = cells.c.shape[0]
    idx = [k - 1] if maximize else sorted({0, max(k - 2, 0), k - 1})
    sign = 1.0 if maximize else -1.0

    def survey(index, h, dh):
        g = _geometry(index, h, dh)
        coarse = _gap(g) > RTOL * cells.reach
        return g.theta, sign * h, sign * dh, sign * bound(g, h), _chord_rule(g), coarse

    def evaluate(t: float):
        q = branches(cells.parts, t, idx)
        return sign * float(q[0, 0, -1]), -sign * q

    _, v, base = _optimize(cells, base, survey, evaluate, 2.0 * np.pi)
    return sign * v, base


def radius(cells: Cells) -> float:
    """max of h, pruned on the vertex bound, from the start lines.

    Every support point lies in the range, and so does every eigenvalue of
    C, so w is at least the modulus of each.  A result below the larger of
    the farthest support point the search evaluated and the top eigenvalue,
    by more than the rounding of h, missed a peak (one hidden in a segment
    with lower ones), and the search runs again with that point's direction
    among its angles, where h is at least its modulus.  Every corner of the
    range is an eigenvalue (Donoghue, Michigan Math. J. 4, 1957), so a
    missed corner always shows; a missed smooth peak shows once the cells
    near it reach the picture's resolution (:func:`_optimize`).
    """
    w, base = _extremum(cells, cells.start, True, _vertex_bound)
    index, h, dh = cells.view(base)
    far = np.hypot(h, dh)  # |p_theta|
    i = int(np.argmax(far))
    with lapack("eigenvalues of C"):
        z = np.linalg.eigvals(cells.c)
    j = int(np.argmax(np.abs(z)))
    # the farther of the two points, and its direction in steps of _UNIT
    top, start = max(
        (far[i], index[i] + round(float(np.arctan2(dh[i], h[i])) / _UNIT)),
        (abs(z[j]) / cells.unit, round(float(np.angle(z[j])) / _UNIT)),
    )
    if top - w <= cells.rounding:
        return w * cells.unit
    start = np.array([start])
    w = _extremum(cells, cells.extend(base, start), True, _vertex_bound)[0]
    return w * cells.unit


def crawford(cells: Cells) -> float:
    """max(0, -min h): 0 at once when the start lines' inner polygon holds
    the origin; otherwise the min of h, pruned on the chord bound, from the
    start lines."""
    g = _geometry(*cells.view(cells.start))
    # the origin lies strictly left of every edge of the counterclockwise
    # polygon (an edge of length 0 says nothing)
    left = (g.chord.conj() * -g.p).imag[g.chord != 0]
    if left.size and np.all(left > 0.0):
        return 0.0
    return max(0.0, -_extremum(cells, cells.start, False, _chord_bound)[0]) * cells.unit


def hphi(cells: Cells) -> tuple[float, float]:
    """(min F, phi = -theta modulo pi/2 at the min), the H_phi bound of C:
    F(theta) = hypot(N(theta), N(theta + pi/2)), with N(theta) = max(h(theta),
    h(theta + pi)) the norm of the part at theta, has period pi/2, so it is
    pruned (:func:`_optimize`) on the first quarter of each view of the
    picture, a cell's bound read off the support points at the ends of its
    orbit, turned back by exact quarter turns (:func:`_floor`).  A refinement
    step models the squares of the top two and bottom two eigenvalues of both
    parts, whose largest is the squared norm: the minimum often sits at a
    kink of a norm, where a part has lambda_max = -lambda_min."""
    k = cells.c.shape[0]
    idx = sorted({0, min(1, k - 1), max(k - 2, 0), k - 1})

    def survey(index, h, dh):
        # F and its slope at the base angles, from the branch of each max
        n = len(index) // 4
        h4, dh4 = h.reshape(4, n), dh.reshape(4, n)
        top = h4[:2] >= h4[2:]  # N's branch
        norm = np.where(top, h4[:2], h4[2:])
        f = np.hypot(norm[0], norm[1])
        slope = np.where(top, dh4[:2], dh4[2:])
        df = np.sum(norm * slope, axis=0) / np.where(f > 0, f, 1.0)
        g = _geometry(index, h, dh)
        ends = np.stack((g.p, g.p_next), axis=1).reshape(4, n, 2) * _BACK
        groups = [np.concatenate((ends[r], ends[r + 2]), axis=1) for r in (0, 1)]
        theta = g.theta[:n]
        bound = -_floor(theta, g.width[:n], groups)
        names = index[:n] + g.span[:n] // 2
        # the picture's cells, and every split of them, are at its resolution
        return theta, -f, -df, bound, names, np.zeros(n, dtype=bool)

    def evaluate(theta: float):
        angles = theta + np.array([0.0, 0.5 * np.pi])
        v, g, cv = branches(cells.parts, angles, idx)
        # the squares' model over twice the objective is the objective's
        # model to first order, in the same units as the branches
        squares = np.stack((v * v, 2.0 * v * g, 2.0 * (g * g + v * cv)))
        value = np.sqrt(np.sum(np.max(squares[0], axis=1)))
        norms = np.maximum(v[:, -1], -v[:, 0])
        return -hypot(*norms), squares / (2.0 * value or 1.0)

    theta, best, _ = _optimize(cells, cells.picture, survey, evaluate, 0.5 * np.pi)
    return -best * cells.unit, -theta % (0.5 * np.pi)


def degenerate_warning(stacklevel: int = 3) -> None:
    """Warn that a rank-0 weight makes every range quantity 0."""
    warnings.warn(
        "weight matrix has rank 0; the effective space is empty and all "
        "range quantities are reported as 0",
        RuntimeWarning,
        stacklevel=stacklevel,
    )


def _memo(op: SemiOperator, key: str, compute):
    """*op*'s value under *key*, computed on first read and kept in the
    instance ``__dict__``, where ``cached_property`` keeps ``adjoint``."""
    memo = vars(op)
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def operator_cells(op: SemiOperator) -> Cells:
    """The support-line cells of the operator *op*, made once per operator."""
    return _memo(op, "_cells", lambda: Cells(op.compressed))


def extreme(op: SemiOperator, key: str, compute, empty):
    """*compute* of *op*'s cells, once per operator, kept under *key*;
    *empty*, with a warning at the line that called the caller, on every
    call, if C is empty."""
    if op.compressed.shape[0] == 0:
        degenerate_warning(stacklevel=4)
        return empty
    return _memo(op, key, lambda: compute(operator_cells(op)))
