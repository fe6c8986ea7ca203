"""Weighted numerical range, radius, and Crawford number.

Everything runs on the compressed matrix C = L^(1/2) Q* T Q L^(-1/2)
built from the kept eigenpairs (L, Q) of A, whose classical numerical
range equals the weighted range of T.  One kernel, :func:`_rotated`,
builds the rotated Hermitian parts Re(exp(-i*theta) C), one matrix or a
stack of them, and every range quantity is read off the support function

    h(theta) = lambda_max(Re(exp(-i*theta) C)).

Its samples are Johnson's support-line cells (SIAM J. Numer. Anal. 15,
1978; :class:`_Cells`): one eigh of the part at theta gives h at theta
and, the part at theta + pi being minus it, at theta + pi, and the
eigenvector gives the slope h' and so the support point
p_theta = exp(i theta) (h + i h').  Between two neighbouring angles the
points span a chord of the inner polygon and their support lines meet at
a vertex of the outer polygon; the range lies between the two.  The
cells start from 32 support lines and are refined, in rounds of one
stacked eigensolve each, until every outer vertex lies within RTOL times
the largest h of its chord: the picture, made once per operator and kept
on it (like its ``adjoint``).  Every quantity below starts from it:

  * radius   w = max_theta h(theta), pruned on the outer vertices,
  * crawford m = max(0, -min_theta h(theta))   (support duality), 0 at
    once when the inner polygon holds the origin, else pruned on the
    chords,
  * boundary: the inner polygon's support points and the outer polygon's
    vertices, in angle order,
  * inclusion: z lies in the range iff Re(exp(-i*theta) z) <= h(theta)
    for every theta.

A pruned search groups the cells whose bound beats the best value into
runs, cuts each run at the valleys of its points into segments of one
peak, bisects a segment until its points agree on that peak, refines
every segment's best angle by second-order steps on its eigenvalue
branches (:mod:`semirad.scan`), and bisects on while a cell's bound beats
the best refined value: outside the refined segments by more than the
rounding of h, inside them by more than the picture's resolution.  Every
batched eigensolve runs in chunks of at most CHUNK_ENTRIES matrix
entries, so its memory does not grow with the number of angles.

Two independent cross-checks live here as well: the rotation identity
path through the weighted real part on its own fixed grid
(:func:`w_theta_identity_check`) and a Monte-Carlo supremum over random
weighted-unit vectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import NotStrictlyPositive, NumericalFailure
from .linalg import require_square, spectral_norm
from .scan import _eigen, _unit, branches, refine_best
from .semihilbert import SemiOperator, im_a, re_a

#: Outer-inner gap of every cell of the range picture, relative to the
#: radius, down to which :func:`estimate_range` bisects the cells.
RTOL = 1e-3

#: Complex entries in one stack of matrices handed to LAPACK (1 MiB): the
#: batched eigensolves run over chunks of angles this size.
CHUNK_ENTRIES = 2**16

# Angles are integer multiples of _UNIT, 2**30 to the quarter turn, so that
# a midpoint, a rotation by pi/2 and the test for an angle already seen are
# exact.  The cells start from _START support lines per quarter turn (32 in
# all: 16 parts of the half turn).  A pruned search bisects at most _SPLITS
# cells per round, in at most _ROUNDS rounds, so that a function flat to
# the resolution of its bounds (h of a disk) stays cheap; it refines every
# segment that may hold the optimum, however many.
_QUARTER = 2**30
_UNIT = 0.5 * np.pi / _QUARTER
_START = 8
_SPLITS = 4
_ROUNDS = 16
_EPS = np.finfo(np.float64).eps


def _rotated(c: np.ndarray, theta) -> np.ndarray:
    """Re(exp(-i*theta) C) = (exp(-i*theta) C + exp(i*theta) C*) / 2.

    A scalar theta gives one Hermitian matrix, an array of angles the
    stack of them.
    The phase is halved before the sum, so entries near the float limit
    do not overflow; halving is exact, so the result is the same.
    """
    half = 0.5 * np.exp(1j * np.asarray(theta, dtype=np.float64))[..., None, None]
    return half.conj() * c + half * c.conj().T


def _chunks(m: int, k: int, copies: int = 1) -> list[slice]:
    """Slices of *m* stacked k x k matrices, each holding at most
    CHUNK_ENTRIES entries in *copies* arrays of its size (one matrix at
    least)."""
    step = max(1, CHUNK_ENTRIES // (copies * k * k))
    return [slice(i, min(i + step, m)) for i in range(0, m, step)]


class _Cells:
    """The support-line cells of C (Johnson, SIAM J. Numer. Anal. 15, 1978).

    Every angle theta evaluated gives the support value h(theta) and the
    support point p_theta = exp(i theta) (h + i h'), the point x* C x of
    the top eigenvector x, whose slope h' = x* Im(exp(-i theta) C) x comes
    with the eigenvector (:func:`scan._eigen`).  Between two neighbouring
    angles a < b lies a cell: the points p_a, p_b span a chord of the inner
    polygon, inside the range, and the support lines at a and b meet at a
    vertex of the outer polygon, around it, so h on [a, b] lies between
    the support functions of the chord and of the vertex.

    One eigh of the part at theta gives h at theta (top branch) and at
    theta + pi (bottom branch), and angles are evaluated for a whole
    quarter-turn orbit at once, so the set is closed under rotation by
    pi/2 and the norm of every part at theta + pi/2 is known too.  Values
    are kept, in units of a power of two at the scale of C, per base angle
    in [0, pi/2).  The cells start from 32 support lines, evaluated at
    once, and are bisected on first read of the picture, round by round,
    until every outer vertex lies within RTOL * max h of its inner chord.
    Each pruned search grows its own set of base angles from the picture,
    so what it reads depends on C alone, and no angle is evaluated twice.
    """

    def __init__(self, c: np.ndarray):
        self.c = c
        self.unit = _unit(float(np.max(np.abs(c))))
        self.base = np.zeros(0, dtype=np.int64)
        self.h = self.dh = np.zeros((0, 4))
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
        """The largest modulus of the picture's outer polygon, which holds
        the range, so that it bounds the radius: the scale of every later
        decision, in units of ``unit``."""
        return float(np.max(np.abs(_geometry(*self.view(self.picture))[4])))

    def evaluate(self, base: np.ndarray) -> None:
        """One round: the parts at the new base angles and a quarter turn
        on, in stacked eigh calls of at most CHUNK_ENTRIES entries."""
        k, n = self.c.shape[0], len(base)
        angles = np.concatenate((base, base + _QUARTER)) * _UNIT
        value, slope = [], []
        # the parts and their eigenvectors: two stacks of the chunk's size
        for s in _chunks(len(angles), k, copies=2):
            try:
                lam, vec, y = _eigen(
                    lambda t: _rotated(self.c, t), angles[s], [0, -1], self.unit
                )
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure(
                    f"eigensolve of the support lines failed: {exc}"
                ) from exc
            value.append(lam[:, [0, -1]] / self.unit)
            slope.append((vec[:, :, [0, -1]].conj() * y).sum(axis=1).real)
        # top branch at base, base + pi/2; bottom at base + pi, base + 3 pi/2
        h, dh = (
            np.concatenate((r[:n, 1:], r[n:, 1:], -r[:n, :1], -r[n:, :1]), axis=1)
            for r in (np.concatenate(value), np.concatenate(slope))
        )
        merged = np.concatenate((self.base, base))
        order = merged.argsort(kind="stable")
        self.base = merged[order]
        self.h = np.concatenate((self.h, h))[order]
        self.dh = np.concatenate((self.dh, dh))[order]

    def view(self, base: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(index, h, h') over the whole turn, in angle order, for the
        sorted base angles *base*; the angle is index * _UNIT."""
        i = np.searchsorted(self.base, base)
        index = (base + _QUARTER * np.arange(4)[:, None]).ravel()
        return index, self.h[i].T.ravel(), self.dh[i].T.ravel()

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


def _member(x: np.ndarray, sorted_: np.ndarray) -> np.ndarray:
    """Which entries of *x* the sorted array *sorted_* holds."""
    at = np.minimum(np.searchsorted(sorted_, x), len(sorted_) - 1)
    return sorted_[at] == x


def _coarse(index, h, dh):
    """The picture's rule: split every cell whose gap exceeds RTOL * max h
    into 2^L equal cells, L = log4 of the excess rounded up (at most 6):
    the gap of a smooth arc shrinks fourfold with each bisection, so most
    cells need one round; one at a corner, whose gap shrinks twofold,
    takes more."""
    gap, tol = _gap(*_geometry(index, h, dh)[2:]), RTOL * h.max()
    cells = (gap > tol).nonzero()[0]
    levels = np.minimum(np.ceil(0.5 * np.log2(gap[cells] / tol)), 6).astype(np.int64)
    inner = 2**levels - 1  # new points per split cell
    # the points a + j (b - a) / 2^L, 0 < j < 2^L, of each split cell
    cell = cells.repeat(inner)
    j = np.arange(len(cell)) - (inner.cumsum() - inner).repeat(inner) + 1
    return index[cell] + _span(index)[cell] * j // (inner + 1).repeat(inner)


def _cells(op: SemiOperator) -> _Cells:
    """The support-line cells of *op*, made once per operator."""
    return _memo(op, "_cells", lambda: _Cells(op.compressed))


def _next(x: np.ndarray) -> np.ndarray:
    """*x* at the next point of a cyclic view."""
    return np.concatenate((x[1:], x[:1]))


def _span(index: np.ndarray, turn: int = 4 * _QUARTER) -> np.ndarray:
    """Width of each cell of a cyclic view of *index* over *turn*."""
    nxt = _next(index)
    nxt[-1] += turn
    return nxt - index


def _midpoints(index: np.ndarray, turn: int = 4 * _QUARTER) -> np.ndarray:
    """Midpoints of the cells of a cyclic view of *index* over *turn*."""
    return index + _span(index, turn) // 2


def _geometry(index: np.ndarray, h: np.ndarray, dh: np.ndarray):
    """(theta, width, p, p_next, vertex) of every cell of a view, the cell
    of an angle running to the next one: the support points at both ends
    and the outer vertex where their support lines meet."""
    theta = index * _UNIT
    width = _span(index) * _UNIT
    turn = np.exp(1j * theta)
    p = turn * (h + 1j * dh)
    p_next = _next(p)
    # along the line at theta from p to where it meets the next one; the
    # points' difference carries no cancellation of h itself
    t = np.real(_next(turn).conj() * (p_next - p)) / np.sin(width)
    return theta, width, p, p_next, p + 1j * turn * t


def _gap(p: np.ndarray, p_next: np.ndarray, vertex: np.ndarray) -> np.ndarray:
    """Distance from each outer vertex to its inner chord [p, p_next]:
    every point between the two polygons in a cell lies this close to the
    inner one."""
    chord = p_next - p
    norm = np.abs(chord) ** 2
    along = np.divide(
        np.real((vertex - p) * chord.conj()),
        norm,
        out=np.zeros_like(norm),
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


def _vertex_bound(index, h, dh) -> np.ndarray:
    """Upper bound of h over each cell: the outer vertex's support there,
    its modulus if the cell holds its direction, else the larger end."""
    theta, width, _, _, vertex = _geometry(index, h, dh)
    inside = (np.angle(vertex) - theta) % (2.0 * np.pi) <= width
    return np.where(inside, np.abs(vertex), np.maximum(h, _next(h)))


def _chord_bound(index, h, dh) -> np.ndarray:
    """Lower bound of h over each cell: the inner chord's support there."""
    theta, width, p, p_next, _ = _geometry(index, h, dh)
    return _floor(theta, width, [np.stack((p, p_next), axis=1)])


def _valleys(value: np.ndarray, slope: np.ndarray, slack: float) -> list[int]:
    """Positions of the valleys of a sequence of points: the least point
    from each falling one (*slope* below -slack) to the next rising one
    (above slack), which parts two peaks."""
    sign = np.where(slope > slack, 1, np.where(slope < -slack, -1, 0))
    moving = np.flatnonzero(sign)
    turn = (sign[moving[:-1]] < 0) & (sign[moving[1:]] > 0)
    return [
        i + int(np.argmin(value[i : j + 1]))
        for i, j in zip(moving[:-1][turn].tolist(), moving[1:][turn].tolist())
    ]


def _segments(value, slope, excess, slack) -> tuple[np.ndarray, list]:
    """One round of a pruned search for the max of *value* over a cyclic
    view of n points: (cells to bisect, segments to refine).

    A cell, running from its point to the next, is open while *excess*
    (its bound of *value* less the best value) is above *slack*, and so
    are the two cells next to the best point.  Each run of consecutive
    open cells may hold the max; its valleys (:func:`_valleys`) cut it into
    segments of one peak each, as far as its points can tell; each is
    (best point, first point, last point), the first and last the same
    around the whole turn.  A segment is ready when *slope* rises into its
    best point and falls after it at every point inside it; the cells of
    the segments that are not ready are bisected, at most _SPLITS of them
    by excess.
    """
    n = len(value)
    opened = excess > slack
    best = int(np.argmax(value))
    opened[[best, best - 1]] = True
    if opened.all():
        # one run around the whole turn, from and back to the best point
        first, last = np.array([best]), np.array([best + n])
    else:
        # shift so that a shut cell comes first, and find where runs start
        # and end
        shift = int(np.argmin(opened))
        padded = np.concatenate(([0], np.roll(opened, -shift), [0]))
        edge = np.diff(padded.astype(np.int8))
        first, last = edge.nonzero()[0].reshape(-1, 2).T + shift
    segments, split = [], []
    for a, b in zip(first.tolist(), last.tolist()):
        points = np.arange(a, b + 1) % n
        cuts = _valleys(value[points], slope[points], slack)
        if b - a == n:
            # around the whole turn, the segments run from valley to valley
            cuts = [i for i in cuts if 0 < i < n]
            ends = [*cuts, cuts[0] + n] if cuts else [0, n]
        else:
            ends = [0, *cuts, b - a]
        for i, j in zip(ends[:-1], ends[1:]):
            run = (a + np.arange(i, j + 1)) % n
            top = int(np.argmax(value[run]))
            g = slope[run]
            segments.append((int(run[top]), int(run[0]), int(run[-1])))
            if np.any(g[1:top] < -slack) or np.any(g[top + 1 : -1] > slack):
                split.append(run[:-1])
    cells = np.concatenate(split) if split else np.zeros(0, dtype=np.int64)
    return _top(cells, excess), segments


def _top(cells: np.ndarray, excess: np.ndarray) -> np.ndarray:
    """The at most _SPLITS of *cells* with the largest *excess*."""
    return cells[np.argsort(-excess[cells], kind="stable")][:_SPLITS]


def _optimize(cells: _Cells, survey, refine, period: float) -> tuple[float, float]:
    """(t, f(t)) at the max of a function f of the support lines, of period
    *period*, pruned on the cells, then refined and checked.

    ``survey(view)`` gives (theta, f, f', bound, names) over a cyclic view:
    f and its slope at each point, a bound of f over each cell (the cell
    from a point to the next) and each cell's midpoint; ``refine(theta, f,
    below, above)`` refines from the point theta within the bracket.  The
    result starts at the best point.  The cells are bisected round by
    round until every segment of open cells is ready (:func:`_segments`);
    each segment is then refined from its best point within its bracket,
    and the best value is kept once no cell's bound beats it: by more than
    the rounding of f outside the refined segments, and by more than twice
    RTOL times the picture's reach inside them, the most a bound at the
    picture's resolution overshoots one smooth optimum (the outer vertex
    lies within the picture's gap of the range, and the H_phi floor within
    sqrt(2) gaps of its objective).  Otherwise the cells that beat it are
    bisected and the search goes on.  After _ROUNDS rounds every segment
    is refined, ready or not, and a bound that still beats the result is
    reported by a RuntimeWarning.
    """
    base = cells.picture
    reach = cells.reach * cells.unit
    # the rounding of h: the backward error of eigh, carried over by Weyl's
    # inequality
    slack = 4.0 * cells.c.shape[0] * _EPS * reach
    best = (-np.inf, 0.0)
    refined: dict = {}
    for rounds in range(_ROUNDS + 1):
        theta, value, slope, bound, names = survey(*cells.view(base))
        top = int(np.argmax(value))
        best = max(best, (float(value[top]), float(theta[top])))
        split, segments = _segments(value, slope, bound - best[0], slack)
        if split.size and rounds < _ROUNDS:
            base = cells.extend(base, names[split])
            continue
        n = len(value)
        tol = np.full(n, slack)
        # the most promising first, so that a better result can shut the
        # segments after it
        for top, a, b in sorted(segments, key=lambda seg: -value[seg[0]]):
            inside = (a + np.arange((b - a) % n or n)) % n
            if np.max(bound[inside]) - best[0] <= slack:
                continue
            below = (theta[top] - theta[a]) % period
            above = period - below if a == b else (theta[b] - theta[top]) % period
            if a == b == top:  # the whole turn from the best point
                below = above = 0.5 * period
            key = (float(theta[top]), below, above)
            if key not in refined:
                refined[key] = refine(theta[top], value[top], below, above)
            t, v = refined[key]
            best = max(best, (v, t))
            tol[inside] = 2.0 * RTOL * reach
        over = bound - best[0]
        split = _top(np.flatnonzero(over > tol), over)
        if not split.size:
            break
        if rounds == _ROUNDS:
            warnings.warn(
                f"the pruned search stopped after {_ROUNDS} rounds with a "
                f"cell bound {np.max(over):.3e} beyond its result "
                f"{best[0]:.17g}, which may miss the optimum",
                RuntimeWarning,
                stacklevel=2,
            )
            break
        base = cells.extend(base, names[split])
    v, t = best
    return t, v


def _support_survey(cells: _Cells, sign: float, bound):
    """survey of sign * h for :func:`_optimize` over full-turn views, with
    ``bound(view)`` bounding h over each cell."""

    def survey(index, h, dh):
        s = sign * cells.unit
        return index * _UNIT, s * h, s * dh, s * bound(index, h, dh), _midpoints(index)

    return survey


def _extremum(cells: _Cells, maximize: bool, bound) -> float:
    """max (or min) of h.

    The max of h sits where the top branch is smooth.  The min may sit
    where the top branch crosses the next one, or, where the whole
    spectrum meets (a segment's normal), the bottom one, so those three
    are modelled.
    """
    c = cells.c
    k = c.shape[0]
    idx = [k - 1] if maximize else sorted({0, max(k - 2, 0), k - 1})
    sign = 1.0 if maximize else -1.0
    scale = cells.reach * cells.unit

    def evaluate(t: float):
        lam_t, q = branches(lambda u: _rotated(c, u), t, idx, scale)
        return float(lam_t[0, -1]), -sign * q

    def refine(theta, value, below, above):
        t, f = refine_best(evaluate, [theta], [sign * value], (below, above), maximize)
        return t, sign * f

    survey = _support_survey(cells, sign, bound)
    return sign * _optimize(cells, survey, refine, 2.0 * np.pi)[1]


def _radius(cells: _Cells) -> float:
    """max of h, pruned on the vertex bound."""
    return _extremum(cells, True, _vertex_bound)


def _crawford(cells: _Cells) -> float:
    """max(0, -min h): 0 at once when the picture's inner polygon holds the
    origin; otherwise the min of h, pruned on the chord bound."""
    _, _, p, p_next, _ = _geometry(*cells.view(cells.picture))
    edge = p_next - p
    # the origin lies strictly left of every edge of the counterclockwise
    # polygon (an edge of length 0 says nothing)
    left = np.imag(edge.conj() * -p)[edge != 0]
    if left.size and np.all(left > 0.0):
        return 0.0
    return max(0.0, -_extremum(cells, False, _chord_bound))


def _degenerate_warning(stacklevel: int = 3) -> None:
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


def _extreme(op: SemiOperator, key: str, compute) -> float:
    """*compute* of *op*'s cells, once per operator; 0 with a warning, on
    every call, if C is empty."""
    if op.compressed.shape[0] == 0:
        _degenerate_warning(stacklevel=4)
        return 0.0
    return _memo(op, key, lambda: compute(_cells(op)))


def a_numerical_radius(op: SemiOperator) -> float:
    """Weighted numerical radius, the max of the support function.

    Starting from the picture, the cells whose outer vertex could beat the
    best h form runs, cut at their valleys into segments of one peak; the
    top eigenvalue branch is refined from each segment's best angle by
    second-order steps (:func:`scan.refine_best`), and the best refined
    value is kept once no vertex beats it (:func:`_optimize`).
    """
    return _extreme(op, "_radius", _radius)


def a_crawford(op: SemiOperator) -> float:
    """Weighted Crawford number (least modulus over the range).

    By support duality the distance from the origin to the convex range
    is max(0, -min_theta h(theta)).  A value of 0 means the origin lies in
    the range; when the picture's inner polygon already holds it strictly
    inside, nothing is refined.  Otherwise the cells are pruned on the chord
    bound of h and the minimum is refined on the eigenvalue branches that
    may cross there.
    """
    return _extreme(op, "_crawford", _crawford)


@dataclass(frozen=True)
class RangeEstimate:
    """Polygonal picture of the weighted numerical range.

    ``boundary`` holds the support points of the inner polygon, one per
    evaluated angle in angle order (at least 32), each on the support line
    of its angle; where the range has a flat edge normal to that angle,
    the point may be any point of the edge.  ``outer`` holds the vertices
    of the outer polygon, where the support lines of neighbouring angles
    meet, one per cell in the same order, so the range lies between the
    two polygons, which lie at most RTOL times the radius apart.
    ``radius`` and ``crawford`` are the refined extremal moduli.
    ``degenerate`` flags a rank-0 weight, where the range is empty and
    every quantity is reported as 0.
    """

    radius: float
    crawford: float
    boundary: np.ndarray
    outer: np.ndarray
    degenerate: bool = False


def _picture(op: SemiOperator) -> tuple:
    """(theta, h, boundary, outer, gap) of the picture of *op*, one entry
    per angle or per cell, in angle order."""
    cells = _cells(op)
    index, h, dh = cells.view(cells.picture)
    _, _, p, p_next, vertex = _geometry(index, h, dh)
    s = cells.unit
    return index * _UNIT, h * s, p * s, vertex * s, _gap(p, p_next, vertex) * s


def estimate_range(op: SemiOperator) -> RangeEstimate:
    """Radius, Crawford number, and the inner and outer polygons."""
    if op.compressed.shape[0] == 0:
        _degenerate_warning()
        empty = np.zeros(0, dtype=np.complex128)
        return RangeEstimate(
            radius=0.0, crawford=0.0, boundary=empty, outer=empty, degenerate=True
        )
    _, _, boundary, outer, _ = _picture(op)
    return RangeEstimate(
        radius=a_numerical_radius(op),
        crawford=a_crawford(op),
        boundary=boundary,
        outer=outer,
    )


#: Number of angles in the theta grid of :func:`w_theta_identity_check`.
THETA_GRID = 720


def w_theta_identity_check(op: SemiOperator) -> float:
    """Radius through the rotation identity, as an independent path.

    w(T) = max_theta ||Re_A(exp(i*theta) T)||_A, and the weighted real part
    is cos(theta) Re_A(T) - sin(theta) Im_A(T).  Both parts are formed once
    in full space from the weighted adjoint (not from C's rotation kernel);
    the seminorm over its own grid of THETA_GRID angles is the batched SVD
    of their compressed combinations over the half turn (the norm has
    period pi), chunked like every batched eigensolve.  The combinations
    form a Hermitian family like the rotated parts, so the best theta is
    refined on the larger of the branches lambda_max and -lambda_min, like
    the radius.  Agrees with :func:`a_numerical_radius` to ~1e-8.
    """
    c_re, c_im = re_a(op).compressed, im_a(op).compressed
    if c_re.shape[0] == 0:
        return 0.0

    def part(theta):
        theta = np.asarray(theta)[..., None, None]
        return np.cos(theta) * c_re - np.sin(theta) * c_im

    k = c_re.shape[0]
    thetas = np.linspace(0.0, 2.0 * np.pi, THETA_GRID, endpoint=False)
    # the part at theta + pi is minus the part at theta: same norm, so the
    # SVDs run over the half turn, chunked like every batched eigensolve
    half = thetas[: THETA_GRID // 2]
    norms = np.concatenate(
        [
            np.linalg.svd(part(half[s]), compute_uv=False)[:, 0]
            for s in _chunks(len(half), k)
        ]
    )
    scale = float(np.max(norms))

    def norm(theta: float):
        # the norm is the larger of lambda_max and -lambda_min; refine that
        # branch, whose max is smooth
        lam, q = branches(part, theta, [0, k - 1], scale)
        top = lam[0, -1] >= -lam[0, 0]
        model = -q[:, :, 1:] if top else q[:, :, :1]
        return float(max(lam[0, -1], -lam[0, 0])), model

    step = 2.0 * np.pi / THETA_GRID
    return refine_best(norm, thetas, np.tile(norms, 2), step, True)[1]


def general_eig(m) -> np.ndarray:
    """Eigenvalues of a general (non-Hermitian) square matrix.

    Each returned pair is accepted only if the residual ||Mv - lambda v||
    stays below 1e-8 * ||M|| (0 for a zero M); otherwise NumericalFailure.
    """
    mat = require_square(m)
    try:
        lam, vec = np.linalg.eig(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvalue iteration failed: {exc}") from exc
    scale = spectral_norm(mat)
    # in units of ||M||, so that squares of tiny residuals cannot underflow
    residual = (mat @ vec - vec * lam[None, :]) / (scale or 1.0)
    worst = float(np.max(np.linalg.norm(residual, axis=0))) if lam.size else 0.0
    tol = 1e-8 if scale else 0.0
    if worst > tol:
        raise NumericalFailure(
            f"eigenpair residual {worst:.3e} ||M|| exceeds tolerance {tol:.0e} ||M||"
        )
    return lam


@dataclass(frozen=True)
class InclusionReport:
    """Outcome of the spectrum-inside-range check."""

    eigenvalues: np.ndarray
    max_violation: float
    tolerance: float
    radius: float
    passed: bool


def spectral_inclusion_check(op: SemiOperator) -> InclusionReport:
    """Check that every eigenvalue of T lies in the computed range.

    The support-line test: z lies in the range iff Re(exp(-i*theta) z)
    <= h(theta) for every theta, so an eigenvalue's violation is its
    largest excess over the support lines of the picture (0 inside), a
    distance never larger than the one to the inner polygon.  The check
    passes when every violation is at most 1e-6 times the radius, a gate
    that scales with T.  Only meaningful when the
    weight is strictly positive (A >= mI with m > 0); a singular weight
    can shrink the range until it misses part of the spectrum, so that
    case is rejected outright.
    """
    if not op.context.strictly_positive:
        raise NotStrictlyPositive(
            "spectral inclusion requires a strictly positive weight "
            f"(rank {op.context.rank} < dimension {op.context.dim})"
        )
    eigenvalues = general_eig(op.matrix)
    theta, h = _picture(op)[:2]
    excess = (np.exp(-1j * theta) * eigenvalues[:, None]).real - h
    worst = max(0.0, float(np.max(excess)))
    radius = a_numerical_radius(op)
    tol = 1e-6 * radius
    return InclusionReport(
        eigenvalues=eigenvalues,
        max_violation=worst,
        tolerance=tol,
        radius=radius,
        passed=worst <= tol,
    )


def _sphere_sup(value_fn, dim: int, samples: int, seed: int) -> float:
    """Supremum of value_fn over random unit vectors, budgeted adaptively.

    Half the budget explores uniformly; the rest perturbs the incumbent
    with a shrinking radius.  Every evaluated point is a genuine unit
    vector, so the result never exceeds the true supremum.
    """
    if dim == 0 or samples <= 0:
        return 0.0
    rng = np.random.default_rng(seed)
    batch = 1000
    best, best_vec = -np.inf, None

    def draw(k: int) -> np.ndarray:
        return rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))

    def normalize(z: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(z, axis=1)
        norms[norms < 1e-300] = 1.0
        return z / norms[:, None]

    explore, used, sigma = max(1, samples // 2), 0, 0.5
    while used < samples:
        # explore uniformly up to *explore*, then perturb the incumbent
        z = draw(min(batch, (explore if used < explore else samples) - used))
        if used >= explore:
            z = best_vec[None, :] + sigma * z
            sigma = max(sigma * 0.9, 1e-5)
        c = normalize(z)
        v = value_fn(c)
        i = int(np.argmax(v))
        if v[i] > best:
            best, best_vec = float(v[i]), c[i]
        used += len(z)
    return float(best)


def monte_carlo_radius(
    op: SemiOperator, samples: int = 100_000, seed: int = 0
) -> float:
    """Sampling oracle for the radius: sup |<T x, x>_A| over random
    weighted-unit vectors.

    Vectors are drawn in orthonormal coordinates on range(A); each sample
    c corresponds to the weighted-unit vector x = Q L^(-1/2) c, whose
    quadratic form equals c* C c with the compressed matrix C.  Lower
    bound in exact arithmetic; approaches the radius from below.
    """
    c_mat = op.compressed

    def values(c: np.ndarray) -> np.ndarray:
        return np.abs(np.einsum("bi,ij,bj->b", c.conj(), c_mat, c))

    return _sphere_sup(values, c_mat.shape[0], samples, seed)


def monte_carlo_seminorm(
    op: SemiOperator, samples: int = 100_000, seed: int = 0
) -> float:
    """Sampling oracle for the operator seminorm: sup ||T x||_A over
    random weighted-unit vectors (same coordinates as the radius oracle,
    where ||T x||_A = ||C c||)."""
    m = op.compressed

    def values(c: np.ndarray) -> np.ndarray:
        return np.linalg.norm(c @ m.T, axis=1)

    return _sphere_sup(values, m.shape[1], samples, seed)
