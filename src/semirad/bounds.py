"""Certified brackets around the weighted numerical radius.

Lower bounds combine the seminorm of one rotation component with the
Crawford number of the other; the upper bound minimizes the two-term
rotation functional over phi.  The weighted real and imaginary parts
compress to the Hermitian Re C and Im C, and H_phi to Re(exp(i*phi) C),
so the radius and every bound of one operator are read off its
support-line cells (:class:`cells.Cells`), made once per operator and
kept on it: both lower bounds off the start lines at 0 and pi/2, and the
H_phi objective at every angle of the picture, whose angles are closed
under rotation by pi/2.  The cells module owns all three searches (the
radius, the Crawford number and :func:`cells.hphi`) and the quarter-turn
layout they read; the H_phi value is kept on the operator, and
:func:`bound_report` reads it there.  The block bounds read w(T11) and
w(T22) from the same per-operator cells, whose radius searches grow only
the cells they need from the start lines, never the picture.  A rank-0
weight makes every bound 0, with one warning at the caller's line.
For 2x2 operator matrices under the doubled weight diag(A, A), four
closed-form upper bounds are provided, two of them carrying a free
parameter t in [0, 1] whose optimum is closed-form as well.  Lemma 2.4
is bound 25 with a zero bottom row, and bound 28 is bound 27 of the
swapped blocks (T22, T21, T12, T11), the swap [[0, I], [I, 0]] being
unitary under diag(A, A).  The doubled weight compresses blockwise, so
the block matrix's own radius is read off the block matrix of its
compressed blocks.

Report builders package the bounds together with the reference radius of
the same operator so every bracket is checkable in isolation.  Every
sum of squares goes through ``hypot``, so each bound scales with T and
neither underflows to 0 nor overflows to inf where T's own quantities do
not.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot

import numpy as np

from .arange import a_numerical_radius
from .cells import Cells, degenerate_warning, extreme, hphi, operator_cells, radius
from .errors import TOutOfRange, ValidationError
from .semihilbert import (
    SemiOperator,
    a_operator_seminorm,
    make_context,
    make_operator,
    require_same_context,
)

__all__ = [
    "BoundReport",
    "MatrixBoundReport",
    "assemble_blocks",
    "block_bound_lemma24",
    "block_bound_th25",
    "block_bound_th27",
    "block_bound_th28",
    "bound_report",
    "lower_bound_21",
    "lower_bound_22",
    "matrix_bound_report",
    "optimize_t",
    "upper_bound_hphi",
]


def _lower_bounds(op: SemiOperator) -> tuple[float, float]:
    """(lower_bound_21, lower_bound_22) off the start of the support-line
    cells, whose angle 0 part is Re C and angle pi/2 part Im C; 0 under a
    rank-0 weight, with one warning at the caller's line."""
    if op.compressed.shape[0] == 0:
        degenerate_warning(stacklevel=4)
        return 0.0, 0.0
    h = operator_cells(op).axes()
    # Re C and Im C have extreme eigenvalues lo = -h[2:] and hi = h[:2], so
    # norms max(hi, -lo) and Crawford numbers (distances of [lo, hi] to 0)
    # max(0, lo, -hi)
    norm = np.maximum(h[:2], h[2:])
    craw = np.maximum(0.0, np.maximum(-h[2:], -h[:2]))
    return hypot(norm[0], craw[1]), hypot(norm[1], craw[0])


def lower_bound_21(op: SemiOperator) -> float:
    """sqrt(||real part||^2 + crawford(imag part)^2), a lower bound on the
    radius that refines the plain ||real part|| bound."""
    return _lower_bounds(op)[0]


def lower_bound_22(op: SemiOperator) -> float:
    """Mirror image of lower_bound_21 with the two parts swapped."""
    return _lower_bounds(op)[1]


def upper_bound_hphi(op: SemiOperator) -> tuple[float, float]:
    """Upper bound min over phi of hypot(||H_phi||, ||H_{phi+pi/2}||).

    H_phi is the weighted real part of exp(i*phi) T, whose seminorm is
    the spectral radius of Re(exp(i*phi) C), the part at theta = -phi.
    A part's norm has period pi in theta, so the objective at phi = -theta
    pairs the support values at theta and theta + pi with those a quarter
    turn on, all known at every angle of the support-line cells, whose
    pruned search :func:`cells.hphi` runs.  Returns (value, phi) with phi
    in [0, pi/2), kept on the operator; 0 under a rank-0 weight, with a
    warning.
    """
    return extreme(op, "_hphi", hphi, (0.0, 0.0))


def _block_scalars(
    t11: SemiOperator, t12: SemiOperator, t21: SemiOperator, t22: SemiOperator
) -> tuple[float, float, float, float]:
    """(w(T11), w(T22), ||T12||, ||T21||), the inputs of every block bound;
    all 0 under a rank-0 weight, with one warning at the caller's line."""
    require_same_context(t11, t12, t21, t22)
    if t11.context.rank == 0:
        degenerate_warning(stacklevel=4)
        return 0.0, 0.0, 0.0, 0.0
    return (
        a_numerical_radius(t11),
        a_numerical_radius(t22),
        a_operator_seminorm(t12),
        a_operator_seminorm(t21),
    )


def _th25_value(w11: float, w22: float, n12: float, n21: float) -> float:
    return 0.5 * (w11 + w22 + hypot(w11, n12) + hypot(w22, n21))


def _split_value(scalars: tuple[float, ...], t: float) -> float:
    """Bound 27: w(T11) split t : (1-t) between the radicals of ||T12||
    and ||T21||."""
    lead, other, up, down = scalars
    return (
        0.5 * lead
        + other
        + 0.5 * hypot(t * lead, up)
        + 0.5 * hypot((1.0 - t) * lead, down)
    )


def _optimize_split(scalars: tuple[float, ...]) -> tuple[float, float]:
    """The two radicals are the legs of a path from (0, up) to (lead, -down)
    through (t * lead, 0); the straight path is shortest, so it crosses at
    t = up / (up + down) and has length hypot(lead, up + down)."""
    lead, other, up, down = scalars
    t = up / (up + down) if up + down > 0 else 0.5
    return t, 0.5 * lead + other + 0.5 * hypot(lead, up + down)


def block_bound_lemma24(t11: SemiOperator, t12: SemiOperator) -> float:
    """Closed-form radius bound for the block matrix [[T11, T12], [0, 0]]
    under the doubled weight: bound 25 with a zero bottom row."""
    require_same_context(t11, t12)
    if t11.context.rank == 0:
        degenerate_warning()
        return 0.0
    return _th25_value(a_numerical_radius(t11), 0.0, a_operator_seminorm(t12), 0.0)


def block_bound_th25(
    t11: SemiOperator, t12: SemiOperator, t21: SemiOperator, t22: SemiOperator
) -> float:
    """Closed-form radius bound for a full 2x2 block matrix."""
    return _th25_value(*_block_scalars(t11, t12, t21, t22))


def _check_t(t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise TOutOfRange(f"parameter t must lie in [0, 1], got {t}")
    return t


def block_bound_th27(
    t11: SemiOperator,
    t12: SemiOperator,
    t21: SemiOperator,
    t22: SemiOperator,
    t: float,
) -> float:
    """Parametric block bound splitting the (1,1) radius across radicals."""
    t = _check_t(t)
    return _split_value(_block_scalars(t11, t12, t21, t22), t)


def block_bound_th28(
    t11: SemiOperator,
    t12: SemiOperator,
    t21: SemiOperator,
    t22: SemiOperator,
    t: float,
) -> float:
    """Parametric block bound splitting the (2,2) radius across radicals:
    bound 27 of the swapped blocks (t22, t21, t12, t11), since the swap
    [[0, I], [I, 0]] is unitary under diag(A, A) and keeps the radius."""
    t = _check_t(t)
    return _split_value(_block_scalars(t22, t21, t12, t11), t)


def optimize_t(
    which: int,
    t11: SemiOperator,
    t12: SemiOperator,
    t21: SemiOperator,
    t22: SemiOperator,
) -> tuple[float, float]:
    """Best t in [0, 1] for the parametric bound 27 or 28, in closed form
    (t = 0.5 when the objective does not depend on t).  Returns
    (t_star, value).
    """
    if which not in (27, 28):
        raise ValidationError(f"which must be 27 or 28, got {which}")
    blocks = (t11, t12, t21, t22) if which == 27 else (t22, t21, t12, t11)
    return _optimize_split(_block_scalars(*blocks))


def assemble_blocks(
    t11: SemiOperator, t12: SemiOperator, t21: SemiOperator, t22: SemiOperator
) -> SemiOperator:
    """The 2n x 2n block matrix as an operator under the weight diag(A, A).

    No special-cased block algebra: the doubled weight goes through the
    ordinary context constructor and the block matrix through the
    ordinary operator constructor.  This is the full-space reference;
    :func:`matrix_bound_report` needs only the compressed blocks.
    """
    require_same_context(t11, t12, t21, t22)
    ctx = t11.context
    zero = np.zeros_like(ctx.matrix)
    doubled = make_context(np.block([[ctx.matrix, zero], [zero, ctx.matrix]]))
    block = np.block([[t11.matrix, t12.matrix], [t21.matrix, t22.matrix]])
    return make_operator(doubled, block)


@dataclass(frozen=True)
class BoundReport:
    """Bracket around the radius of a single operator."""

    w_exact: float
    lower_21: float
    lower_22: float
    upper_hphi: float
    phi_star: float
    sandwich_lower: float
    sandwich_upper: float


def bound_report(op: SemiOperator) -> BoundReport:
    if op.compressed.shape[0] == 0:
        degenerate_warning()
        return BoundReport(*[0.0] * 7)
    norm = a_operator_seminorm(op)
    lower_21, lower_22 = _lower_bounds(op)
    upper, phi_star = upper_bound_hphi(op)
    return BoundReport(
        w_exact=a_numerical_radius(op),
        lower_21=lower_21,
        lower_22=lower_22,
        upper_hphi=upper,
        phi_star=phi_star,
        sandwich_lower=0.5 * norm,
        sandwich_upper=norm,
    )


@dataclass(frozen=True)
class MatrixBoundReport:
    """Bracket around the radius of an assembled 2x2 block matrix.

    ``lemma24`` is only a valid bound when the bottom row of blocks is
    zero; it is None otherwise.
    """

    w_b_exact: float
    lemma24: float | None
    th25: float
    th27: float
    th28: float
    t_star_27: float
    t_star_28: float


def matrix_bound_report(
    t11: SemiOperator,
    t12: SemiOperator,
    t21: SemiOperator,
    t22: SemiOperator,
) -> MatrixBoundReport:
    scalars = w11, w22, n12, n21 = _block_scalars(t11, t12, t21, t22)
    t_star_27, v27 = _optimize_split(scalars)
    t_star_28, v28 = _optimize_split((w22, w11, n21, n12))
    bottom_row_zero = (
        np.count_nonzero(t21.matrix) == 0 and np.count_nonzero(t22.matrix) == 0
    )
    # diag(A, A) has the kept eigenpairs (diag(L, L), diag(Q, Q)), so the
    # block matrix compresses to the block matrix of compressed blocks
    compressed = np.block(
        [[t11.compressed, t12.compressed], [t21.compressed, t22.compressed]]
    )
    return MatrixBoundReport(
        w_b_exact=radius(Cells(compressed)) if compressed.size else 0.0,
        lemma24=_th25_value(w11, 0.0, n12, 0.0) if bottom_row_zero else None,
        th25=_th25_value(*scalars),
        th27=v27,
        th28=v28,
        t_star_27=t_star_27,
        t_star_28=t_star_28,
    )
