"""Certified brackets around the weighted numerical radius.

Lower bounds combine the seminorm of one rotation component with the
Crawford number of the other; the upper bound minimizes the two-term
rotation functional over the quarter period.  Both are read off spectra
of the compressed matrix C: the weighted real and imaginary parts
compress to the Hermitian Re C and Im C, and H_phi to Re(exp(i*phi) C).
For 2x2 operator matrices under the doubled weight diag(A, A), four
closed-form upper bounds are provided, two of them carrying a free
parameter t in [0, 1] that is optimized by golden section.

Report builders package the bounds together with the reference radius of
the same operator so every bracket is checkable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .arange import DEFAULT_THETA_GRID, _rotated, a_numerical_radius
from .errors import TOutOfRange
from .scan import _refine_best, golden_section_min
from .semihilbert import (
    SemiOperator,
    _require_same_context,
    a_operator_seminorm,
    make_context,
    make_operator,
)

DEFAULT_PHI_GRID = 64


def _norm_and_crawford(c: np.ndarray, theta: float) -> tuple[float, float]:
    """Norm and Crawford number of the Hermitian H = Re(exp(-i*theta) C).

    ||H|| = max(lambda_max, -lambda_min); the range of H is the segment
    [lambda_min, lambda_max], so its distance to 0 is
    max(0, lambda_min, -lambda_max).
    """
    if c.shape[0] == 0:
        return 0.0, 0.0
    lam = np.linalg.eigvalsh(_rotated(c, theta))
    lo, hi = float(lam[0]), float(lam[-1])
    return max(hi, -lo), max(0.0, lo, -hi)


def _lower_bounds(op: SemiOperator) -> tuple[float, float]:
    """(lower_bound_21, lower_bound_22) from one eigvalsh each of Re C, Im C."""
    norm_re, craw_re = _norm_and_crawford(op.compressed, 0.0)
    norm_im, craw_im = _norm_and_crawford(op.compressed, 0.5 * np.pi)
    return (
        sqrt(norm_re * norm_re + craw_im * craw_im),
        sqrt(norm_im * norm_im + craw_re * craw_re),
    )


def lower_bound_21(op: SemiOperator) -> float:
    """sqrt(||real part||^2 + crawford(imag part)^2), a lower bound on the
    radius that refines the plain ||real part|| bound."""
    return _lower_bounds(op)[0]


def lower_bound_22(op: SemiOperator) -> float:
    """Mirror image of lower_bound_21 with the two parts swapped."""
    return _lower_bounds(op)[1]


def upper_bound_hphi(
    op: SemiOperator, phi_grid: int = DEFAULT_PHI_GRID
) -> tuple[float, float]:
    """Upper bound min over phi of sqrt(||H_phi||^2 + ||H_{phi+pi/2}||^2).

    H_phi is the weighted real part of exp(i*phi) T, whose seminorm is
    the spectral radius of Re(exp(i*phi) C).  H_{phi+pi} = -H_phi and the
    two terms swap under phi -> phi+pi/2, so the objective has period
    pi/2 and the scan runs over [0, pi/2), all 2 * phi_grid Hermitian
    parts in one batch.  Returns (value, phi).
    """
    c = op.compressed
    if c.shape[0] == 0:
        return 0.0, 0.0
    period = 0.5 * np.pi

    def norm_sq(lam: np.ndarray):
        return np.maximum(lam[..., -1], -lam[..., 0]) ** 2

    def f(phi: float) -> float:
        return float(
            norm_sq(np.linalg.eigvalsh(_rotated(c, -phi)))
            + norm_sq(np.linalg.eigvalsh(_rotated(c, -phi - period)))
        )

    phis = np.linspace(0.0, period, phi_grid, endpoint=False)
    thetas = np.concatenate((-phis, -phis - period))
    parts = norm_sq(np.linalg.eigvalsh(_rotated(c, thetas)))
    values = parts[:phi_grid] + parts[phi_grid:]
    phi_star, best = _refine_best(f, phis, values, period / phi_grid, False)
    return sqrt(best), phi_star % period


def _block_scalars(
    t11: SemiOperator, t12: SemiOperator, t21: SemiOperator, t22: SemiOperator
) -> tuple[float, float, float, float]:
    """(w(T11), w(T22), ||T12||, ||T21||), the inputs of every block bound."""
    _require_same_context(t11, t12, t21, t22)
    return (
        a_numerical_radius(t11),
        a_numerical_radius(t22),
        a_operator_seminorm(t12),
        a_operator_seminorm(t21),
    )


def _lemma24_value(w11: float, n12: float) -> float:
    return 0.5 * (w11 + sqrt(w11 * w11 + n12 * n12))


def _th25_value(w11: float, w22: float, n12: float, n21: float) -> float:
    return 0.5 * (
        w11 + w22 + sqrt(w11 * w11 + n12 * n12) + sqrt(w22 * w22 + n21 * n21)
    )


def _split_value(which: int, scalars: tuple[float, ...], t: float) -> float:
    """Bound 27 or 28: the leading radius split t : (1-t) between radicals."""
    w11, w22, n12, n21 = scalars
    lead, other, up, down = (
        (w11, w22, n12, n21) if which == 27 else (w22, w11, n21, n12)
    )
    return (
        0.5 * lead
        + other
        + 0.5 * sqrt(t * t * lead * lead + up * up)
        + 0.5 * sqrt((1.0 - t) * (1.0 - t) * lead * lead + down * down)
    )


def _optimize_split(which: int, scalars: tuple[float, ...]) -> tuple[float, float]:
    def f(t: float) -> float:
        return _split_value(which, scalars, t)

    t_best, v_best = golden_section_min(f, 0.0, 1.0, tol=1e-10)
    for t_cand in (0.0, 0.5, 1.0):
        v_cand = f(t_cand)
        if v_cand < v_best:
            t_best, v_best = t_cand, v_cand
    return t_best, v_best


def block_bound_lemma24(t11: SemiOperator, t12: SemiOperator) -> float:
    """Closed-form radius bound for the block matrix [[T11, T12], [0, 0]]
    under the doubled weight."""
    _require_same_context(t11, t12)
    return _lemma24_value(a_numerical_radius(t11), a_operator_seminorm(t12))


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
    return _split_value(27, _block_scalars(t11, t12, t21, t22), t)


def block_bound_th28(
    t11: SemiOperator,
    t12: SemiOperator,
    t21: SemiOperator,
    t22: SemiOperator,
    t: float,
) -> float:
    """Parametric block bound splitting the (2,2) radius across radicals."""
    t = _check_t(t)
    return _split_value(28, _block_scalars(t11, t12, t21, t22), t)


def optimize_t(
    which: int,
    t11: SemiOperator,
    t12: SemiOperator,
    t21: SemiOperator,
    t22: SemiOperator,
) -> tuple[float, float]:
    """Best t in [0, 1] for the parametric bound 27 or 28.

    The objective is a sum of convex functions of t, so golden section
    suffices; the endpoints and midpoint are compared as well.  Returns
    (t_star, value).
    """
    if which not in (27, 28):
        raise ValueError(f"which must be 27 or 28, got {which}")
    return _optimize_split(which, _block_scalars(t11, t12, t21, t22))


def assemble_blocks(
    t11: SemiOperator, t12: SemiOperator, t21: SemiOperator, t22: SemiOperator
) -> SemiOperator:
    """The 2n x 2n block matrix as an operator under the weight diag(A, A).

    No special-cased block algebra: the doubled weight goes through the
    ordinary context constructor and the block matrix through the
    ordinary operator constructor.
    """
    _require_same_context(t11, t12, t21, t22)
    ctx = t11.context
    zero = np.zeros_like(ctx.matrix)
    doubled = make_context(
        np.block([[ctx.matrix, zero], [zero, ctx.matrix]]),
        herm_tol=ctx.herm_tol,
        rank_tol=ctx.rank_tol,
    )
    block = np.block(
        [[t11.matrix, t12.matrix], [t21.matrix, t22.matrix]]
    )
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


def bound_report(
    op: SemiOperator,
    theta_grid: int = DEFAULT_THETA_GRID,
    phi_grid: int = DEFAULT_PHI_GRID,
) -> BoundReport:
    norm = a_operator_seminorm(op)
    upper, phi_star = upper_bound_hphi(op, phi_grid=phi_grid)
    lower_21, lower_22 = _lower_bounds(op)
    return BoundReport(
        w_exact=a_numerical_radius(op, theta_grid=theta_grid),
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
    theta_grid: int = DEFAULT_THETA_GRID,
) -> MatrixBoundReport:
    assembled = assemble_blocks(t11, t12, t21, t22)
    scalars = _block_scalars(t11, t12, t21, t22)
    t_star_27, v27 = _optimize_split(27, scalars)
    t_star_28, v28 = _optimize_split(28, scalars)
    bottom_row_zero = (
        np.count_nonzero(t21.matrix) == 0 and np.count_nonzero(t22.matrix) == 0
    )
    w11, _, n12, _ = scalars
    return MatrixBoundReport(
        w_b_exact=a_numerical_radius(assembled, theta_grid=theta_grid),
        lemma24=_lemma24_value(w11, n12) if bottom_row_zero else None,
        th25=_th25_value(*scalars),
        th27=v27,
        th28=v28,
        t_star_27=t_star_27,
        t_star_28=t_star_28,
    )
