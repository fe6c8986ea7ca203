"""Semi-inner-product machinery induced by a positive weight matrix.

A Hermitian PSD matrix A turns C^n into a semi-Hilbertian space via
``<x, y>_A = <Ax, y>``.  This module validates the weight (:func:`make_context`),
decides which operators T are compatible with it (:func:`make_operator`,
the range test R(T*A) within R(A)), and exposes the induced quantities:
weighted inner product and vector seminorm, the operator seminorm, the
distinguished weighted adjoint ``A_pinv @ T* @ A``, and the weighted
real/imaginary parts.

The computational backbone is the reduced matrix

    reduced(T) = sqrt(A) @ T @ pinv(sqrt(A))

whose classical 2-norm equals the weighted operator seminorm of T, and
whose compression onto range(A) carries the whole weighted numerical
range.  Everything downstream works on ``reduced`` or ``compressed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContextMismatch,
    DimensionMismatch,
    InvalidMatrix,
    NotAAdjointable,
)
from .linalg import (
    DEFAULT_HERM_TOL,
    DEFAULT_RANK_TOL,
    _psd_factors_from_eig,
    as_complex_matrix,
    hermitian_defect,
    hermitian_eig,
    numerical_rank,
    require_square,
    spectral_norm,
)


@dataclass(frozen=True, eq=False)
class PositiveOperator:
    """A validated Hermitian PSD weight matrix with its cached factors.

    ``pinv`` is the Moore-Penrose pseudoinverse, ``sqrt`` the PSD square
    root, ``sqrt_pinv`` the pseudoinverse of the square root.  ``range_basis``
    holds an orthonormal basis of range(A) as columns; ``projector`` is the
    orthogonal projection onto it.  ``min_pos_eig`` is the smallest retained
    eigenvalue (0 for the zero matrix).
    """

    matrix: np.ndarray
    pinv: np.ndarray
    sqrt: np.ndarray
    sqrt_pinv: np.ndarray
    projector: np.ndarray
    range_basis: np.ndarray
    rank: int
    min_pos_eig: float
    strictly_positive: bool
    herm_tol: float
    rank_tol: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def make_context(
    a,
    herm_tol: float = DEFAULT_HERM_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> PositiveOperator:
    """Validate *a* as a Hermitian PSD weight and cache its factors.

    Raises NotSquare / NotHermitian / NotPSD on invalid input.
    """
    mat = require_square(a)
    eig = hermitian_eig(mat, herm_tol=herm_tol)
    factors, basis = _psd_factors_from_eig(eig, rank_tol)
    projector = basis @ basis.conj().T
    projector = 0.5 * (projector + projector.conj().T)
    return PositiveOperator(
        matrix=mat,
        pinv=factors.pinv,
        sqrt=factors.sqrt,
        sqrt_pinv=factors.sqrt_pinv,
        projector=projector,
        range_basis=basis,
        rank=factors.rank,
        min_pos_eig=factors.min_pos_eig,
        strictly_positive=factors.rank == mat.shape[0],
        herm_tol=herm_tol,
        rank_tol=rank_tol,
    )


def identity_context(n: int) -> PositiveOperator:
    """Context for the unweighted case A = I, where everything is classical."""
    return make_context(np.eye(n, dtype=np.complex128))


def _as_vector(x, dim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 1:
        raise InvalidMatrix(f"expected a 1-D vector, got ndim={arr.ndim}")
    if arr.shape[0] != dim:
        raise DimensionMismatch(f"vector length {arr.shape[0]}, context dim {dim}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise InvalidMatrix("vector entries must be finite")
    return arr


def a_inner(ctx: PositiveOperator, x, y) -> complex:
    """Weighted inner product <Ax, y>. Conjugate-linear in *y*."""
    xv = _as_vector(x, ctx.dim)
    yv = _as_vector(y, ctx.dim)
    return complex(np.vdot(yv, ctx.matrix @ xv))


def a_norm_vec(ctx: PositiveOperator, x) -> float:
    """Weighted seminorm sqrt(<Ax, x>); zero exactly on the kernel of A."""
    xv = _as_vector(x, ctx.dim)
    q = np.vdot(xv, ctx.matrix @ xv).real
    return float(np.sqrt(max(q, 0.0)))


@dataclass(frozen=True, eq=False)
class SemiOperator:
    """An operator T validated as compatible with a weight context.

    ``adjoint`` is the distinguished weighted adjoint ``A_pinv @ T* @ A``.
    ``reduced`` is ``sqrt(A) @ T @ pinv(sqrt(A))``; ``compressed`` is the
    reduced matrix expressed in the orthonormal basis of range(A), a
    rank(A) x rank(A) block that carries the weighted numerical range.
    """

    matrix: np.ndarray
    context: PositiveOperator
    adjoint: np.ndarray
    reduced: np.ndarray
    compressed: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _attach_operator(ctx: PositiveOperator, mat: np.ndarray) -> SemiOperator:
    """Cache the derived matrices; assumes compatibility is already settled."""
    adjoint = ctx.pinv @ mat.conj().T @ ctx.matrix
    reduced = ctx.sqrt @ mat @ ctx.sqrt_pinv
    basis = ctx.range_basis
    compressed = basis.conj().T @ reduced @ basis
    return SemiOperator(
        matrix=mat, context=ctx, adjoint=adjoint, reduced=reduced, compressed=compressed
    )


def make_operator(ctx: PositiveOperator, t) -> SemiOperator:
    """Validate T against the context and cache its derived matrices.

    Compatibility (existence of a weighted adjoint) is decided by the rank
    test rank([A | T*A]) = rank(A).  For strictly positive A it always
    holds and the test is skipped.

    Raises:
        DimensionMismatch: T and A differ in size.
        NotAAdjointable: the range condition fails (the weighted radius
            of such T is +inf and nothing downstream is defined).
    """
    mat = require_square(t)
    if mat.shape[0] != ctx.dim:
        raise DimensionMismatch(
            f"operator is {mat.shape[0]}x{mat.shape[0]}, context is "
            f"{ctx.dim}x{ctx.dim}"
        )
    if not ctx.strictly_positive:
        # Columns of the augmented matrix span R(A) + R(T*A); the spans are
        # scale-invariant, so each block is normalized before the rank test.
        a = ctx.matrix
        ta = mat.conj().T @ a
        a_scale = spectral_norm(a)
        ta_scale = spectral_norm(ta)
        blocks = [a / a_scale if a_scale > 0 else a]
        if ta_scale > 0:
            blocks.append(ta / ta_scale)
        augmented = np.hstack(blocks)
        if numerical_rank(augmented, rank_tol=ctx.rank_tol) != ctx.rank:
            raise NotAAdjointable(
                "operator is not A-adjointable (R(T*A) ⊄ R(A))"
            )
    return _attach_operator(ctx, mat)


def a_operator_seminorm(op: SemiOperator) -> float:
    """Weighted operator seminorm, the 2-norm of the reduced matrix."""
    return spectral_norm(op.reduced)


def scale_operator(op: SemiOperator, c: complex) -> SemiOperator:
    """c * T with cached fields transformed in place of a rebuild.

    The adjoint scales by conj(c); the reduced and compressed matrices
    scale by c.
    """
    c = complex(c)
    return SemiOperator(
        matrix=c * op.matrix,
        context=op.context,
        adjoint=np.conj(c) * op.adjoint,
        reduced=c * op.reduced,
        compressed=c * op.compressed,
    )


def add_operators(op1: SemiOperator, op2: SemiOperator) -> SemiOperator:
    """T + S under a shared context; cached fields add componentwise."""
    _require_same_context(op1, op2)
    return SemiOperator(
        matrix=op1.matrix + op2.matrix,
        context=op1.context,
        adjoint=op1.adjoint + op2.adjoint,
        reduced=op1.reduced + op2.reduced,
        compressed=op1.compressed + op2.compressed,
    )


def adjoint_operator(op: SemiOperator) -> SemiOperator:
    """The weighted adjoint as a SemiOperator in its own right."""
    return _attach_operator(op.context, op.adjoint)


def re_a(op: SemiOperator) -> SemiOperator:
    """Weighted real part (T + adjoint(T)) / 2; weighted-self-adjoint."""
    return _attach_operator(op.context, 0.5 * (op.matrix + op.adjoint))


def im_a(op: SemiOperator) -> SemiOperator:
    """Weighted imaginary part (T - adjoint(T)) / 2i."""
    return _attach_operator(op.context, (op.matrix - op.adjoint) / 2j)


def _require_same_context(first: SemiOperator, *others: SemiOperator) -> None:
    for other in others:
        if other.context is not first.context and not np.array_equal(
            first.context.matrix, other.context.matrix
        ):
            raise ContextMismatch("operators were built against different weights")


def is_a_selfadjoint(op: SemiOperator, tol: float = DEFAULT_HERM_TOL) -> bool:
    """Whether A @ T is Hermitian (the weighted self-adjointness test)."""
    at = op.context.matrix @ op.matrix
    return hermitian_defect(at) <= tol * (1.0 + spectral_norm(at))


def is_a_positive(op: SemiOperator, tol: float = DEFAULT_HERM_TOL) -> bool:
    """Whether A @ T is Hermitian PSD."""
    at = op.context.matrix @ op.matrix
    scale = 1.0 + spectral_norm(at)
    if hermitian_defect(at) > tol * scale:
        return False
    sym = 0.5 * (at + at.conj().T)
    eigenvalues = np.linalg.eigvalsh(sym)
    return bool(eigenvalues[0] >= -tol * scale)


def is_a_unitary(op: SemiOperator, tol: float = 1e-8) -> bool:
    """Whether T is a weighted isometry together with its adjoint.

    Tested as adjoint(T) @ T @ P = P and T @ adjoint(T) @ P = P on the
    range projection P, the finite-dimensional form of the two isometry
    identities.
    """
    p = op.context.projector
    scale = 1.0 + spectral_norm(p)
    left = spectral_norm(op.adjoint @ op.matrix @ p - p)
    right = spectral_norm(op.matrix @ op.adjoint @ p - p)
    return left <= tol * scale and right <= tol * scale
