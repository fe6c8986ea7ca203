"""Semi-inner-product machinery induced by a positive weight matrix.

A Hermitian PSD matrix A turns C^n into a semi-Hilbertian space via
``<x, y>_A = <Ax, y>``.  This module validates the weight (:func:`make_context`),
decides which operators T are compatible with it (:func:`make_operator`,
the range test R(T*A) within R(A)), and exposes the induced quantities:
weighted inner product and vector seminorm, the operator seminorm, the
distinguished weighted adjoint ``A_pinv @ T* @ A``, and the weighted
real/imaginary parts.

The computational backbone is the compressed matrix

    C = L^(1/2) Q* T Q L^(-1/2),

built from the kept eigenpairs (L, Q) of A.  An A-adjointable T maps
N(A) into N(A), so C is T restricted to range(A) in coordinates where
the weighted inner product is the classical one: its 2-norm is the
weighted operator seminorm, its numerical range the weighted numerical
range, and A T is Hermitian (PSD) exactly when C is.  Everything
downstream works on ``compressed``.
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
    _hermitian_part,
    _kept_eigenpairs,
    hermitian_defect,
    hermitian_eig,
    numerical_rank,
    require_square,
    spectral_norm,
)


@dataclass(frozen=True, eq=False)
class PositiveOperator:
    """A validated Hermitian PSD weight matrix with its cached factors.

    ``range_basis`` holds the kept eigenvectors Q of A as columns, an
    orthonormal basis of range(A), and ``range_eigenvalues`` their
    eigenvalues L, ascending.  ``pinv`` is the Moore-Penrose pseudoinverse
    and ``projector`` the orthogonal projection onto range(A).
    ``min_pos_eig`` is the smallest kept eigenvalue (0 for the zero matrix).
    """

    matrix: np.ndarray
    pinv: np.ndarray
    projector: np.ndarray
    range_basis: np.ndarray
    range_eigenvalues: np.ndarray
    herm_tol: float
    rank_tol: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return int(self.range_eigenvalues.size)

    @property
    def min_pos_eig(self) -> float:
        return float(self.range_eigenvalues[0]) if self.rank else 0.0

    @property
    def strictly_positive(self) -> bool:
        return self.rank == self.dim


def make_context(
    a,
    herm_tol: float = DEFAULT_HERM_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> PositiveOperator:
    """Validate *a* as a Hermitian PSD weight and cache its factors.

    Raises NotSquare / NotHermitian / NotPSD on invalid input.
    """
    mat = require_square(a)
    lam, q = _kept_eigenpairs(hermitian_eig(mat, herm_tol=herm_tol), rank_tol)
    qh = q.conj().T
    return PositiveOperator(
        matrix=mat,
        pinv=_hermitian_part((q / lam) @ qh),
        projector=_hermitian_part(q @ qh),
        range_basis=q,
        range_eigenvalues=lam,
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
    ``compressed`` is C = L^(1/2) Q* T Q L^(-1/2), the rank(A) x rank(A)
    matrix that carries every weighted quantity of T.
    """

    matrix: np.ndarray
    context: PositiveOperator
    adjoint: np.ndarray
    compressed: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _attach_operator(ctx: PositiveOperator, mat: np.ndarray) -> SemiOperator:
    """Cache the derived matrices; assumes compatibility is already settled."""
    q = ctx.range_basis
    root = np.sqrt(ctx.range_eigenvalues)
    return SemiOperator(
        matrix=mat,
        context=ctx,
        adjoint=ctx.pinv @ mat.conj().T @ ctx.matrix,
        compressed=root[:, None] * (q.conj().T @ mat @ q) / root,
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
    """Weighted operator seminorm, the 2-norm of the compressed matrix."""
    return spectral_norm(op.compressed)


def scale_operator(op: SemiOperator, c: complex) -> SemiOperator:
    """c * T with cached fields transformed in place of a rebuild.

    The adjoint scales by conj(c); the compressed matrix scales by c.
    """
    c = complex(c)
    return SemiOperator(
        matrix=c * op.matrix,
        context=op.context,
        adjoint=np.conj(c) * op.adjoint,
        compressed=c * op.compressed,
    )


def add_operators(op1: SemiOperator, op2: SemiOperator) -> SemiOperator:
    """T + S under a shared context; cached fields add componentwise."""
    _require_same_context(op1, op2)
    return SemiOperator(
        matrix=op1.matrix + op2.matrix,
        context=op1.context,
        adjoint=op1.adjoint + op2.adjoint,
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
    """Whether A @ T is Hermitian (the weighted self-adjointness test).

    A T = Q L (Q* T Q) Q* is Hermitian exactly when its congruent C is,
    so the gate is relative to ||C|| and A -> cA cannot change it.
    """
    c = op.compressed
    return hermitian_defect(c) <= tol * spectral_norm(c)


def is_a_positive(op: SemiOperator, tol: float = DEFAULT_HERM_TOL) -> bool:
    """Whether A @ T is Hermitian PSD, read off C like the test above."""
    if not is_a_selfadjoint(op, tol):
        return False
    lam = np.linalg.eigvalsh(_hermitian_part(op.compressed))
    # the least eigenvalue may fall short of 0 by tol times the largest
    return bool(lam.size == 0 or lam[0] >= -tol * lam[-1])


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
