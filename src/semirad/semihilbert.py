"""Semi-inner-product machinery induced by a positive weight matrix.

A Hermitian PSD matrix A turns C^n into a semi-Hilbertian space via
``<x, y>_A = <Ax, y>``.  This module validates the weight (:func:`make_context`),
decides which operators T are compatible with it (:func:`make_operator`:
R(T*A) lies in R(A) exactly when T maps N(A) into N(A)), and exposes the
induced quantities: weighted inner product and vector seminorm, the
operator seminorm, the distinguished weighted adjoint ``A_pinv @ T* @ A``
(formed in full space on first access), and the weighted real/imaginary
parts.

The computational backbone is the compressed matrix

    C = L^(1/2) Q* T Q L^(-1/2),

built from the kept eigenpairs (L, Q) of A.  The same eigendecomposition
settles every rank question: its dropped eigenvectors Q0 span N(A), and
T is A-adjointable when Q* T Q0 = 0.  Such a T maps N(A) into N(A), so C
is T restricted to range(A) in coordinates where the weighted inner
product is the classical one: its 2-norm is the weighted operator
seminorm, its numerical range the weighted numerical range, and A T is
Hermitian (PSD) exactly when C is.  Everything downstream works on
``compressed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ContextMismatch,
    DimensionMismatch,
    InvalidMatrix,
    NotAAdjointable,
    NumericalFailure,
)
from .linalg import (
    HERM_TOL,
    RANK_TOL,
    as_numbers,
    hermitian_defect,
    hermitian_eig,
    hermitian_part,
    kept_eigenpairs,
    lapack,
    require_square,
    spectral_norm,
)

__all__ = [
    "PositiveOperator",
    "SemiOperator",
    "a_inner",
    "a_norm_vec",
    "a_operator_seminorm",
    "add_operators",
    "adjoint_operator",
    "identity_context",
    "im_a",
    "is_a_positive",
    "is_a_selfadjoint",
    "is_a_unitary",
    "make_context",
    "make_operator",
    "re_a",
    "scale_operator",
]


@dataclass(frozen=True, eq=False)
class PositiveOperator:
    """A validated Hermitian PSD weight matrix with its eigenbasis.

    ``range_basis`` holds the kept eigenvectors Q of A as columns, an
    orthonormal basis of range(A), and ``range_eigenvalues`` their
    eigenvalues L, ascending; ``kernel_basis`` holds the dropped
    eigenvectors Q0, an orthonormal basis of N(A).  ``pinv``, the
    Moore-Penrose pseudoinverse, and ``projector``, the orthogonal
    projection onto range(A), are full-space n x n matrices formed on
    first access.  ``min_pos_eig`` is the smallest kept eigenvalue (0 for
    the zero matrix).  The rank cutoff is the fixed relative
    ``linalg.RANK_TOL``.
    """

    matrix: np.ndarray
    range_basis: np.ndarray
    range_eigenvalues: np.ndarray
    kernel_basis: np.ndarray

    @cached_property
    def pinv(self) -> np.ndarray:
        q = self.range_basis
        return hermitian_part((q / self.range_eigenvalues) @ q.conj().T)

    @cached_property
    def projector(self) -> np.ndarray:
        q = self.range_basis
        return hermitian_part(q @ q.conj().T)

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


def make_context(a) -> PositiveOperator:
    """Validate *a* as a Hermitian PSD weight and split its eigenbasis.

    The symmetry gate is ``linalg.HERM_TOL`` and the rank cutoff
    ``linalg.RANK_TOL``, both relative to ||A||.

    Raises NotSquare / NotHermitian / NotPSD on invalid input.
    """
    mat = require_square(a)
    lam, q, q0 = kept_eigenpairs(hermitian_eig(mat))
    return PositiveOperator(
        matrix=mat, range_basis=q, range_eigenvalues=lam, kernel_basis=q0
    )


def identity_context(n: int) -> PositiveOperator:
    """Context for the unweighted case A = I, where everything is classical."""
    return make_context(np.eye(n, dtype=np.complex128))


def _as_vector(x, dim: int) -> np.ndarray:
    arr = as_numbers(x, "vector", np.complex128)
    if arr.ndim != 1:
        raise InvalidMatrix(f"expected a 1-D vector, got ndim={arr.ndim}")
    if arr.shape[0] != dim:
        raise DimensionMismatch(f"vector length {arr.shape[0]}, context dim {dim}")
    if not np.isfinite(arr).all():
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

    ``compressed`` is C = L^(1/2) Q* T Q L^(-1/2), the rank(A) x rank(A)
    matrix that carries every weighted quantity of T.  ``adjoint`` is the
    distinguished weighted adjoint ``A_pinv @ T* @ A``, a full-space
    n x n matrix formed on first access.  The range scan of C and its
    refined extremes (radius and Crawford number, see
    :mod:`semirad.arange`) are likewise computed once per operator, on
    first read, and kept on it.  Mutating ``compressed`` (or ``matrix``)
    in place after such a read is unsupported: the kept values would go
    stale.
    """

    matrix: np.ndarray
    context: PositiveOperator
    compressed: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def adjoint(self) -> np.ndarray:
        ctx = self.context
        return ctx.pinv @ self.matrix.conj().T @ ctx.matrix


def _finite_operator(
    mat: np.ndarray, ctx: PositiveOperator, compressed: np.ndarray
) -> SemiOperator:
    """The operator T = *mat* with compressed matrix *compressed*, the one
    finiteness check of every constructor.

    Raises NumericalFailure when T or C overflowed: finite A and T can
    still give a C past the float range once L^(1/2) and L^(-1/2) are
    applied, and finite operators a multiple or sum past it.
    """
    if not (np.all(np.isfinite(compressed)) and np.all(np.isfinite(mat))):
        raise NumericalFailure(
            "operator or its compressed matrix L^(1/2) Q* T Q L^(-1/2) is not "
            "finite (overflow); rescale T or the weight"
        )
    return SemiOperator(matrix=mat, context=ctx, compressed=compressed)


def _attach_operator(
    ctx: PositiveOperator, mat: np.ndarray, qt: np.ndarray | None = None
) -> SemiOperator:
    """Build C from Q* T (*qt*, formed here if not given); assumes
    compatibility is already settled."""
    q = ctx.range_basis
    if qt is None:
        qt = q.conj().T @ mat
    root = np.sqrt(ctx.range_eigenvalues)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        # by the ratio: scaling rows first can overflow a finite C
        compressed = (qt @ q) * (root[:, None] / root)
    return _finite_operator(mat, ctx, compressed)


def make_operator(ctx: PositiveOperator, t) -> SemiOperator:
    """Validate T against the context and build its compressed matrix.

    A weighted adjoint exists when R(T*A) lies in R(A), that is when T
    maps N(A) into N(A), that is when Q* T Q0 = 0 for A's kept and
    dropped eigenvectors Q and Q0.  T*A = T* Q L Q*, so the part of T*A
    outside R(A) is (L Q* T Q0)*, and T is rejected when
    ||L Q* T Q0|| > RANK_TOL * ||L Q* T||.  Both sides scale alike under
    A -> cA and T -> cT.  A strictly positive A has no Q0 and passes
    without a norm being taken.

    Raises:
        DimensionMismatch: T and A differ in size.
        NotAAdjointable: the range condition fails (the weighted radius
            of such T is +inf and nothing downstream is defined).
        NumericalFailure: the compressed matrix overflows.
    """
    mat = require_square(t)
    if mat.shape[0] != ctx.dim:
        raise DimensionMismatch(
            f"operator is {mat.shape[0]}x{mat.shape[0]}, context is "
            f"{ctx.dim}x{ctx.dim}"
        )
    qt = ctx.range_basis.conj().T @ mat
    if ctx.kernel_basis.shape[1]:
        lqt = ctx.range_eigenvalues[:, None] * qt
        leak, scale = spectral_norm(lqt @ ctx.kernel_basis), spectral_norm(lqt)
        if leak > RANK_TOL * scale:
            raise NotAAdjointable(
                "operator is not A-adjointable (R(T*A) ⊄ R(A)): "
                f"{leak / scale:.1e} of ||T*A|| lies outside R(A)"
            )
    return _attach_operator(ctx, mat, qt)


def a_operator_seminorm(op: SemiOperator) -> float:
    """Weighted operator seminorm, the 2-norm of the compressed matrix."""
    return spectral_norm(op.compressed)


def scale_operator(op: SemiOperator, c: complex) -> SemiOperator:
    """c * T with the compressed matrix scaled in place of a rebuild;
    NumericalFailure if it overflows."""
    c = complex(c)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        return _finite_operator(c * op.matrix, op.context, c * op.compressed)


def add_operators(op1: SemiOperator, op2: SemiOperator) -> SemiOperator:
    """T + S under a shared context; compressed matrices add.
    NumericalFailure if the sum overflows."""
    require_same_context(op1, op2)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        return _finite_operator(
            op1.matrix + op2.matrix, op1.context, op1.compressed + op2.compressed
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


def require_same_context(first: SemiOperator, *others: SemiOperator) -> None:
    for other in others:
        if other.context is not first.context and not np.array_equal(
            first.context.matrix, other.context.matrix
        ):
            raise ContextMismatch("operators were built against different weights")


def is_a_selfadjoint(op: SemiOperator) -> bool:
    """Whether A @ T is Hermitian (the weighted self-adjointness test).

    A T = Q L (Q* T Q) Q* is Hermitian exactly when its congruent C is,
    so the gate is ``HERM_TOL`` relative to ||C|| and A -> cA cannot
    change it.
    """
    c = op.compressed
    return hermitian_defect(c) <= HERM_TOL * spectral_norm(c)


def is_a_positive(op: SemiOperator) -> bool:
    """Whether A @ T is Hermitian PSD, read off C like the test above."""
    if not is_a_selfadjoint(op):
        return False
    with lapack("eigensolve of the A-positivity test"):
        lam = np.linalg.eigvalsh(hermitian_part(op.compressed))
    # the least eigenvalue may fall short of 0 by HERM_TOL times the largest
    return bool(lam.size == 0 or lam[0] >= -HERM_TOL * lam[-1])


def is_a_unitary(op: SemiOperator) -> bool:
    """Whether T is a weighted isometry together with its adjoint.

    Tested as adjoint(T) @ T @ P = P and T @ adjoint(T) @ P = P on the
    range projection P, the finite-dimensional form of the two isometry
    identities, each to 1e-8 relative to 1 + ||P||.
    """
    tol = 1e-8
    p = op.context.projector
    scale = 1.0 + spectral_norm(p)
    left = spectral_norm(op.adjoint @ op.matrix @ p - p)
    right = spectral_norm(op.matrix @ op.adjoint @ p - p)
    return left <= tol * scale and right <= tol * scale
