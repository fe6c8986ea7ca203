"""Dense complex linear-algebra kernel.

Plain ``numpy.ndarray`` (complex128, row-major) is the matrix carrier for
the whole package; :func:`as_complex_matrix` is the validation gate that
turns numeric input into one.  On top of it this module provides the
Hermitian eigendecomposition behind a relative symmetry gate, the spectral
norm, the split of a PSD spectrum into kept and dropped eigenpairs at a
relative rank cutoff, and general eigenvalues behind a residual gate.  All
tolerances are fixed.  Every LAPACK call of the package runs inside
:func:`lapack`, so that a failure surfaces as NumericalFailure, never as a
raw ``LinAlgError``.

All functions are pure; nothing here mutates its arguments.  Target sizes
are small dense matrices (n <= 512), so every factorization is a direct
LAPACK call via numpy.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, NotHermitian, NotPSD, NotSquare, NumericalFailure

__all__ = ["EigenDecomposition", "general_eig", "hermitian_eig", "spectral_norm"]

#: Relative tolerance for Hermitian symmetry checks.
HERM_TOL = 1e-8

#: Relative eigenvalue cutoff below which a PSD matrix is treated as singular.
RANK_TOL = 1e-10


class lapack:
    """Context that turns a LAPACK failure inside it into NumericalFailure,
    with the message "<what> failed: <reason>".  A class rather than a
    generator, so that entering it costs next to nothing on hot paths."""

    __slots__ = ("what",)

    def __init__(self, what: str):
        self.what = what

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None and issubclass(kind, np.linalg.LinAlgError):
            raise NumericalFailure(f"{self.what} failed: {exc}") from exc


def as_numbers(x, what: str, dtype) -> np.ndarray:
    """``np.asarray(x)`` cast to *dtype*, if its entries are numbers.

    A numeric ndarray is judged by its dtype; any other input entry by
    entry, since numpy may type a bool among numbers as a number.  A ragged
    nesting, a string, bool or other non-number, or a number past the range
    of *dtype* raises InvalidMatrix.
    """
    try:
        arr = np.asarray(x)
    except ValueError as exc:  # numpy's error for a ragged nesting
        raise InvalidMatrix(f"{what}: ragged nesting") from exc
    if not (isinstance(x, np.ndarray) and arr.dtype.kind in "iufc"):
        flat = np.asarray(x, dtype=object).flat
        if not all(isinstance(e, numbers.Number) and type(e) is not bool for e in flat):
            raise InvalidMatrix(f"{what}: entries must be numbers, not strings or bools")
    try:
        return arr.astype(dtype, copy=False)
    except OverflowError as exc:  # an integer past the float range
        raise InvalidMatrix(f"{what}: number too large for a float") from exc


def as_complex_matrix(m) -> np.ndarray:
    """Validate *m* as a dense complex matrix and return it as complex128.

    Accepts what :func:`as_numbers` accepts.  Rejects non-2-D input, empty
    dimensions, and non-finite entries.
    """
    arr = as_numbers(m, "matrix", np.complex128)
    if arr.ndim != 2:
        raise InvalidMatrix(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidMatrix(f"matrix dimensions must be >= 1, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidMatrix("matrix entries must be finite (no NaN/Inf)")
    return arr


def hermitian_defect(m: np.ndarray) -> float:
    """Spectral norm of M - M*, the deviation from Hermitian symmetry."""
    return spectral_norm(m - m.conj().T)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M*)/2, Hermitian to the last bit."""
    return 0.5 * (m + m.conj().T)


def require_square(m: np.ndarray) -> np.ndarray:
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization M = V diag(eigenvalues) V* of a Hermitian matrix.

    ``eigenvalues`` is real and sorted ascending; ``eigenvectors`` holds the
    corresponding orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    The input is gated on ``||M - M*|| <= HERM_TOL * ||M||`` and then
    explicitly symmetrized as (M + M*)/2 before the LAPACK call, so results
    are reproducible for inputs that are Hermitian only up to round-off.
    An input equal to M* entry by entry has no defect and skips the gate's
    two SVDs.

    Raises:
        NotSquare: non-square input.
        NotHermitian: asymmetry exceeds the gate.
        NumericalFailure: the underlying eigensolver did not converge.
    """
    m = require_square(m)
    if not (m == m.conj().T).all():
        defect = hermitian_defect(m)
        scale = spectral_norm(m)
        if defect > HERM_TOL * scale:
            raise NotHermitian(
                f"asymmetry {defect:.3e} exceeds tolerance {HERM_TOL * scale:.3e}"
            )
    with lapack("Hermitian eigendecomposition"):
        eigenvalues, eigenvectors = np.linalg.eigh(hermitian_part(m))
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def spectral_norm(m) -> float:
    """Largest singular value of *m* (the operator 2-norm)."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise InvalidMatrix(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        return 0.0
    with lapack("SVD"):
        sigma = np.linalg.svd(arr, compute_uv=False)
    return float(sigma[0])


def kept_eigenpairs(
    eig: EigenDecomposition,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenpairs of a PSD matrix that survive the rank cutoff.

    Returns (L, Q, Q0): the kept eigenvalues, ascending, their eigenvectors
    as columns, an orthonormal basis of the numerical range space, and the
    dropped eigenvectors, an orthonormal basis of the numerical kernel.
    Eigenvalues at or below ``RANK_TOL * lambda_max`` are treated as zero,
    which makes the rank decision invariant under rescaling; an eigenvalue
    below ``-RANK_TOL * ||M||`` disqualifies the matrix as PSD.
    """
    lam = eig.eigenvalues
    norm = float(np.max(np.abs(lam))) if lam.size else 0.0
    if lam.size and float(lam[0]) < -RANK_TOL * norm:
        raise NotPSD(
            f"most negative eigenvalue {float(lam[0]):.3e} is below "
            f"-RANK_TOL*||M|| = {-RANK_TOL * norm:.3e}"
        )
    keep = lam > RANK_TOL * (float(lam[-1]) if lam.size else 0.0)
    vecs = eig.eigenvectors
    return lam[keep], vecs[:, keep], vecs[:, ~keep]


def general_eig(m) -> np.ndarray:
    """Eigenvalues of a general (non-Hermitian) square matrix.

    Each returned pair is accepted only if the residual ||Mv - lambda v||
    stays below 1e-8 * ||M|| (0 for a zero M), with ||M|| from an SVD;
    otherwise NumericalFailure.
    """
    mat = require_square(m)
    scale = spectral_norm(mat)
    with lapack("eigenvalue iteration"):
        lam, vec = np.linalg.eig(mat)
    # in units of ||M||, so that squares of tiny residuals cannot underflow
    residual = (mat @ vec - vec * lam[None, :]) / (scale or 1.0)
    worst = float(np.max(np.linalg.norm(residual, axis=0))) if lam.size else 0.0
    tol = 1e-8 if scale else 0.0
    if worst > tol:
        raise NumericalFailure(
            f"eigenpair residual {worst:.3e} ||M|| exceeds tolerance {tol:.0e} ||M||"
        )
    return lam
