"""Dense complex linear-algebra kernel.

Plain ``numpy.ndarray`` (complex128, row-major) is the matrix carrier for
the whole package; :func:`as_complex_matrix` is the validation gate that
turns arbitrary input into one.  On top of it this module provides the
Hermitian eigendecomposition behind a relative symmetry gate, the spectral
norm, and the split of a PSD spectrum into kept and dropped eigenpairs at a
relative rank cutoff.  Both tolerances are fixed module constants.

All functions are pure; nothing here mutates its arguments.  Target sizes
are small dense matrices (n <= 512), so every factorization is a direct
LAPACK call via numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, NotHermitian, NotPSD, NotSquare, NumericalFailure

#: Relative tolerance for Hermitian symmetry checks.
HERM_TOL = 1e-8

#: Relative eigenvalue cutoff below which a PSD matrix is treated as singular.
RANK_TOL = 1e-10


def as_complex_matrix(m) -> np.ndarray:
    """Validate *m* as a dense complex matrix and return it as complex128.

    Accepts anything ``np.asarray`` understands.  Rejects non-2-D input,
    empty dimensions, and non-finite entries.
    """
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise InvalidMatrix(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidMatrix(f"matrix dimensions must be >= 1, got {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise InvalidMatrix("matrix entries must be finite (no NaN/Inf)")
    return arr


def hermitian_defect(m: np.ndarray) -> float:
    """Spectral norm of M - M*, the deviation from Hermitian symmetry."""
    return spectral_norm(m - m.conj().T)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
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

    Raises:
        NotSquare: non-square input.
        NotHermitian: asymmetry exceeds the gate.
        NumericalFailure: the underlying eigensolver did not converge.
    """
    m = require_square(m)
    defect = hermitian_defect(m)
    scale = spectral_norm(m)
    if defect > HERM_TOL * scale:
        raise NotHermitian(
            f"asymmetry {defect:.3e} exceeds tolerance {HERM_TOL * scale:.3e}"
        )
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(_hermitian_part(m))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Hermitian eigendecomposition failed: {exc}") from exc
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def spectral_norm(m) -> float:
    """Largest singular value of *m* (the operator 2-norm)."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise InvalidMatrix(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        return 0.0
    try:
        sigma = np.linalg.svd(arr, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD failed: {exc}") from exc
    return float(sigma[0])


def _kept_eigenpairs(
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

