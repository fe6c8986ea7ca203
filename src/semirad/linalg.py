"""Dense complex linear-algebra kernel.

Plain ``numpy.ndarray`` (complex128, row-major) is the matrix carrier for
the whole package; :func:`as_complex_matrix` is the validation gate that
turns arbitrary input into one.  On top of it this module provides the
Hermitian eigendecomposition, the spectral norm, and the eigenvalue-based
square root / Moore-Penrose pseudoinverse of Hermitian PSD matrices with a
relative rank cutoff.

All functions are pure; nothing here mutates its arguments.  Target sizes
are small dense matrices (n <= 512), so every factorization is a direct
LAPACK call via numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidMatrix, NotHermitian, NotPSD, NotSquare, NumericalFailure

#: Relative tolerance for Hermitian symmetry checks.
DEFAULT_HERM_TOL = 1e-8

#: Relative eigenvalue cutoff below which a PSD matrix is treated as singular.
DEFAULT_RANK_TOL = 1e-10


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


def hermitian_eig(m, herm_tol: float = DEFAULT_HERM_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    The input is gated on ``||M - M*|| <= herm_tol * ||M||`` and then
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
    if defect > herm_tol * scale:
        raise NotHermitian(
            f"asymmetry {defect:.3e} exceeds tolerance {herm_tol * scale:.3e}"
        )
    sym = 0.5 * (m + m.conj().T)
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(sym)
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


class PsdFactors(NamedTuple):
    """Square root and pseudoinverse family of a Hermitian PSD matrix."""

    sqrt: np.ndarray
    pinv: np.ndarray
    sqrt_pinv: np.ndarray
    rank: int
    min_pos_eig: float


def _psd_factors_from_eig(
    eig: EigenDecomposition, rank_tol: float
) -> tuple[PsdFactors, np.ndarray]:
    """Build PSD factors from an eigendecomposition.

    Returns the factors together with the retained-eigenvector block (the
    orthonormal basis of the numerical range space).  Eigenvalues at or
    below ``rank_tol * lambda_max`` are treated as zero; an eigenvalue
    below ``-rank_tol * ||M||`` disqualifies the matrix as PSD.
    """
    lam = eig.eigenvalues
    v = eig.eigenvectors
    lam_max = float(lam[-1]) if lam.size else 0.0
    norm = float(np.max(np.abs(lam))) if lam.size else 0.0
    if lam.size and float(lam[0]) < -rank_tol * norm:
        raise NotPSD(
            f"most negative eigenvalue {float(lam[0]):.3e} is below "
            f"-rank_tol*||M|| = {-rank_tol * norm:.3e}"
        )
    cutoff = rank_tol * lam_max
    keep = lam > cutoff
    lam_kept = lam[keep]
    v_kept = v[:, keep]
    rank = int(lam_kept.size)
    min_pos = float(lam_kept[0]) if rank else 0.0

    sqrt_lam = np.sqrt(lam_kept)
    sqrt = (v_kept * sqrt_lam) @ v_kept.conj().T
    pinv = (v_kept / lam_kept) @ v_kept.conj().T
    sqrt_pinv = (v_kept / sqrt_lam) @ v_kept.conj().T
    # Exact Hermitian symmetry keeps downstream symmetry gates trivially green.
    sqrt = 0.5 * (sqrt + sqrt.conj().T)
    pinv = 0.5 * (pinv + pinv.conj().T)
    sqrt_pinv = 0.5 * (sqrt_pinv + sqrt_pinv.conj().T)
    factors = PsdFactors(
        sqrt=sqrt, pinv=pinv, sqrt_pinv=sqrt_pinv, rank=rank, min_pos_eig=min_pos
    )
    return factors, v_kept


def psd_sqrt_and_pinv(
    m,
    rank_tol: float = DEFAULT_RANK_TOL,
    herm_tol: float = DEFAULT_HERM_TOL,
) -> PsdFactors:
    """Square root, Moore-Penrose pseudoinverse, and rank data of a PSD matrix.

    All outputs are assembled from one Hermitian eigendecomposition with the
    relative cutoff ``rank_tol * lambda_max``, which makes the rank decision
    invariant under rescaling.  The Penrose identities and ``sqrt @ sqrt ~= M``
    hold by construction up to round-off amplified by the condition number of
    the retained spectrum.

    Raises:
        NotPSD: an eigenvalue lies below ``-rank_tol * ||M||``.
        NotHermitian / NotSquare: propagated from the eigendecomposition.
    """
    eig = hermitian_eig(m, herm_tol=herm_tol)
    factors, _ = _psd_factors_from_eig(eig, rank_tol)
    return factors


def numerical_rank(m, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above ``rank_tol * sigma_max``."""
    arr = as_complex_matrix(m)
    sigma = np.linalg.svd(arr, compute_uv=False)
    if sigma.size == 0:
        return 0
    thresh = rank_tol * float(sigma[0])
    return int(np.count_nonzero(sigma > thresh))
