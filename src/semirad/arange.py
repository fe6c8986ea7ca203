"""Weighted numerical range, radius, and Crawford number.

Everything runs on the compressed matrix C (the reduced operator in an
orthonormal basis of range(A)), whose classical numerical range equals
the weighted range of T.  One kernel, :func:`_rotated`, builds the
rotated Hermitian parts Re(exp(-i*theta) C), one matrix or a whole grid
of them, and every range quantity is read off their spectra.  The
workhorse is the support function

    h(theta) = lambda_max(Re(exp(-i*theta) C)),

evaluated on a theta grid with golden-section refinement:

  * radius   w = max_theta h(theta),
  * crawford m = max(0, -min_theta h(theta))   (support duality),
  * boundary points p_theta = <C x_theta, x_theta> with x_theta the top
    eigenvector, tracing the extreme points of the range,
  * inclusion: z lies in the range iff Re(exp(-i*theta) z) <= h(theta)
    for every theta.

Two independent cross-checks live here as well: the rotation identity
path through the weighted real part (:func:`w_theta_identity_check`) and
a Monte-Carlo supremum over random weighted-unit vectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NotStrictlyPositive, NumericalFailure
from .linalg import require_square, spectral_norm
from .scan import _refine_best
from .semihilbert import (
    SemiOperator,
    a_operator_seminorm,
    re_a,
    scale_operator,
)

DEFAULT_THETA_GRID = 720

#: Refinement tolerance on theta for the golden-section stage.
THETA_REFINE_TOL = 1e-10


def _rotated(c: np.ndarray, theta) -> np.ndarray:
    """Re(exp(-i*theta) C) = (exp(-i*theta) C + exp(i*theta) C*) / 2.

    A scalar theta gives one Hermitian matrix, an array of angles the
    stack of them; callers take ``eigvalsh`` or ``eigh`` of the result.
    """
    phases = np.exp(1j * np.asarray(theta, dtype=np.float64))[..., None, None]
    return 0.5 * (phases.conj() * c + phases * c.conj().T)


def _profile(c: np.ndarray, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Support function h on a uniform grid over [0, 2*pi)."""
    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    return thetas, np.linalg.eigvalsh(_rotated(c, thetas))[:, -1]


def _refined_support(
    c: np.ndarray, thetas: np.ndarray, lam: np.ndarray, maximize: bool
) -> float:
    """max (or min) of h, from its grid values *lam* at *thetas*."""

    def h(theta: float) -> float:
        return float(np.linalg.eigvalsh(_rotated(c, theta))[-1])

    step = 2.0 * np.pi / len(thetas)
    return _refine_best(h, thetas, lam, step, maximize, tol=THETA_REFINE_TOL)[1]


def _degenerate_warning() -> None:
    warnings.warn(
        "weight matrix has rank 0; the effective space is empty and all "
        "range quantities are reported as 0",
        RuntimeWarning,
        stacklevel=3,
    )


def a_numerical_radius(op: SemiOperator, theta_grid: int = DEFAULT_THETA_GRID) -> float:
    """Weighted numerical radius via the rotated-eigenvalue scan.

    Max of the support function over a theta grid, then golden-section
    refinement inside the winning cell to 1e-10 in theta.
    """
    c = op.compressed
    if c.shape[0] == 0:
        _degenerate_warning()
        return 0.0
    return _refined_support(c, *_profile(c, theta_grid), maximize=True)


def a_crawford(op: SemiOperator, theta_grid: int = DEFAULT_THETA_GRID) -> float:
    """Weighted Crawford number (least modulus over the range).

    By support duality the distance from the origin to the convex range
    is max(0, -min_theta h(theta)); the same scan that yields the radius
    yields this minimum, refined by golden section.  A value of 0 means
    the origin lies in the range.
    """
    c = op.compressed
    if c.shape[0] == 0:
        _degenerate_warning()
        return 0.0
    return max(0.0, -_refined_support(c, *_profile(c, theta_grid), maximize=False))


@dataclass(frozen=True)
class RangeEstimate:
    """Polygonal picture of the weighted numerical range.

    ``boundary`` holds the support points (extreme points of the range)
    collected over the theta grid; ``radius`` and ``crawford`` are the
    refined extremal moduli.  ``degenerate`` flags a rank-0 weight, where
    the range is empty and every quantity is reported as 0.
    """

    radius: float
    crawford: float
    boundary: np.ndarray
    theta_grid: int
    refined: bool
    degenerate: bool = False


def estimate_range(
    op: SemiOperator,
    theta_grid: int = DEFAULT_THETA_GRID,
    refine: bool = True,
) -> RangeEstimate:
    """Radius, Crawford number, and boundary polygon in one scan."""
    c = op.compressed
    if c.shape[0] == 0:
        _degenerate_warning()
        return RangeEstimate(
            radius=0.0,
            crawford=0.0,
            boundary=np.zeros(0, dtype=np.complex128),
            theta_grid=theta_grid,
            refined=False,
            degenerate=True,
        )
    thetas = np.linspace(0.0, 2.0 * np.pi, theta_grid, endpoint=False)
    lam, vec = np.linalg.eigh(_rotated(c, thetas))
    lam_top = lam[:, -1]
    top = vec[:, :, -1]
    cx = top @ c.T  # row b holds (C x_b) transposed
    boundary = np.einsum("bi,bi->b", top.conj(), cx)

    if refine:
        radius = _refined_support(c, thetas, lam_top, maximize=True)
        lowest = _refined_support(c, thetas, lam_top, maximize=False)
    else:
        radius, lowest = float(np.max(lam_top)), float(np.min(lam_top))
    return RangeEstimate(
        radius=radius,
        crawford=max(0.0, -lowest),
        boundary=boundary,
        theta_grid=theta_grid,
        refined=refine,
    )


def w_theta_identity_check(
    op: SemiOperator, grid: int = DEFAULT_THETA_GRID
) -> float:
    """Radius through the rotation identity, as an independent path.

    Evaluates the seminorm of the weighted real part of exp(i*theta) T
    over the grid (full-space matrices, no compressed shortcut), then
    refines around the best theta.  Agrees with
    :func:`a_numerical_radius` to ~1e-8 at the default grid.
    """

    def g(theta: float) -> float:
        rotated = scale_operator(op, np.exp(1j * theta))
        return a_operator_seminorm(re_a(rotated))

    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    values = [g(t) for t in thetas]
    step = 2.0 * np.pi / grid
    return _refine_best(g, thetas, values, step, True, tol=THETA_REFINE_TOL)[1]


def general_eig(m) -> np.ndarray:
    """Eigenvalues of a general (non-Hermitian) square matrix.

    Each returned pair is accepted only if the residual ||Mv - lambda v||
    stays below 1e-8 * (1 + ||M||); otherwise NumericalFailure.
    """
    mat = require_square(m)
    try:
        lam, vec = np.linalg.eig(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvalue iteration failed: {exc}") from exc
    residual = mat @ vec - vec * lam[None, :]
    worst = float(np.max(np.linalg.norm(residual, axis=0))) if lam.size else 0.0
    tol = 1e-8 * (1.0 + spectral_norm(mat))
    if worst > tol:
        raise NumericalFailure(
            f"eigenpair residual {worst:.3e} exceeds tolerance {tol:.3e}"
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


def spectral_inclusion_check(
    op: SemiOperator, theta_grid: int = DEFAULT_THETA_GRID
) -> InclusionReport:
    """Check that every eigenvalue of T lies in the computed range.

    The support-line test: z lies in the range iff Re(exp(-i*theta) z)
    <= h(theta) for every theta, so an eigenvalue's violation is its
    largest excess over the support lines at the grid angles (0 inside),
    a distance never larger than the one to the polygon of boundary
    points.  Only meaningful when the weight is strictly positive
    (A >= mI with m > 0); a singular weight can shrink the range until it
    misses part of the spectrum, so that case is rejected outright.
    """
    if not op.context.strictly_positive:
        raise NotStrictlyPositive(
            "spectral inclusion requires a strictly positive weight "
            f"(rank {op.context.rank} < dimension {op.context.dim})"
        )
    c = op.compressed
    thetas, lam = _profile(c, theta_grid)
    eigenvalues = general_eig(op.matrix)
    excess = (np.exp(-1j * thetas)[None, :] * eigenvalues[:, None]).real - lam
    worst = max(0.0, float(np.max(excess)))
    radius = _refined_support(c, thetas, lam, maximize=True)
    tol = 1e-6 * (1.0 + radius)
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
    best = -np.inf
    best_vec = None

    def draw(k: int) -> np.ndarray:
        return rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))

    def normalize(z: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(z, axis=1)
        norms[norms < 1e-300] = 1.0
        return z / norms[:, None]

    explore = max(1, samples // 2)
    used = 0
    while used < explore:
        k = min(batch, explore - used)
        c = normalize(draw(k))
        v = value_fn(c)
        i = int(np.argmax(v))
        if v[i] > best:
            best = float(v[i])
            best_vec = c[i]
        used += k

    sigma = 0.5
    while used < samples:
        k = min(batch, samples - used)
        c = normalize(best_vec[None, :] + sigma * draw(k))
        v = value_fn(c)
        i = int(np.argmax(v))
        if v[i] > best:
            best = float(v[i])
            best_vec = c[i]
        sigma = max(sigma * 0.9, 1e-5)
        used += k
    return float(best)


def monte_carlo_radius(
    op: SemiOperator, samples: int = 100_000, seed: int = 0
) -> float:
    """Sampling oracle for the radius: sup |<T x, x>_A| over random
    weighted-unit vectors.

    Vectors are drawn in orthonormal coordinates on range(A); each sample
    c corresponds to the weighted-unit vector x = sqrt_pinv(A) Q c, whose
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
    random weighted-unit vectors (same coordinates as the radius oracle)."""
    m = op.reduced @ op.context.range_basis

    def values(c: np.ndarray) -> np.ndarray:
        return np.linalg.norm(c @ m.T, axis=1)

    return _sphere_sup(values, m.shape[1], samples, seed)
