"""Weighted numerical range, radius, and Crawford number.

Everything runs on the compressed matrix C = L^(1/2) Q* T Q L^(-1/2)
built from the kept eigenpairs (L, Q) of A, whose classical numerical
range equals the weighted range of T.  Every range quantity is read off
the support function

    h(theta) = lambda_max(Re(exp(-i*theta) C)),

sampled on the support-line cells of C (:class:`cells.Cells`), made once
per operator and kept on it:

  * radius   w = max_theta h(theta)   (:func:`cells.radius`),
  * crawford m = max(0, -min_theta h(theta))   (support duality;
    :func:`cells.crawford`),
  * boundary: the picture's support points and outer vertices, in angle
    order,
  * inclusion: z lies in the range iff Re(exp(-i*theta) z) <= h(theta)
    for every theta.

Two independent cross-checks live here as well: the rotation identity
path through the weighted real part on its own fixed grid
(:func:`w_theta_identity_check`) and a Monte-Carlo supremum over random
weighted-unit vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import chunks, crawford, degenerate_warning, extreme, operator_cells, radius
from .errors import NotStrictlyPositive
from .linalg import general_eig, lapack
from .scan import Parts, branches, refine
from .semihilbert import SemiOperator, im_a, re_a

__all__ = [
    "InclusionReport",
    "RangeEstimate",
    "a_crawford",
    "a_numerical_radius",
    "estimate_range",
    "monte_carlo_radius",
    "monte_carlo_seminorm",
    "spectral_inclusion_check",
    "w_theta_identity_check",
]


def a_numerical_radius(op: SemiOperator) -> float:
    """Weighted numerical radius, the max of the support function.

    A pruned search from the 32 start lines grows only the cells it needs
    (never the picture), refines the top eigenvalue branch by second-order
    steps and checks the result against the farthest support point it
    evaluated and the largest eigenvalue modulus of C, since every corner
    of the range is an eigenvalue (:func:`cells.radius`).
    """
    return extreme(op, "_radius", radius, 0.0)


def a_crawford(op: SemiOperator) -> float:
    """Weighted Crawford number (least modulus over the range).

    By support duality the distance from the origin to the convex range
    is max(0, -min_theta h(theta)).  A value of 0 means the origin lies in
    the range; when the start lines' inner polygon already holds it
    strictly inside, nothing is refined.  Otherwise the cells are grown
    from the start lines, pruned on the chord bound of h, and the minimum
    is refined on the eigenvalue branches that may cross there; the
    picture is never grown.
    """
    return extreme(op, "_crawford", crawford, 0.0)


@dataclass(frozen=True)
class RangeEstimate:
    """Polygonal picture of the weighted numerical range.

    ``boundary`` holds the support points of the inner polygon, one per
    evaluated angle in angle order (at least 32), each on the support line
    of its angle; where the range has a flat edge normal to that angle,
    the point may be any point of the edge.  ``outer`` holds the vertices
    of the outer polygon, where the support lines of neighbouring angles
    meet, one per cell in the same order, so the range lies between the
    two polygons, which lie at most ``cells.RTOL`` times the radius apart.
    ``radius`` and ``crawford`` are the refined extremal moduli.
    ``degenerate`` flags a rank-0 weight, where the range is empty and
    every quantity is reported as 0.
    """

    radius: float
    crawford: float
    boundary: np.ndarray
    outer: np.ndarray
    degenerate: bool = False


def estimate_range(op: SemiOperator) -> RangeEstimate:
    """Radius, Crawford number, and the inner and outer polygons."""
    if op.compressed.shape[0] == 0:
        degenerate_warning()
        empty = np.zeros(0, dtype=np.complex128)
        return RangeEstimate(
            radius=0.0, crawford=0.0, boundary=empty, outer=empty, degenerate=True
        )
    _, _, boundary, outer, _ = operator_cells(op).outline()
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
    are the rotated parts of C' = Re_A(T) - i Im_A(T), compressed (C* in
    exact arithmetic), so the grid's best angle is refined through
    :func:`scan.branches` of C' within one grid step on the larger of the
    branches lambda_max and -lambda_min (:func:`scan.refine`), like the
    radius; the grid's maximum stands if no refined point beats it.  Agrees with
    :func:`a_numerical_radius` to ~1e-8; 0 under a rank-0 weight, with a
    warning, like the radius.
    """
    c_re, c_im = re_a(op).compressed, im_a(op).compressed
    if c_re.shape[0] == 0:
        degenerate_warning()
        return 0.0

    def part(theta):
        theta = np.asarray(theta)[..., None, None]
        return np.cos(theta) * c_re - np.sin(theta) * c_im

    k = c_re.shape[0]
    # the part at theta + pi is minus the part at theta: same norm, so the
    # SVDs run over the half turn, chunked like every batched eigensolve
    half = np.linspace(0.0, np.pi, THETA_GRID // 2, endpoint=False)
    with lapack("SVD of the rotation grid"):
        norms = np.concatenate(
            [
                np.linalg.svd(part(half[s]), compute_uv=False)[:, 0]
                for s in chunks(len(half), k)
            ]
        )
    best = int(np.argmax(norms))

    # part(theta) = Re(exp(-i theta) C'), with C' = c_re - i c_im
    parts = Parts(c_re - 1j * c_im, norms[best])

    def norm(theta: float):
        # the norm is the larger of lambda_max and -lambda_min; refine that
        # branch, whose max is smooth
        q = branches(parts, theta, [0, k - 1])
        bottom, top = q[0, 0]
        model = -q[:, :, 1:] if top >= -bottom else q[:, :, :1]
        return float(max(top, -bottom)), model

    t, step = float(half[best]), 2.0 * np.pi / THETA_GRID
    return max(refine(norm, t, t - step, t + step)[1] * parts.s, float(norms[best]))


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
    theta, h = operator_cells(op).outline()[:2]
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
