"""Weighted numerical range, radius, and Crawford number.

Everything runs on the compressed matrix C = L^(1/2) Q* T Q L^(-1/2)
built from the kept eigenpairs (L, Q) of A, whose classical numerical
range equals the weighted range of T.  One kernel, :func:`_rotated`,
builds the rotated Hermitian parts Re(exp(-i*theta) C), one matrix or a
whole grid of them, and every range quantity is read off their spectra.  The
workhorse is the support function

    h(theta) = lambda_max(Re(exp(-i*theta) C)),

on a fixed grid of THETA_GRID angles, refined next to the best grid angle
by second-order steps on its eigenvalue branches (:mod:`semirad.scan`).
The part at theta + pi is minus the part at theta, so one scan takes the
eigenvalues of the parts of the half turn [0, pi) and reads all
THETA_GRID support values off them, h(theta + pi) being -lambda_min at
theta.  Every batched solve over the half turn runs in chunks of at most
CHUNK_ENTRIES matrix entries, so its memory does not grow with the grid.
The scan and the refined max and min of h are taken once per operator,
on first read, and kept on it (like its ``adjoint``); every quantity
below and every report of :mod:`semirad.bounds` reads them there:

  * radius   w = max_theta h(theta),
  * crawford m = max(0, -min_theta h(theta))   (support duality),
  * boundary points p_theta = <C x_theta, x_theta> with x_theta the top
    eigenvector (the bottom one at theta - pi), tracing the support
    points of the range; x_theta comes from one shifted solve against
    the kept eigenvalue, not from an eigenvector decomposition,
  * inclusion: z lies in the range iff Re(exp(-i*theta) z) <= h(theta)
    for every theta.

Two independent cross-checks live here as well: the rotation identity
path through the weighted real part (:func:`w_theta_identity_check`) and
a Monte-Carlo supremum over random weighted-unit vectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import frexp, ldexp

import numpy as np

from .errors import NotStrictlyPositive, NumericalFailure
from .linalg import require_square, spectral_norm
from .scan import branches, refine_best
from .semihilbert import SemiOperator, im_a, re_a

#: Number of angles in the theta scan over [0, 2*pi).
THETA_GRID = 720

_THETAS = np.linspace(0.0, 2.0 * np.pi, THETA_GRID, endpoint=False)
_HALF_TURN = _THETAS[: THETA_GRID // 2]  # [0, pi)
_THETA_STEP = 2.0 * np.pi / THETA_GRID

#: Complex entries in one stack of matrices handed to LAPACK (1 MiB): the
#: half-turn scans run over chunks of angles this size.
CHUNK_ENTRIES = 2**16


def _rotated(c: np.ndarray, theta) -> np.ndarray:
    """Re(exp(-i*theta) C) = (exp(-i*theta) C + exp(i*theta) C*) / 2.

    A scalar theta gives one Hermitian matrix, an array of angles the
    stack of them; callers take ``eigvalsh`` of the result or solve
    shifted systems with it.
    The phase is halved before the sum, so entries near the float limit
    do not overflow; halving is exact, so the result is the same.
    """
    half = 0.5 * np.exp(1j * np.asarray(theta, dtype=np.float64))[..., None, None]
    return half.conj() * c + half * c.conj().T


def _chunks(k: int, per_angle: int = 1) -> list[slice]:
    """Slices of the half turn whose stacks, *per_angle* k x k matrices for
    each angle, hold at most CHUNK_ENTRIES entries (one angle at least)."""
    m = _HALF_TURN.size
    step = max(1, CHUNK_ENTRIES // (per_angle * k * k))
    return [slice(i, min(i + step, m)) for i in range(0, m, step)]


def _scan(batched, parts, k: int) -> np.ndarray:
    """*batched* of the stacked k x k *parts* (a function of the angles)
    over the half turn, chunk by chunk, joined along the angle axis.
    LAPACK factors each matrix of a stack on its own, so the chunking does
    not change a bit of the result."""
    return np.concatenate([batched(parts(_HALF_TURN[s])) for s in _chunks(k)])


def _half_turn(c: np.ndarray) -> np.ndarray:
    """The one scan: ascending spectra of Re(exp(-i*theta) C) on [0, pi)."""
    return _scan(np.linalg.eigvalsh, lambda t: _rotated(c, t), c.shape[0])


def _support(lam: np.ndarray) -> np.ndarray:
    """h on the whole theta grid from the half-turn spectra *lam*."""
    return np.concatenate((lam[:, -1], -lam[:, 0]))


def _refine(evaluate, values, maximize: bool) -> tuple[float, float]:
    """(theta, f(theta)) at the best of *values* on the grid, refined."""
    return refine_best(evaluate, _THETAS, values, _THETA_STEP, maximize)


def _refined_support(
    c: np.ndarray, maximize: bool, lam: np.ndarray | None = None
) -> float:
    """max (or min) of h, from the half-turn spectra *lam* or, if None, a
    fresh scan of C; 0 if C is empty.

    The max of h sits where the top branch is smooth.  The min may sit
    where the top branch crosses the next one, or, where the whole
    spectrum meets (a segment's normal), the bottom one, so those three
    are modelled.
    """
    k = c.shape[0]
    if k == 0:
        return 0.0
    idx = [k - 1] if maximize else sorted({0, max(k - 2, 0), k - 1})
    sign = -1.0 if maximize else 1.0
    lam = _half_turn(c) if lam is None else lam
    scale = float(np.max(np.abs(lam)))

    def h(theta: float):
        lam_t, q = branches(lambda t: _rotated(c, t), theta, idx, scale)
        return float(lam_t[0, -1]), sign * q

    return _refine(h, _support(lam), maximize)[1]


def _degenerate_warning(stacklevel: int = 3) -> None:
    warnings.warn(
        "weight matrix has rank 0; the effective space is empty and all "
        "range quantities are reported as 0",
        RuntimeWarning,
        stacklevel=stacklevel,
    )


def _memo(op: SemiOperator, key: str, compute):
    """*op*'s value under *key*, computed on first read and kept in the
    instance ``__dict__``, where ``cached_property`` keeps ``adjoint``."""
    memo = vars(op)
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _spectra(op: SemiOperator) -> np.ndarray:
    """The half-turn spectra of *op*, scanned once per operator."""
    return _memo(op, "_half_turn", lambda: _half_turn(op.compressed))


def _extreme(op: SemiOperator, maximize: bool) -> float:
    """Refined max (or min) of h, once per operator; 0 with a warning,
    on every call, if C is empty."""
    c = op.compressed
    if c.shape[0] == 0:
        _degenerate_warning(stacklevel=4)
        return 0.0
    key = "_h_max" if maximize else "_h_min"
    return _memo(op, key, lambda: _refined_support(c, maximize, _spectra(op)))


def a_numerical_radius(op: SemiOperator) -> float:
    """Weighted numerical radius via the rotated-eigenvalue scan.

    Max of the support function over the theta grid, then second-order
    refinement of the top eigenvalue branch next to the winning grid
    angle (:func:`scan.refine_best`).
    """
    return _extreme(op, True)


def _origin_inside(h: np.ndarray) -> bool:
    """True when the support values *h* on the grid prove that the origin
    is interior to the range.

    Within a cell of the grid angle a, the support point p_a gives
    h(theta) >= h_a cos(step) - |p_a| sin(step), and |p_a| <= w < 2 max h
    on the grid (the grid angle next to the radius's has h >= w cos(step
    / 2)), so h stays positive when min h cos(step) > 2 max h sin(step).
    """
    lo, hi = float(np.min(h)), float(np.max(h))
    return lo * np.cos(_THETA_STEP) > 2.0 * hi * np.sin(_THETA_STEP)


def a_crawford(op: SemiOperator) -> float:
    """Weighted Crawford number (least modulus over the range).

    By support duality the distance from the origin to the convex range
    is max(0, -min_theta h(theta)); the same scan that yields the radius
    yields this minimum, refined on the eigenvalue branches that may cross
    there.  A value of 0 means the origin lies in the range; when the grid
    alone proves it interior, nothing is refined.
    """
    if op.compressed.shape[0] and _origin_inside(_support(_spectra(op))):
        return 0.0
    return max(0.0, -_extreme(op, False))


@dataclass(frozen=True)
class RangeEstimate:
    """Polygonal picture of the weighted numerical range.

    ``boundary`` holds the THETA_GRID support points of the range, one per
    grid angle, each on the support line of its angle; where the range has
    a flat edge normal to that angle, the point may be any point of the
    edge.  ``radius`` and ``crawford`` are the
    refined extremal moduli.  ``degenerate`` flags a rank-0 weight, where
    the range is empty and every quantity is reported as 0.
    """

    radius: float
    crawford: float
    boundary: np.ndarray
    degenerate: bool = False


def _boundary(c: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The THETA_GRID support points of C from its half-turn spectra *lam*.

    One step of inverse iteration (Ipsen, SIAM Review 39, 1997) shifted
    just past the known eigenvalue: at theta the top eigenvector solves
    ((lambda_max + pad) I - H) x = b and the bottom one, whose point is
    the one at theta + pi, solves (H - (lambda_min - pad) I) x = b, with
    H = Re(exp(-i*theta) C); both matrices are positive definite.  The
    point is x* C x for the normalized x (Johnson, SIAM J. Numer. Anal.
    15, 1978).  The work runs in units of s, a power of two at the scale
    of the whole scan, so that neither C nor pad = 4 k eps depends on one
    angle, and nothing overflows up to the float limit.  A zero C has the
    origin as its whole boundary.
    """
    k, m = c.shape[0], _HALF_TURN.size
    boundary = np.zeros(2 * m, dtype=np.complex128)
    scale = float(np.max(np.abs(lam)))
    if scale == 0.0:
        return boundary
    s = ldexp(1.0, frexp(scale)[1] - 1)  # s <= scale < 2 s; 2 s may overflow
    c, lam = c / s, lam / s
    pad = 4 * k * np.finfo(np.float64).eps
    j = np.arange(k)
    b = (np.cos(j) + 1j * np.sin(0.7 * j))[:, None]  # fixed, no zero entry
    for sl in _chunks(k, per_angle=2):
        h = _rotated(c, _HALF_TURN[sl])
        n = len(h)
        stack = np.concatenate((-h, h))
        stack[:, j, j] += np.concatenate((lam[sl, -1] + pad, pad - lam[sl, 0]))[:, None]
        try:
            x = np.linalg.solve(stack, np.broadcast_to(b, (2 * n, k, 1)))[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(
                f"shifted solve for the boundary failed: {exc}"
            ) from exc
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        p = s * np.einsum("bi,bi->b", x.conj(), x @ c.T)  # row b: (C x_b)^T
        boundary[sl], boundary[m:][sl] = p[:n], p[n:]
    return boundary


def estimate_range(op: SemiOperator) -> RangeEstimate:
    """Radius, Crawford number, and boundary polygon off the one scan."""
    c = op.compressed
    if c.shape[0] == 0:
        _degenerate_warning()
        return RangeEstimate(
            radius=0.0,
            crawford=0.0,
            boundary=np.zeros(0, dtype=np.complex128),
            degenerate=True,
        )
    return RangeEstimate(
        radius=a_numerical_radius(op),
        crawford=a_crawford(op),
        boundary=_boundary(c, _spectra(op)),
    )


def w_theta_identity_check(op: SemiOperator) -> float:
    """Radius through the rotation identity, as an independent path.

    w(T) = max_theta ||Re_A(exp(i*theta) T)||_A, and the weighted real part
    is cos(theta) Re_A(T) - sin(theta) Im_A(T).  Both parts are formed once
    in full space from the weighted adjoint (not from C's rotation kernel);
    the seminorm over the theta grid is the batched SVD of their
    compressed combinations over the half turn (the norm has period pi),
    chunked like the scan.  The combinations form a Hermitian family like
    the rotated parts, so the best theta is refined on the larger of the
    branches lambda_max and -lambda_min, like the radius.  Agrees with
    :func:`a_numerical_radius` to ~1e-8.
    """
    c_re, c_im = re_a(op).compressed, im_a(op).compressed
    if c_re.shape[0] == 0:
        return 0.0

    def part(theta):
        theta = np.asarray(theta)[..., None, None]
        return np.cos(theta) * c_re - np.sin(theta) * c_im

    def norms(stack):
        return np.linalg.svd(stack, compute_uv=False)[:, 0]

    k = c_re.shape[0]

    # the part at theta + pi is minus the part at theta: same norm
    half = _scan(norms, part, k)
    scale = float(np.max(half))

    def norm(theta: float):
        # the norm is the larger of lambda_max and -lambda_min; refine that
        # branch, whose max is smooth
        lam, q = branches(part, theta, [0, k - 1], scale)
        top = lam[0, -1] >= -lam[0, 0]
        model = -q[:, :, 1:] if top else q[:, :, :1]
        return float(max(lam[0, -1], -lam[0, 0])), model

    return _refine(norm, np.tile(half, 2), True)[1]


def general_eig(m) -> np.ndarray:
    """Eigenvalues of a general (non-Hermitian) square matrix.

    Each returned pair is accepted only if the residual ||Mv - lambda v||
    stays below 1e-8 * ||M|| (0 for a zero M); otherwise NumericalFailure.
    """
    mat = require_square(m)
    try:
        lam, vec = np.linalg.eig(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvalue iteration failed: {exc}") from exc
    scale = spectral_norm(mat)
    # in units of ||M||, so that squares of tiny residuals cannot underflow
    residual = (mat @ vec - vec * lam[None, :]) / (scale or 1.0)
    worst = float(np.max(np.linalg.norm(residual, axis=0))) if lam.size else 0.0
    tol = 1e-8 if scale else 0.0
    if worst > tol:
        raise NumericalFailure(
            f"eigenpair residual {worst:.3e} ||M|| exceeds tolerance {tol:.0e} ||M||"
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


def spectral_inclusion_check(op: SemiOperator) -> InclusionReport:
    """Check that every eigenvalue of T lies in the computed range.

    The support-line test: z lies in the range iff Re(exp(-i*theta) z)
    <= h(theta) for every theta, so an eigenvalue's violation is its
    largest excess over the support lines at the grid angles (0 inside),
    a distance never larger than the one to the polygon of boundary
    points.  The check passes when every violation is at most 1e-6 times
    the radius, a gate that scales with T.  Only meaningful when the
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
    support = _support(_spectra(op))
    excess = (np.exp(-1j * _THETAS) * eigenvalues[:, None]).real - support
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
