"""Upper bounds on the moduli of polynomial zeros.

A monic polynomial is represented by its low-order coefficients; its
zeros are the eigenvalues of the Frobenius companion matrix.  Three
classical bounds (Cauchy, Carmichael-Mason, Fujii-Kubo) come as closed
forms.  The weighted bound certifies max |zero| <= max_k alpha_k, with
alpha = (M d) / d for any weights d > 0 and one nonnegative matrix M
built from |a_i|.  By Collatz-Wielandt its best value is the Perron root
rho(M), reached at the Perron vector; both are computed directly.

M is its first column plus 1/2 on the diagonal and superdiagonal below
row 1: alpha and the bracket of rho(M) are read off that column in O(n).
``zero_bound_report`` forms one column and one eigenvalue-only companion
solve, its only matrix, gated on its top root.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeZero,
    InvalidMatrix,
    NonPositiveWeight,
    NumericalFailure,
    WeightDimensionMismatch,
)
from .linalg import as_numbers, lapack

__all__ = [
    "PolynomialSpec",
    "ZeroBoundReport",
    "alphas",
    "bound_carmichael_mason",
    "bound_cauchy",
    "bound_fujii_kubo",
    "bound_prk",
    "certificate_matrix",
    "companion",
    "make_polynomial",
    "max_root_modulus",
    "optimize_weights",
    "validate_weights",
    "zero_bound_report",
]

#: Backward-error tolerance of the reported root (see ``_top_modulus``).
ROOT_TOL = 1e-8


@dataclass(frozen=True)
class PolynomialSpec:
    """Monic polynomial z^n + a_{n-1} z^{n-1} + ... + a_0.

    ``coefficients`` holds a_0..a_{n-1}.  Non-monic input is normalized
    at ingestion; the divisor is kept in ``leading_coefficient``.
    """

    coefficients: np.ndarray
    degree: int
    leading_coefficient: complex = 1.0 + 0.0j


def make_polynomial(low_coefficients, leading_coefficient: complex = 1.0) -> PolynomialSpec:
    """Build a PolynomialSpec from a_0..a_{n-1} (and an optional leading
    coefficient to divide out)."""
    arr = np.atleast_1d(as_numbers(low_coefficients, "coefficients", complex))
    if arr.ndim != 1:
        raise InvalidMatrix(f"coefficients must form a 1-D sequence, got ndim={arr.ndim}")
    if arr.size == 0:
        raise DegreeZero("polynomial must have degree >= 1")
    lead = as_numbers(leading_coefficient, "leading coefficient", complex)
    if lead.ndim != 0:
        raise InvalidMatrix(f"leading coefficient must be a scalar, got ndim={lead.ndim}")
    lead = complex(lead)
    if not cmath.isfinite(lead):
        raise InvalidMatrix("leading coefficient must be finite")
    if lead == 0:
        raise DegreeZero("leading coefficient must be nonzero")
    if lead != 1.0 + 0.0j:
        # a tiny leading coefficient can push a quotient past the float
        # range; the check below reports that instead of a warning
        with np.errstate(over="ignore", invalid="ignore"):
            arr = arr / lead
    if not np.isfinite(arr).all():
        raise InvalidMatrix(
            "coefficients must be finite, also after dividing by the leading coefficient"
        )
    return PolynomialSpec(coefficients=arr, degree=int(arr.size), leading_coefficient=lead)


def validate_weights(d, degree: int) -> np.ndarray:
    """Check a weight vector: real, strictly positive, one entry per row.
    A complex entry passes only with a zero imaginary part."""
    arr = np.atleast_1d(as_numbers(d, "weights", complex))
    if np.any(arr.imag != 0):
        raise NonPositiveWeight("weights must be real")
    arr = arr.real
    if arr.ndim != 1:
        raise InvalidMatrix(f"weights must form a 1-D sequence, got ndim={arr.ndim}")
    if arr.size != degree:
        raise WeightDimensionMismatch(f"{arr.size} weights for a degree-{degree} polynomial")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise NonPositiveWeight("weights must be finite and strictly positive")
    return arr


def companion(p: PolynomialSpec) -> np.ndarray:
    """Frobenius companion matrix: negated coefficients across the first
    row (highest order first), ones on the subdiagonal."""
    mat = np.eye(p.degree, k=-1, dtype=np.complex128)
    mat[0, :] = -p.coefficients[::-1]
    return mat


def bound_cauchy(p: PolynomialSpec) -> float:
    """1 + max |a_i|."""
    return 1.0 + float(np.max(np.abs(p.coefficients)))


def bound_carmichael_mason(p: PolynomialSpec) -> float:
    """sqrt(1 + sum |a_i|^2) by ``math.hypot``, which scales internally, so
    that no square overflows or underflows where the bound does not."""
    return math.hypot(1.0, *np.abs(p.coefficients).tolist())


def bound_fujii_kubo(p: PolynomialSpec) -> float:
    """(sqrt(sum |a_i|^2) + |a_{n-1}|) / 2 + cos(pi / (n+1)), each term
    halved before the sum, so that it stays finite wherever the bound is."""
    mags = np.abs(p.coefficients).tolist()
    return 0.5 * math.hypot(*mags) + 0.5 * mags[-1] + math.cos(math.pi / (p.degree + 1))


def certificate_matrix(p: PolynomialSpec) -> np.ndarray:
    """The nonnegative certificate matrix M behind the alphas, every entry
    halved: row 1 collects all coefficient magnitudes (|a_{n-1}| twice) on
    weight 1 plus weight 2; row k >= 2 puts |a_{n-k}| on weight 1 plus
    weights k and k+1, so the last row sees a_0.  Degree 1: [[|a_0|]].
    Built from ``_column``, as the certificates read it; an entry past the
    float range raises InvalidMatrix."""
    col, m11 = _column(np.abs(p.coefficients))
    m = 0.5 * (np.eye(len(col)) + np.eye(len(col), k=1))
    m[:, 0] = col
    m[0, 0] = m11
    return m


def _column(mags: np.ndarray) -> tuple[list[float], float]:
    """(c, M_11) from |a_0| .. |a_{n-1}|: c_k = |a_{n-k}| / 2, M_11 = c_1 + sum c,
    halved first, which is exact; an M_11 past the float range raises InvalidMatrix."""
    half = 0.5 * mags
    with np.errstate(over="ignore"):
        m11 = float(half[-1]) + float(np.sum(half))
    if not math.isfinite(m11):
        raise InvalidMatrix("the certificate matrix overflows: coefficients too large")
    return half[::-1].tolist(), m11


def _ratios(col: list[float], m11: float, d: list[float]) -> list[float]:
    """alpha = (M d) / d: (M d)_1 = M_11 d_1 + d_2 / 2, (M d)_k = c_k d_1 +
    (d_k + d_{k+1}) / 2 and (M d)_n = c_n d_1 + d_n / 2, each half taken
    before the sum; degree 1 gives [M_11] = [|a_0|]."""
    if len(d) == 1:
        return [m11]
    d1, nxt = d[0], [*d[2:], 0.0]  # d_{n+1} = 0 gives row n
    return [
        (m11 * d1 + 0.5 * d[1]) / d1,
        *((c * d1 + 0.5 * dk + 0.5 * dn) / dk for c, dk, dn in zip(col[1:], d[1:], nxt)),
    ]


def _bracket(col: list[float], m11: float) -> tuple[float, float]:
    """lo <= rho(M) <= hi: the largest diagonal entry and row sum of M."""
    if len(col) == 1:
        return m11, m11
    return max(m11, 0.5), max(m11 + 0.5, col[-1] + 0.5, *(c + 1.0 for c in col[1:-1]))


def alphas(p: PolynomialSpec, d) -> np.ndarray:
    """Per-row certificate values alpha_1..alpha_n = (M d) / d for weights d,
    with M = ``certificate_matrix(p)``; homogeneous of degree 0 in d."""
    w = validate_weights(d, p.degree)
    return np.asarray(_ratios(*_column(np.abs(p.coefficients)), w.tolist()))


def bound_prk(p: PolynomialSpec, d) -> float:
    """The weighted certificate max_k alpha_k(d)."""
    return float(np.max(alphas(p, d)))


def max_root_modulus(p: PolynomialSpec) -> float:
    """Largest zero modulus: |z*| of the top companion eigenvalue, gated (``_top_modulus``)."""
    return _top_modulus(p, np.abs(p.coefficients).tolist())


def _top_modulus(p: PolynomialSpec, mags: list[float]) -> float:
    """|z*| for the companion eigenvalue z* of largest modulus, once its
    backward error passes |p(z*)| <= ROOT_TOL * sum_{i=0..n} |a_i| |z*|^i
    (a_n = 1), else NumericalFailure.  Every other computed root has
    modulus <= |z*|, so no root the gate skips can exceed the reported
    one; no accuracy beyond the conditioning of z* is certified.  One
    Horner pass forms both sums in x = z* / 2^k, with 2^k the power of two
    that puts |x| in [1/2, 1), and with each a_i 2^(k i) in units of
    2^top, the power of two at the largest of them: every term is below 1
    and the largest is at least 2^-(n+1), so neither sum overflows, nor
    does the gate pass a root whose terms all underflow; only an exact
    root 0 has a zero sum.
    """
    with lapack("eigenvalue iteration"):
        lam = np.linalg.eigvals(companion(p))
    moduli = np.abs(lam)
    z, r = complex(lam[np.argmax(moduli)]), float(np.max(moduli))
    k = math.frexp(r)[1]
    coeffs = [*p.coefficients.tolist(), 1.0]
    top = max(math.frexp(m)[1] + k * i for i, m in enumerate([*mags, 1.0]) if m)
    x = complex(math.ldexp(z.real, -k), math.ldexp(z.imag, -k))
    num, den, size = 0.0, 0.0, abs(x)
    for i in range(p.degree, -1, -1):
        a, shift = coeffs[i], k * i - top
        c = complex(math.ldexp(a.real, shift), math.ldexp(a.imag, shift))
        num, den = num * x + c, den * size + abs(c)
    if not abs(num) <= ROOT_TOL * den:
        eta = abs(num) / den if den else math.inf
        raise NumericalFailure(
            f"largest root z* = {z:.17g} fails the residual gate: backward error "
            f"{eta:.3e} exceeds ROOT_TOL = {ROOT_TOL:.0e}"
        )
    return r


def _chain_weights(tail: list[float], rho: float) -> list[float]:
    """Weights d with d_1 = 1 and rows 2..n of M d equal to rho d, for
    tail = |a_{n-2}| .. |a_0|: row k forces d_k = (|a_{n-k}| + d_{k+1}) /
    (2 rho - 1), summed backwards from d_{n+1} = 0 over nonnegative terms
    only.  Zeros left by vanishing trailing coefficients are lifted to
    d_{k+1} = step * d_k, which raises no alpha by more than step / 2; the
    step grows past 1e-12 only where the floor would otherwise underflow.
    """
    n, x = len(tail) + 1, 2.0 * rho - 1.0
    d, nxt = [1.0] * n, 0.0
    for k in range(n - 1, 0, -1):
        nxt = d[k] = (tail[k - 1] + nxt) / x if x > 0.0 else 0.0
    step = max(1e-12, 1e-300 ** (1.0 / max(n - 1, 1)))
    for k in range(1, n):
        d[k] = max(d[k], step * d[k - 1])
    return d


def _row_one(m11: float, tail: list[float], y: float) -> tuple[float, float]:
    """Row 1 of M d = rho d in y = 1 / (2 rho - 1), and its slope in y.

    Rows 2..n fix d_k = y (|a_{n-k}| + d_{k+1}), so one backward pass over
    ``tail`` (as in ``_chain_weights``) gives d_2 and its derivative, and
    row 1 becomes Q(y) = y (M_11 + d_2 / 2) - (1 + y) / 2.  Q(0) = -1/2
    and every coefficient of Q from y^2 up is nonnegative, so Q is convex
    with at most one positive root, at rho = rho(M); Q <= 0 where rho lies
    above it.
    """
    d = slope = 0.0
    for t in reversed(tail):
        s = t + d
        d, slope = y * s, s + y * slope
    return y * (m11 + 0.5 * d) - 0.5 * (1.0 + y), m11 - 0.5 + 0.5 * (d + y * slope)


def _perron_root(m11: float, tail: list[float], lo: float, hi: float) -> float:
    """rho(M), rounded up to a float, from the row-1 equation Q of
    ``_row_one`` and a bracket lo <= rho(M) <= hi.

    Safeguarded Newton steps on Q(y), taken on the floats of rho because
    the weights are formed from rho (near rho = 1/2 these are far coarser
    than the floats of y).  The bracket keeps Q > 0 at lo and Q <= 0 at
    hi.  As Q is convex, a step from below rho(M) cannot pass it; a step
    from above that leaves the bracket, a Q that does not rise yet, or a
    step that fails to halve the one before (a slow creep from far below)
    is replaced by bisection in rho.  The iteration stops once the step
    reaches the float spacing of rho, or that of y four times over, the
    rounding of Q itself.  It returns the float at or just above rho(M):
    there alpha_1 stays below rho, while one float below, near rho = 1/2,
    it can exceed rho(M) by thousands of units in the last place.
    """
    if lo >= hi or not any(tail):
        # without a tail M is triangular: rho(M) is its largest diagonal entry
        return lo
    rho, last = (lo if lo > 0.5 else hi), math.inf
    while True:
        y = 1.0 / (2.0 * rho - 1.0)
        q, slope = _row_one(m11, tail, y)
        if q <= 0.0:
            hi = rho
        else:
            lo = rho
        nxt = step = -math.inf
        if slope > 0.0:
            dy = q / slope
            t = y - dy
            nxt = rho + 0.5 * (dy / t) / y if t > 0.0 else math.inf
            if abs(dy) <= 4.0 * math.ulp(y) or abs(nxt - rho) <= math.ulp(rho):
                return rho if q <= 0.0 else min(hi, math.nextafter(nxt, hi))
            step = abs(nxt - rho)
            nxt = min(nxt, math.nextafter(hi, lo))
        if nxt <= lo or step > 0.5 * last:
            nxt, step = 0.5 * (lo + hi), math.inf
            if not lo < nxt < hi:
                return hi
        rho, last = nxt, step


def optimize_weights(p: PolynomialSpec) -> tuple[np.ndarray, float]:
    """Weights minimizing the certificate max_k alpha_k; returns (d, value).

    By Collatz-Wielandt the minimum over d > 0 is the Perron root rho(M)
    of ``certificate_matrix(p)``, at its Perron vector.  For a trial rho
    ``_chain_weights`` solves rows 2..n exactly, and row 1 leaves one convex
    equation in y = 1 / (2 rho - 1) with one positive root (``_row_one``),
    found by safeguarded Newton steps (``_perron_root``).  No eigensolver
    is involved, so reducible M (a_0 = 0) and a near-zero a_0 come out as
    accurately as the rest.  The all-ones weights stay a candidate; they
    win where the Perron weights' certificate overflows.
    """
    d, alpha_vals = _perron_weights(*_column(np.abs(p.coefficients)))
    return np.asarray(d), max(alpha_vals)


def _perron_weights(col: list[float], m11: float) -> tuple[list[float], list[float]]:
    """The weights of ``optimize_weights`` and their alphas, from M's column."""
    tail = [2.0 * c for c in col[1:]]  # |a_{n-2}| .. |a_0|
    d_star = _chain_weights(tail, _perron_root(m11, tail, *_bracket(col, m11)))
    ones = [1.0] * len(col)
    a_star, a_ones = _ratios(col, m11, d_star), _ratios(col, m11, ones)
    return (d_star, a_star) if max(a_star) < max(a_ones) else (ones, a_ones)


@dataclass(frozen=True)
class ZeroBoundReport:
    """All four zero bounds for one polynomial, with the weights used and
    the true extreme zero modulus for reference."""

    r_c: float
    r_cm: float
    r_fk: float
    r_prk: float
    d_star: np.ndarray
    alphas: np.ndarray
    max_root_modulus: float


def zero_bound_report(p: PolynomialSpec, d=None) -> ZeroBoundReport:
    """Evaluate every bound, with the Perron weights unless d is supplied.
    Each quantity is formed once (see the module docstring) by the helpers
    of the public functions, so each field equals theirs to the bit; a
    root that fails its gate raises, as in ``max_root_modulus``."""
    mags = np.abs(p.coefficients)
    col, m11 = _column(mags)
    if d is None:
        d_star, alpha_vals = _perron_weights(col, m11)
    else:
        d_star = validate_weights(d, p.degree).tolist()
        alpha_vals = _ratios(col, m11, d_star)
    mags = mags.tolist()
    return ZeroBoundReport(
        r_c=1.0 + max(mags),
        r_cm=math.hypot(1.0, *mags),
        r_fk=0.5 * math.hypot(*mags) + 0.5 * mags[-1] + math.cos(math.pi / (p.degree + 1)),
        r_prk=max(alpha_vals),
        d_star=np.asarray(d_star),
        alphas=np.asarray(alpha_vals),
        max_root_modulus=_top_modulus(p, mags),
    )
