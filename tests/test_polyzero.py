import importlib.util
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semirad as sr
from semirad import polyzero
from semirad.cli import main

# running example: p(z) = z^5 + 3z^2 + z/100 + 1/10
EXAMPLE = [0.1, 0.01, 3.0, 0.0, 0.0]
EXAMPLE_WEIGHTS = [2.0, 1.0, 2.0, 1.0 / 3.0, 1.0]


def test_make_polynomial_basic():
    p = sr.make_polynomial(EXAMPLE)
    assert p.degree == 5
    assert p.leading_coefficient == 1
    assert np.allclose(p.coefficients, EXAMPLE)


def test_make_polynomial_normalizes_leading():
    p = sr.make_polynomial([2.0, 4.0], leading_coefficient=2.0)
    assert np.allclose(p.coefficients, [1.0, 2.0])


def test_make_polynomial_rejects_degree_zero():
    with pytest.raises(sr.DegreeZero):
        sr.make_polynomial([])
    with pytest.raises(sr.DegreeZero):
        sr.make_polynomial([1.0], leading_coefficient=0.0)


def test_make_polynomial_rejects_overflow_after_normalizing():
    # 1e10 / 1e-300 is past the float range: an error, not an inf
    # coefficient with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sr.InvalidMatrix):
            sr.make_polynomial([1e10, 2.0], leading_coefficient=1e-300)
        with pytest.raises(sr.InvalidMatrix):
            sr.make_polynomial([1.0, np.inf])


@pytest.mark.parametrize(
    "lead",
    [np.inf, -np.inf, complex(0, np.inf), complex(np.inf, np.nan), np.nan],
    ids=["inf", "-inf", "inf-imag", "inf-nan", "nan"],
)
def test_make_polynomial_rejects_a_leading_coefficient_that_is_not_finite(lead):
    # dividing by an infinite one would leave z^n with no error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sr.InvalidMatrix, match="leading coefficient must be finite"):
            sr.make_polynomial([1.0, 2.0], leading_coefficient=lead)


def test_companion_layout_degree_one():
    p = sr.make_polynomial([3.0])
    c = sr.companion(p)
    assert c.shape == (1, 1)
    assert c[0, 0] == -3.0


def test_companion_layout_z_squared():
    p = sr.make_polynomial([0.0, 0.0])
    c = sr.companion(p)
    assert np.array_equal(c, np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_companion_spectrum_is_zero_set(rng):
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    p = sr.make_polynomial(coeffs)
    lam = np.sort_complex(np.linalg.eigvals(sr.companion(p)))
    full = np.concatenate(([1.0], coeffs[::-1]))
    roots = np.sort_complex(np.roots(full))
    assert np.allclose(lam, roots, atol=1e-8)


class TestClassicalBounds:
    def test_running_example_values(self):
        p = sr.make_polynomial(EXAMPLE)
        assert sr.bound_cauchy(p) == 4.0
        assert sr.bound_carmichael_mason(p) == pytest.approx(3.1638, abs=5e-4)
        assert sr.bound_fujii_kubo(p) == pytest.approx(2.3668, abs=5e-4)

    def test_pure_power(self):
        p = sr.make_polynomial([0.0, 0.0, 0.0])
        assert sr.bound_cauchy(p) == 1.0
        assert sr.bound_carmichael_mason(p) == 1.0

    def test_fujii_kubo_pure_square(self):
        # only the cosine term survives: cos(pi/3) = 1/2
        p = sr.make_polynomial([0.0, 0.0])
        assert sr.bound_fujii_kubo(p) == pytest.approx(0.5, abs=1e-12)


    def test_huge_coefficients_do_not_overflow(self):
        # |a_0|^2 = 9e320 overflows, but neither bound does
        p = sr.make_polynomial([3e160, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r_cm = sr.bound_carmichael_mason(p)
            r_fk = sr.bound_fujii_kubo(p)
            rep = sr.zero_bound_report(p)
        assert r_cm == pytest.approx(3e160, rel=1e-15)
        assert r_fk == pytest.approx(1.5e160, rel=1e-15)
        assert np.isfinite(rep.r_prk) and rep.r_prk >= rep.max_root_modulus

    def test_coefficients_near_the_float_limit(self):
        # the magnitudes sum past the float range, their halves do not; the
        # Perron weights floor to 1e-12 (2 rho - 1 overflows), and their
        # overflowed certificate loses to the all-ones weights
        p = sr.make_polynomial([1e308, 1e308])
        rep = sr.zero_bound_report(p)  # any warning fails the test
        assert rep.r_fk == pytest.approx(1.2071067811865475e308, rel=1e-15)
        assert rep.r_fk >= rep.max_root_modulus
        assert rep.r_prk == 1.5e308
        assert rep.d_star.tolist() == [1.0, 1.0]

    def test_certificate_entry_past_the_float_range_is_invalid(self):
        # M_11 = (|a_0| + 2 |a_1| + |a_2|) / 2 = 2e308 itself overflows
        p = sr.make_polynomial([1e308, 1e308, 1e308])
        with pytest.raises(sr.InvalidMatrix, match="certificate matrix overflows"):
            sr.certificate_matrix(p)
        with pytest.raises(sr.InvalidMatrix, match="certificate matrix overflows"):
            sr.zero_bound_report(p)
        assert np.isfinite(sr.bound_fujii_kubo(p))


class TestAlphas:
    def test_running_example_with_tuned_weights(self):
        p = sr.make_polynomial(EXAMPLE)
        a = sr.alphas(p, EXAMPLE_WEIGHTS)
        assert a == pytest.approx([1.805, 1.5, 2.08333, 2.03, 0.6], abs=5e-4)
        assert sr.bound_prk(p, EXAMPLE_WEIGHTS) == pytest.approx(2.0833, abs=5e-4)

    def test_all_ones_weights(self):
        p = sr.make_polynomial([0.0, 0.0, 0.0, 0.0])
        a = sr.alphas(p, np.ones(4))
        assert a == pytest.approx([0.5, 1.0, 1.0, 0.5], abs=1e-12)

    def test_degree_one_convention(self):
        p = sr.make_polynomial([4.0])
        assert sr.alphas(p, [2.0]) == pytest.approx([4.0], abs=1e-12)
        assert sr.bound_prk(p, [7.0]) == pytest.approx(4.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        p = sr.make_polynomial(rng.normal(size=4) + 1j * rng.normal(size=4))
        d = rng.uniform(0.5, 2.0, size=4)
        base = np.asarray(sr.alphas(p, d))
        scaled = np.asarray(sr.alphas(p, scale * d))
        assert np.allclose(base, scaled, rtol=1e-12, atol=1e-12)

    def test_weight_validation(self):
        p = sr.make_polynomial(EXAMPLE)
        with pytest.raises(sr.WeightDimensionMismatch):
            sr.alphas(p, [1.0, 1.0])
        with pytest.raises(sr.NonPositiveWeight):
            sr.alphas(p, [1.0, 1.0, 0.0, 1.0, 1.0])
        with pytest.raises(sr.NonPositiveWeight):
            sr.bound_prk(p, [1.0, 1.0, -2.0, 1.0, 1.0])

    @pytest.mark.parametrize(
        "d",
        [np.array([1 + 1j, 1.0, 1.0, 1.0, 1.0]), [1.0, 1.0, 2j, 1.0, 1.0]],
        ids=["complex-array", "list-with-complex"],
    )
    def test_complex_weights_rejected(self, d):
        # the imaginary part is neither dropped nor a raw TypeError
        p = sr.make_polynomial(EXAMPLE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (sr.alphas, sr.bound_prk, lambda p, d: sr.zero_bound_report(p, d=d)):
                with pytest.raises(sr.NonPositiveWeight, match="real"):
                    f(p, d)

    def test_complex_weights_with_zero_imaginary_part_accepted(self):
        p = sr.make_polynomial(EXAMPLE)
        d = np.asarray(EXAMPLE_WEIGHTS, dtype=np.complex128)
        assert np.array_equal(sr.alphas(p, d), sr.alphas(p, EXAMPLE_WEIGHTS))


class TestSoundness:
    def test_running_example_root_inside_all_bounds(self):
        p = sr.make_polynomial(EXAMPLE)
        r = sr.max_root_modulus(p)
        assert r == pytest.approx(1.4487, abs=5e-4)
        for b in (
            sr.bound_cauchy(p),
            sr.bound_carmichael_mason(p),
            sr.bound_fujii_kubo(p),
            sr.bound_prk(p, EXAMPLE_WEIGHTS),
        ):
            assert b >= r - 1e-8

    def test_random_sample(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 8))
            coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
            p = sr.make_polynomial(coeffs)
            r = sr.max_root_modulus(p)
            d = rng.uniform(0.2, 3.0, size=n)
            for b in (
                sr.bound_cauchy(p),
                sr.bound_carmichael_mason(p),
                sr.bound_prk(p, d),
            ):
                assert b >= r - 1e-8

    def test_weighted_radius_chain(self, rng):
        # the weighted numerical radius of the companion matrix sits between
        # the true root modulus and the weight-adapted estimate
        for k in range(8):
            n = int(rng.integers(2, 6))
            coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
            p = sr.make_polynomial(coeffs)
            d = rng.uniform(0.3, 2.5, size=n)
            ctx = sr.make_context(np.diag(d))
            op = sr.make_operator(ctx, sr.companion(p))
            w = sr.a_numerical_radius(op)
            assert sr.max_root_modulus(p) <= w + 1e-8
            assert w <= sr.bound_prk(p, d) + 1e-6


def reference_matrix(coeffs) -> np.ndarray:
    """The certificate matrix written out row by row from the alpha
    formulas, independently of the library: alpha = (M d) / d."""
    mags = np.abs(np.asarray(coeffs, dtype=np.complex128))
    n = mags.size
    m = np.zeros((n, n))
    m[0, 0] = 0.5 * (mags[n - 1] + mags.sum())
    for k in range(1, n):
        m[k - 1, k] = 0.5
        m[k, 0] = 0.5 * mags[n - 1 - k]
        m[k, k] = 0.5
    return m


def perron_root(coeffs) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(reference_matrix(coeffs)))))


REDUCIBLE = [
    [0.0, 1.0, 2.0, 3.0],  # a_0 = 0
    [0.0, 0.0, 1e-3, 0.0, 5.0, 0.0, 0.0],  # a_0 = 0, interior zeros
    [1.0, 0.0, 0.0, 2.0, 0.0, 1.0],  # interior zeros only
    [0.0, 0.0, 0.0, 0.9],  # only a_{n-1}: rho(M) = 0.9
    [0.0, 0.0],  # all zero
    [0.0] * 5,
    [0.0] * 24,
]
NEAR_ZERO_A0 = [1e-20] + [0.0] * 14 + [0.1]


class TestOptimizeWeights:
    def test_certificate_matrix_reproduces_alphas(self, rng):
        for n in (1, 2, 5, 13):
            coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
            p = sr.make_polynomial(coeffs)
            m = reference_matrix(coeffs)
            assert np.allclose(sr.certificate_matrix(p), m, rtol=1e-15, atol=0)
            d = rng.uniform(0.2, 3.0, size=n)
            assert np.allclose(sr.alphas(p, d), m @ d / d, rtol=1e-14, atol=0)

    def test_never_worse_than_all_ones(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            p = sr.make_polynomial(rng.normal(size=n) + 1j * rng.normal(size=n))
            d_star, val = sr.optimize_weights(p)
            assert val <= sr.bound_prk(p, np.ones(n)) + 1e-9
            assert val == pytest.approx(sr.bound_prk(p, d_star), abs=1e-9)

    def test_deterministic(self):
        # the Perron weights are computed, not searched for, so two runs
        # agree to the bit
        p = sr.make_polynomial(EXAMPLE)
        d1, v1 = sr.optimize_weights(p)
        d2, v2 = sr.optimize_weights(p)
        assert np.array_equal(d1, d2)
        assert v1 == v2
        assert v1 == pytest.approx(perron_root(EXAMPLE), rel=1e-12)

    def test_running_example_beats_hand_weights(self):
        p = sr.make_polynomial(EXAMPLE)
        _, val = sr.optimize_weights(p)
        assert val <= 2.0834
        assert val >= sr.max_root_modulus(p) - 1e-8

    def test_running_example_value(self):
        p = sr.make_polynomial(EXAMPLE)
        d_star, val = sr.optimize_weights(p)
        assert val == pytest.approx(1.78393, abs=1e-5)
        assert d_star[0] == 1.0
        # every row of the certificate is active at the Perron vector
        assert sr.alphas(p, d_star) == pytest.approx(np.full(5, val), rel=1e-12)

    def test_degree_one_shortcut(self):
        # no special case left: M = [[|a_0|]], so the single alpha ignores d
        p = sr.make_polynomial([3.0 + 4.0j])
        assert np.array_equal(sr.certificate_matrix(p), [[5.0]])
        d, val = sr.optimize_weights(p)
        assert np.array_equal(d, np.ones(1))
        assert val == pytest.approx(5.0, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        terms=st.lists(
            st.tuples(
                st.floats(min_value=-2.0, max_value=2.0),
                st.floats(min_value=0.0, max_value=2 * np.pi),
            ),
            min_size=2,
            max_size=24,
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_value_is_perron_root(self, terms, seed):
        # magnitudes span 4 decades, phases are arbitrary
        coeffs = [10.0**e * np.exp(1j * t) for e, t in terms]
        p = sr.make_polynomial(coeffs)
        d_star, val = sr.optimize_weights(p)
        assert np.all(np.isfinite(d_star)) and np.all(d_star > 0)
        assert val == sr.bound_prk(p, d_star)
        assert val == pytest.approx(perron_root(coeffs), rel=1e-12)
        d = np.random.default_rng(seed).uniform(0.05, 20.0, size=p.degree)
        assert val <= sr.bound_prk(p, d) + 1e-12 * max(1.0, val)
        assert val >= sr.max_root_modulus(p) - 1e-8

    @pytest.mark.parametrize("coeffs", REDUCIBLE)
    def test_reducible_cases(self, coeffs):
        p = sr.make_polynomial(coeffs)
        d_star, val = sr.optimize_weights(p)
        assert np.all(np.isfinite(d_star)) and np.all(d_star > 0)
        assert val == pytest.approx(perron_root(coeffs), rel=1e-9)
        assert val >= sr.max_root_modulus(p) - 1e-8

    def test_near_zero_constant_term(self):
        # a_0 = 1e-20 is invisible to a dense eigensolve of M, which returns
        # rho = 0.5; the true Perron root (50-digit arithmetic) is larger,
        # and the Perron weights level every alpha at it
        p = sr.make_polynomial(NEAR_ZERO_A0)
        d_star, val = sr.optimize_weights(p)
        assert np.all(np.isfinite(d_star)) and np.all(d_star > 0)
        assert val == pytest.approx(0.523466414621636, rel=1e-12)
        assert sr.alphas(p, d_star) == pytest.approx(np.full(16, val), rel=1e-12)

    def test_small_cubics_usually_beat_classical(self):
        wins = 0
        for k in range(100):
            gen = np.random.default_rng(1000 + k)
            coeffs = gen.uniform(-0.5, 0.5, size=3) + 1j * gen.uniform(
                -0.5, 0.5, size=3
            )
            p = sr.make_polynomial(coeffs)
            _, val = sr.optimize_weights(p)
            classical = min(sr.bound_cauchy(p), sr.bound_carmichael_mason(p))
            if val <= classical + 1e-6:
                wins += 1
        assert wins >= 90


ROOT = Path(__file__).resolve().parents[1]

# rho(M) of this quadratic in 50-digit arithmetic; 2 rho - 1 is about 2e-3,
# so the floats of rho are coarse against those of y = 1 / (2 rho - 1)
NEAR_HALF = [5.8841e-4 + 1.85886e-3j, 1.8438e-4 - 2.05411e-3j]
NEAR_HALF_RHO = 0.50097891278763695


def bisection_weights(p):
    """The weight search that Newton's method replaced, kept as the
    reference: bisection of [max diag M, max row sum M] until row 1 of
    M d, with d from ``_chain_weights``, meets rho."""
    m = sr.certificate_matrix(p)
    tail = np.abs(p.coefficients[-2::-1]).tolist()
    lo, hi = float(np.max(np.diag(m))), float(np.max(m.sum(axis=1)))
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if m[0] @ polyzero._chain_weights(tail, mid) <= mid:
            hi = mid
        else:
            lo = mid
    d_star = polyzero._chain_weights(tail, hi)
    val = sr.bound_prk(p, d_star)
    ones = np.ones(p.degree)
    base = sr.bound_prk(p, ones)
    return (d_star, val) if val < base else (ones, base)


def benchmark_polynomials(seeds):
    """The roots-deg8-24 problems of ``perfbench/problems.py``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_problems", ROOT / "perfbench" / "problems.py"
    )
    problems = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(problems)
    return [q["coeffs"] for seed in seeds for q in problems.roots_problems(seed)]


def criterion_8_polynomials():
    """The 500 polynomials of acceptance criterion 8."""
    rng = np.random.default_rng(808)
    out = []
    for _ in range(500):
        n = int(rng.integers(1, 13))
        out.append(rng.uniform(-7, 7, size=n) + 1j * rng.uniform(-7, 7, size=n))
    return out


def random_polynomials(count, seed):
    """Degree 1-29, magnitudes over 0-8 decades, a fifth of them zero."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 30))
        decades = rng.uniform(0.0, 8.0)
        mags = 10.0 ** (rng.uniform(0.0, decades, n) - 0.5 * decades)
        coeffs = mags * np.exp(2j * np.pi * rng.uniform(size=n))
        coeffs[rng.uniform(size=n) < 0.2] = 0.0
        out.append(coeffs)
    return out


CORPORA = {
    "benchmark": lambda: benchmark_polynomials((7, 401, 402, 403)),
    "criterion-8": criterion_8_polynomials,
    "reducible-and-near-zero": lambda: REDUCIBLE + [NEAR_ZERO_A0],
    "random": lambda: random_polynomials(3000, 16),
}


@pytest.fixture
def row_one_calls(monkeypatch):
    """Counts the evaluations of the row-1 equation in ``calls[0]``."""
    calls = [0]
    row_one = polyzero._row_one

    def counted(*args):
        calls[0] += 1
        return row_one(*args)

    monkeypatch.setattr(polyzero, "_row_one", counted)
    return calls


class TestPerronSolver:
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_matches_bisection(self, corpus):
        worst = 0.0
        for coeffs in CORPORA[corpus]():
            p = sr.make_polynomial(coeffs)
            d_star, val = sr.optimize_weights(p)
            assert val == sr.bound_prk(p, d_star)
            ref = bisection_weights(p)[1]
            worst = max(worst, abs(val - ref) / ref if ref else abs(val))
        assert worst <= 1e-13

    def test_matches_bisection_near_one_half(self):
        # small coefficients put rho(M) within 1e-2..1e-5 of 1/2, where one
        # float of rho moves alpha_1 by up to 1e4 floats: the solver must
        # land on the same side of rho(M) as the bisection
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            mags = 10.0 ** rng.uniform(-5.0, -2.0, n)
            p = sr.make_polynomial(mags * np.exp(2j * np.pi * rng.uniform(size=n)))
            ref = bisection_weights(p)[1]
            assert sr.optimize_weights(p)[1] == pytest.approx(ref, rel=1e-15, abs=0)

    def test_root_near_one_half(self):
        p = sr.make_polynomial(NEAR_HALF)
        d_star, val = sr.optimize_weights(p)
        assert val == pytest.approx(NEAR_HALF_RHO, rel=1e-15, abs=0)
        # row 1 moves some 500 times faster than rho here, so the float of
        # rho just above rho(M) leaves alpha_1 a few units below it
        assert sr.alphas(p, d_star) == pytest.approx([val, val], rel=1e-14, abs=0)

    def test_evaluations_on_the_benchmark(self, row_one_calls):
        counts = []
        for coeffs in benchmark_polynomials((7, 401, 402, 403)):
            row_one_calls[0] = 0
            sr.optimize_weights(sr.make_polynomial(coeffs))
            counts.append(row_one_calls[0])
        # the bisection took 38-52 evaluations, 45 in the median
        assert np.median(counts) <= 8
        assert max(counts) <= 52

    @pytest.mark.parametrize("degree", [3, 8, 20, 29])
    def test_far_start_is_bisected(self, degree, row_one_calls):
        # M_11 = 1/2 + 1e-12 starts Newton at y = 5e11, far above the root,
        # from where plain Newton steps shrink y by only a factor 1 - 1/n
        coeffs = np.full(degree, 1.0 / (degree - 1))
        coeffs[-1] = 0.0
        coeffs *= 1.0 + 2e-12
        p = sr.make_polynomial(coeffs)
        val = sr.optimize_weights(p)[1]
        assert row_one_calls[0] <= 52
        assert val == pytest.approx(bisection_weights(p)[1], rel=1e-13, abs=0)


class TestReport:
    def test_fields_consistent(self, rng):
        p = sr.make_polynomial(EXAMPLE)
        rep = sr.zero_bound_report(p)
        assert rep.r_c == 4.0
        assert rep.r_prk == pytest.approx(max(rep.alphas), abs=1e-12)
        assert rep.r_prk == pytest.approx(sr.bound_prk(p, rep.d_star), abs=1e-12)
        assert rep.max_root_modulus <= min(rep.r_c, rep.r_cm, rep.r_prk) + 1e-8

    def test_explicit_weights_skip_optimizer(self):
        p = sr.make_polynomial(EXAMPLE)
        rep = sr.zero_bound_report(p, d=EXAMPLE_WEIGHTS)
        assert np.allclose(rep.d_star, EXAMPLE_WEIGHTS)
        assert rep.r_prk == pytest.approx(2.0833, abs=5e-4)

    @pytest.mark.parametrize("d", [None, EXAMPLE_WEIGHTS], ids=["perron", "given"])
    def test_no_dense_certificate_one_eigensolve_no_svd(self, monkeypatch, d):
        # the report reads M off its column, once: the dense builder may not run
        calls = {"column": 0, "eigvals": 0, "eig": 0, "svd": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def refused(p):
            raise AssertionError("dense certificate matrix built")

        monkeypatch.setattr(polyzero, "certificate_matrix", refused)
        monkeypatch.setattr(polyzero, "_column", counted("column", polyzero._column))
        for name in ("eigvals", "eig", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        rep = sr.zero_bound_report(sr.make_polynomial(EXAMPLE), d=d)
        assert calls == {"column": 1, "eigvals": 1, "eig": 0, "svd": 0}
        assert rep.r_prk == pytest.approx(1.78393 if d is None else 2.0833, abs=5e-4)

    def test_column_matches_the_dense_certificate(self):
        # (M d) / d, the largest diagonal entry and the largest row sum, read
        # off the column, against the dense M: degrees 1-40 with a_0 = 0,
        # zero tails and magnitudes from 1e-150 to 1e150
        draw = np.random.default_rng(41)
        eps = np.finfo(np.float64).eps
        for trial in range(600):
            deg = int(draw.integers(1, 41))
            mags = 10.0 ** draw.uniform(-150.0, 150.0, deg)
            coeffs = mags * np.exp(2j * np.pi * draw.uniform(size=deg))
            if trial % 3 == 0:
                coeffs[0] = 0.0
            elif trial % 3 == 1:
                coeffs[:-1] = 0.0  # no tail: M is triangular
            p = sr.make_polynomial(coeffs)
            m = sr.certificate_matrix(p)
            col, m11 = polyzero._column(np.abs(p.coefficients))
            for d in (
                10.0 ** draw.uniform(-3.0, 3.0, deg),
                sr.optimize_weights(p)[0],
                np.ones(deg),
            ):
                ratios = np.asarray(polyzero._ratios(col, m11, d.tolist()))
                np.testing.assert_allclose(ratios, m @ d / d, rtol=4 * eps, atol=0)
            lo, hi = polyzero._bracket(col, m11)
            assert lo == pytest.approx(float(np.max(np.diag(m))), rel=2 * eps, abs=0)
            assert hi == pytest.approx(float(np.max(m.sum(axis=1))), rel=2 * eps, abs=0)

    def test_weights_read_the_reports_own_magnitudes(self):
        # the Perron weights solve rows 2..n of the report's own M: d_star is
        # _chain_weights, at the root bracketed off the column, on the tail of
        # the one magnitude array the column is read from, to the bit
        draw = np.random.default_rng(29)
        for _ in range(200):
            deg = int(draw.integers(2, 25))
            scale = 10.0 ** draw.uniform(-2.0, 2.0, deg)
            p = sr.make_polynomial(scale * (draw.normal(size=deg) + 1j * draw.normal(size=deg)))
            rep = sr.zero_bound_report(p)
            mags = np.abs(p.coefficients)
            tail = mags[-2::-1].tolist()
            col, m11 = polyzero._column(mags)
            rho = polyzero._perron_root(m11, tail, *polyzero._bracket(col, m11))
            assert rep.d_star.tolist() == polyzero._chain_weights(tail, rho)

    @pytest.mark.parametrize("corpus", ["benchmark-seed-7", "criterion-8"])
    def test_fields_equal_the_public_functions(self, corpus):
        # the report shares its magnitudes, M and eigensolve across fields,
        # and every field keeps the bits of the function that defines it
        polys = (
            benchmark_polynomials((7,)) if corpus == "benchmark-seed-7"
            else criterion_8_polynomials()
        )
        for coeffs in polys:
            p = sr.make_polynomial(coeffs)
            d_star, val = sr.optimize_weights(p)
            perron = sr.zero_bound_report(p)
            assert perron.r_prk == val
            given = np.linspace(0.5, 2.0, p.degree)
            for rep, d in ((perron, d_star), (sr.zero_bound_report(p, given), given)):
                assert rep.r_c == sr.bound_cauchy(p)
                assert rep.r_cm == sr.bound_carmichael_mason(p)
                assert rep.r_fk == sr.bound_fujii_kubo(p)
                assert rep.d_star.tobytes() == d.tobytes()
                assert rep.alphas.tobytes() == sr.alphas(p, d).tobytes()
                assert rep.r_prk == float(np.max(rep.alphas))
                assert rep.max_root_modulus == sr.max_root_modulus(p)


def patch_eigvals(monkeypatch, change):
    """Make ``np.linalg.eigvals`` return change(lam) for the true eigenvalues."""
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda mat: change(eigvals(mat)))


def with_root(lam, index, value):
    out = lam.copy()
    out[index] = value
    return out


class TestCompanionNorm:
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_max_root_modulus_rejects_bad_pair_at_any_scale(self, monkeypatch, scale):
        # the largest eigenvalue moved by 1e-6 of its modulus fails the gate
        # on its backward error, and one moved by 1e-12 passes, at any scale
        p = sr.make_polynomial(scale * np.array([2.0, 0.7j, 1.5, -1.0]))
        moved = []

        def move_top(lam):
            top = np.argmax(np.abs(lam))
            return with_root(lam, top, lam[top] * (1.0 + moved[0]))

        patch_eigvals(monkeypatch, move_top)
        moved.append(1e-6)
        with pytest.raises(sr.NumericalFailure, match="backward error"):
            sr.max_root_modulus(p)
        with pytest.raises(sr.NumericalFailure, match="backward error"):
            sr.zero_bound_report(p)
        moved[0] = 1e-12
        assert math.isfinite(sr.max_root_modulus(p))


# p = z^5 + 10^k (0.3, -1.2 + 0.5i, 2, 0.7i, 1.5): well posed at every k,
# and its largest zero modulus from a 60-digit mpmath solve of these
# float coefficients, rounded to the nearest float
FAMILY_BASE = np.array([0.3, -1.2 + 0.5j, 2.0, 0.7j, 1.5])
FAMILY_MODULI = {
    20: "0x1.043561a882930p+67",
    50: "0x1.9a896283d96e7p+166",
    100: "0x1.b6e83b85f253cp+332",
    150: "0x1.d53cfc578e206p+498",
    250: "0x1.0c2aac09afd83p+831",
    -150: "0x1.fe2529cbf7a48p-101",
}


class TestRootGate:
    @pytest.mark.parametrize("spoiled", [0.9, 2.0])
    def test_skipped_roots_cannot_exceed_the_reported_one(self, monkeypatch, spoiled):
        # the gate checks the largest root only: the smallest one spoiled to
        # 0.9 |z*| changes no bit, and one pushed to 2 |z*| is reported and
        # fails the gate
        p = sr.make_polynomial(EXAMPLE)
        before = sr.zero_bound_report(p).max_root_modulus
        lam = np.linalg.eigvals(sr.companion(p))
        small = int(np.argmin(np.abs(lam)))
        value = spoiled * before * lam[small] / abs(lam[small])
        patch_eigvals(monkeypatch, lambda lam: with_root(lam, small, value))
        if spoiled < 1.0:
            assert sr.max_root_modulus(p).hex() == before.hex()
            assert sr.zero_bound_report(p).max_root_modulus.hex() == before.hex()
            return
        with pytest.raises(sr.NumericalFailure, match="backward error"):
            sr.max_root_modulus(p)
        with pytest.raises(sr.NumericalFailure, match="backward error"):
            sr.zero_bound_report(p)

    @pytest.mark.parametrize(
        "coeffs, change",
        [
            # 1e308 (0.5, 0.5, 0.5): the top root, -5e307, moved by 1e-6 of
            # its modulus
            ([5e307] * 3, lambda lam: np.where(np.abs(lam) > 1e300, lam * (1.0 + 1e-6), lam)),
            # a false top root on the unit circle, where sum |a_i| |z|^i and
            # p(z) both overflow unless they are scaled down
            ([1e308] * 3, lambda lam: np.array([1.0, 0.5, -0.5], dtype=complex)),
        ],
        ids=["moved", "false"],
    )
    def test_gate_holds_at_the_float_limit(self, monkeypatch, coeffs, change):
        p = sr.make_polynomial(coeffs)
        assert math.isfinite(sr.max_root_modulus(p))
        patch_eigvals(monkeypatch, change)
        with pytest.raises(sr.NumericalFailure, match="backward error"):
            sr.max_root_modulus(p)

    @pytest.mark.parametrize(
        "coeffs, top, factor",
        [([0.0, 1e-300], 1e-300, 2.0), ([0.0, 0.0, 1e-120], 1e-120, 1.5)],
        ids=["1e-300", "1e-120"],
    )
    def test_gate_holds_where_every_term_underflows(
        self, monkeypatch, coeffs, top, factor
    ):
        # z^2 + 1e-300 z and z^3 + 1e-120 z^2: in units of the coefficients,
        # every term at the top root underflows, so 0 <= 0 would pass any
        # root; in units at |z*| the gate still rejects a moved one
        p = sr.make_polynomial(coeffs)
        assert sr.max_root_modulus(p) == top
        patch_eigvals(monkeypatch, lambda lam: np.where(np.abs(lam) > 0, lam * factor, lam))
        with pytest.raises(sr.NumericalFailure, match="backward error"):
            sr.max_root_modulus(p)

    @pytest.mark.parametrize("k", sorted(FAMILY_MODULI))
    def test_large_and_small_coefficients(self, k, tmp_path, capsys):
        # the gate on every eigenpair rejected k = 20 to 150; the zeros
        # command now reports the same modulus as the library
        coeffs = 10.0**k * FAMILY_BASE
        got = sr.max_root_modulus(sr.make_polynomial(coeffs))
        ref = float.fromhex(FAMILY_MODULI[k])
        # k = -150 has five roots of one modulus, which LAPACK returns up to
        # 18 units in the last place apart; its largest lies 3 above
        assert abs(got - ref) <= (2 if k > 0 else 5 * 5) * math.ulp(ref)
        job = tmp_path / "poly.json"
        job.write_text(json.dumps({"coeffs": [[c.real, c.imag] for c in coeffs.tolist()]}))
        assert main(["--command", "zeros", "--input", str(job), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["max_root_modulus"] == got
