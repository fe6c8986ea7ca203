from functools import reduce
from itertools import combinations
from math import copysign, isfinite, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semirad import scan
from semirad.scan import Parts, _model_step, branches, refine

# The golden_section ids are kept for the tests of the second-order
# refinement that replaced golden-section search; its bisection step is the
# fallback those tests now reach.


def analytic(f, df, d2f, evals=None):
    """evaluate(t) for refine, which maximizes f, from f and its two
    derivatives: one part with one branch, the model of -f."""

    def evaluate(t):
        if evals is not None:
            evals.append(t)
        return f(t), -np.array([[[f(t)]], [[df(t)]], [[d2f(t)]]])

    return evaluate


def from_best(xs, values):
    """The best of the grid points *xs*, where refine starts."""
    return float(xs[int(np.argmax(values))])


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-0.9, max_value=0.9))
def test_golden_section_min_quadratic(center):
    # a quadratic is its own model: one step from the grid lands on it,
    # unless the grid point is already within rounding of the minimum
    evals = []
    f = analytic(
        lambda t: -((t - center) ** 2),
        lambda t: -2 * (t - center),
        lambda t: -2.0,
        evals,
    )
    xs = np.array([-1.0, 0.0, 1.0])
    t = from_best(xs, -((xs - center) ** 2))
    x, val = refine(f, t, t - 1.0, t + 1.0)
    assert abs(x - center) <= 1e-8
    assert val >= -1e-15
    assert len(evals) <= 2


def test_golden_section_max():
    evals = []
    f = analytic(np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t), evals)
    xs = np.array([-1.5, 0.3, 2.1])
    t = from_best(xs, np.cos(xs))
    x, val = refine(f, t, t - 1.8, t + 1.8)
    assert abs(x) <= 1e-8
    assert val == 1.0
    assert len(evals) <= 5


def test_golden_section_ends_where_float_spacing_exceeds_tol():
    # near 1e10 adjacent floats lie ~2e-6 apart, so the bracket never gets
    # narrower than TOL; a model with no curvature always points at an end
    # of the bracket, so every step bisects, until the float spacing ends
    # the search
    evals = []
    f = analytic(
        lambda t: -((t - 1e10) ** 2), lambda t: -2 * (t - 1e10), lambda t: 0.0, evals
    )
    t = 1e10 + 0.3
    x, _ = refine(f, t, t - 1.0, t + 1.0)
    assert np.spacing(1e10) > scan.TOL
    assert len(evals) <= 25
    assert abs(x - 1e10) <= 1e-5


def test_golden_section_handles_reversed_and_tiny_brackets():
    f = analytic(lambda t: -t * t, lambda t: -2 * t, lambda t: -2.0)
    # a start at either end of the bracket refines like one inside it
    for t in (0.25, -0.5, 1.0):
        x, _ = refine(f, t, -0.5, 1.0)
        assert abs(x) <= 1e-12
    # a bracket narrower than TOL is evaluated once, at the start
    evals = []
    f = analytic(lambda t: -t, lambda t: -1.0, lambda t: 0.0, evals)
    x, val = refine(f, 0.5, 0.5 - 1e-14, 0.5 + 1e-14)
    assert evals == [0.5]
    assert (x, val) == (0.5, -0.5)


def test_refine_beats_grid_between_points():
    # the true maximum of cos(x - 0.34) sits between grid points
    xs = np.linspace(0.0, 1.0, 11)
    values = np.cos(xs - 0.34)
    f = analytic(
        lambda t: np.cos(t - 0.34),
        lambda t: -np.sin(t - 0.34),
        lambda t: -np.cos(t - 0.34),
    )
    t = from_best(xs, values)
    x, val = refine(f, t, t - 0.1, t + 0.1)
    assert abs(x - 0.34) <= 1e-7
    assert val == pytest.approx(1.0, abs=1e-15)
    assert val > values.max()
    g = analytic(
        lambda t: -((t - 0.77) ** 2), lambda t: -2 * (t - 0.77), lambda t: -2.0
    )
    t = from_best(xs, -((xs - 0.77) ** 2))
    x, val = refine(g, t, t - 0.1, t + 0.1)
    assert abs(x - 0.77) <= 1e-8


def test_refine_keeps_the_best_point_inside_the_bracket():
    # two peaks, the higher at 1 and a narrow lower one at 2.5: the first
    # model step from 0.5 overshoots to 2.14, below the start value but on
    # the rising flank of the lower peak; that point must end the bracket on
    # its side of the start, not move the bracket's far end past the start
    def bump(t, at, width, height):
        # a Gaussian, its slope and its curvature
        u = (t - at) / width
        e = height * np.exp(-0.5 * u * u)
        return np.array((e, -u / width * e, (u * u - 1.0) / width**2 * e))

    evals = []

    def evaluate(t):
        evals.append(t)
        f, df, d2f = bump(t, 1.0, 0.6, 1.0) + bump(t, 2.5, 0.2, 0.6)
        return f, -np.array([[[f]], [[df]], [[d2f]]])

    x, val = refine(evaluate, 0.5, 0.0, 4.0)
    assert 2.0 < evals[1] < 2.3
    assert evaluate(evals[1])[0] < evaluate(0.5)[0]
    assert abs(x - 1.0) <= 1e-6
    assert val > 1.0


def test_refine_takes_no_step_its_model_promises_less_than_the_floor():
    # from 0 the quadratic model of -(t - 0.3)^2, exact, promises 0.09
    evals = []
    f = analytic(lambda t: -((t - 0.3) ** 2), lambda t: -2 * (t - 0.3), lambda t: -2.0, evals)
    assert refine(f, 0.0, -1.0, 1.0, 0.1) == (0.0, -0.09)
    assert evals == [0.0]
    x, _ = refine(f, 0.0, -1.0, 1.0, 0.08)
    assert len(evals) > 2 and x == pytest.approx(0.3, abs=1e-12)


def test_refine_bisects_a_model_step_that_rounds_off_the_bracket_end():
    # f has its max at m and is flat at the float spacing; a concave model
    # points every step at an end of the bracket.  From the point left of
    # m, the step to hi, the start, rounds to the float below it: taken,
    # that point, no better than the start, would end the bracket there
    m, start, lo = 0.10281181702978237, 0.10928745997963153, -0.41939609144667417

    def evaluate(t):
        f = -round(abs(t - m), 9)
        return f, np.array([[[-f]], [[np.sign(t - m)]], [[-1.0]]])

    x, _ = refine(evaluate, start, lo, start)
    assert abs(x - m) <= 1e-8


def test_model_step_finds_the_crossing_of_two_branches():
    # max(1 + d, 1 - 2 d) is least where the lines cross, at d = 0, a kink
    # that no stationary point sees; shifted, the crossing moves with it
    q = np.array([[[1.0, 1.0]], [[1.0, -2.0]], [[0.0, 0.0]]])
    assert _model_step(q, -1.0, 1.0) == (0.0, 0.0)
    q[0, 0, 1] = 1.3  # branch 2 is now the top one at d = 0
    d, gain = _model_step(q, -1.0, 1.0)
    assert d == pytest.approx(0.1)
    assert gain == pytest.approx(0.2)
    # the sum over parts of the max over branches
    two = np.array(
        [
            [[0.0, -1.0], [0.0, -5.0]],  # values: part 1, part 2
            [[1.0, 0.0], [-1.0, 0.0]],  # slopes
            [[2.0, 0.0], [4.0, 0.0]],  # curvatures
        ]
    )
    # (d + d^2) + (-d + 2 d^2) = 3 d^2 is least at 0
    d, gain = _model_step(two, -1.0, 1.0)
    assert d == pytest.approx(0.0, abs=1e-15)
    # (d + d^2) + (-4 d + 2 d^2) = 3 d^2 - 3 d is least at 1/2
    two[1, 1, 0] = -4.0
    d, gain = _model_step(two, -1.0, 1.0)
    assert d == pytest.approx(0.5)
    assert gain == pytest.approx(0.75)



def _roots(c0, c1, c2):
    """Real roots of c0 + c1 d + c2 d^2, in floats."""
    if c2 == 0.0:
        return [-c0 / c1] if c1 else []
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    r = -0.5 * (c1 + copysign(sqrt(disc), c1))
    return [r / c2, c0 / r] if r else [0.0]


def model_step_pairwise(q, lo, hi):
    """The reference for _model_step: the crossings of each pair of
    branches of each part, one pair at a time."""
    if q.shape[1:] == (1, 1):
        g, c = float(q[1, 0, 0]), float(q[2, 0, 0])
        cands = [lo, hi, -g / c] if c > 0 else [lo, hi]
        d = [min(max(x, lo), hi) for x in cands if isfinite(x)]
        model = [x * (g + 0.5 * c * x) for x in d]
        best = model.index(min(model))
        return d[best], -model[best]
    v, g, c = q
    gs, cs = reduce(np.add.outer, g).ravel(), reduce(np.add.outer, c).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        cands = [lo, hi, *(-gs[cs > 0] / cs[cs > 0])]
        for vp, gp, cp in zip(*q):
            for i, j in combinations(range(len(vp)), 2):
                dv, dg, dc = vp[i] - vp[j], gp[i] - gp[j], cp[i] - cp[j]
                cands += _roots(float(dv), float(dg), 0.5 * float(dc))
        d = np.clip([x for x in cands if np.isfinite(x)], lo, hi)
        rise = (v - v.max(axis=1, keepdims=True))[..., None] + d * (
            g[..., None] + 0.5 * c[..., None] * d
        )
        model = np.sum(np.max(rise, axis=1), axis=0)
    best = int(np.argmin(model))
    return float(d[best]), -float(model[best])


@st.composite
def branch_models(draw):
    parts, count = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    # few distinct values, so that ties, equal curvatures and double roots
    # come up often
    entry = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -0.5]),
        st.floats(-1e3, 1e3, allow_nan=False),
    )
    q = draw(st.lists(entry, min_size=3 * parts * count, max_size=3 * parts * count))
    lo, hi = draw(st.floats(1e-9, 10.0)), draw(st.floats(1e-9, 10.0))
    return np.reshape(q, (3, parts, count)), -lo, hi


@settings(max_examples=300, deadline=None)
@given(branch_models())
# equal curvatures: the crossing of two lines
@example((np.array([[[0.0, 1.0]], [[1.0, -1.0]], [[2.0, 2.0]]]), -1.0, 1.0))
# no crossing: a negative discriminant
@example((np.array([[[1.0, 0.0]], [[0.0, 0.0]], [[2.0, 0.0]]]), -1.0, 1.0))
# r = 0: branches that touch at d = 0
@example((np.array([[[0.0, 0.0]], [[1.0, 1.0]], [[2.0, 0.0]]]), -1.0, 1.0))
@example(
    (
        np.array(
            [
                [[0.0, -1.0, 0.5, 0.0], [1.0, 1.0, -2.0, 0.0]],
                [[1.0, 0.0, -1.0, 2.0], [-1.0, 0.5, 0.0, 0.0]],
                [[2.0, 0.0, 2.0, -1.0], [4.0, 4.0, 0.0, 1.0]],
            ]
        ),
        -0.7,
        1.3,
    )
)
def test_model_step_matches_the_pairwise_crossings(case):
    q, lo, hi = case
    d, gain = _model_step(q, lo, hi)
    ref = model_step_pairwise(q, lo, hi)
    assert np.array([d, gain]).tobytes() == np.array(ref).tobytes()


def test_model_step_of_one_quadratic_matches_the_general_path():
    # one branch of one part is taken in floats; the same branch twice
    # takes the general path, whose model is the same, to the bit
    rng = np.random.default_rng(12)
    for i in range(2000):
        q = rng.normal(size=(3, 1, 1)) * 10.0 ** rng.uniform(-20, 20, size=(3, 1, 1))
        if i % 3 == 0:
            q[2] = -abs(q[2]) if i % 2 else 0.0
        lo, hi = -(10.0 ** rng.uniform(-12, 1)), 10.0 ** rng.uniform(-12, 1)
        assert _model_step(q, lo, hi) == _model_step(np.repeat(q, 2, axis=2), lo, hi)

@pytest.mark.parametrize("parts", [1, 2])
def test_branch_slopes_and_curvatures_match_finite_differences(parts):
    # Hellmann-Feynman slope and second-order perturbation curvature of
    # each eigenvalue of P(t) = Re(exp(-i t) C) = cos t X + sin t Y, for
    # C = X + i Y; one angle gives one part, an array of angles a stack
    rng = np.random.default_rng(5)
    k = 5
    c = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))

    def part(t):
        t = np.asarray(t)[..., None, None]
        x, y = 0.5 * (c + c.conj().T), -0.5j * (c - c.conj().T)
        return np.cos(t) * x + np.sin(t) * y

    t = 0.4 if parts == 1 else 0.4 + np.array([0.0, 2.1])
    h = 1e-4
    q = branches(Parts(c, 8.0), t, list(range(k)))
    assert q.shape == (3, parts, k)
    here, ahead, behind = (
        np.linalg.eigvalsh(part(u)).reshape(parts, k) for u in (t, t + h, t - h)
    )
    s = 8.0  # the power of two at the scale 8
    np.testing.assert_allclose(q[0] * s, here, rtol=1e-13, atol=1e-13)
    slope = (ahead - behind) / (2 * h)
    curvature = (ahead - 2 * here + behind) / h**2
    np.testing.assert_allclose(q[1] * s, slope, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(q[2] * s, curvature, rtol=1e-4, atol=1e-4)


def test_branches_without_curvature_give_the_same_values_and_slopes():
    # the cells' rounds skip the curvature; value and slope come from one
    # expression in both modes, so they agree to the bit
    rng = np.random.default_rng(9)
    k = 6
    c = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    angles = np.linspace(0.0, np.pi, 40, endpoint=False)
    q = branches(Parts(c, 4.0), angles, [0, k - 1])
    lean = branches(Parts(c, 4.0), angles, [0, k - 1], curvature=False)
    assert q.shape == (3, 40, 2) and lean.shape == (2, 40, 2)
    assert np.array_equal(q[:2], lean)
