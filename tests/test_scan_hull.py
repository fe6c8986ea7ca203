import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semirad.scan import _refine_best, golden_section_min


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-0.9, max_value=0.9))
def test_golden_section_min_quadratic(center):
    x, val = golden_section_min(lambda t: (t - center) ** 2, -1.0, 1.0)
    assert abs(x - center) <= 1e-8
    assert val <= 1e-15


def test_golden_section_max():
    # maximizing is minimizing -f, as _refine_best does
    x, val = golden_section_min(lambda t: -np.cos(t), -1.5, 1.5)
    # position resolves only to ~sqrt(eps) on a flat top; the value is exact
    assert abs(x) <= 1e-7
    assert val == pytest.approx(-1.0)


def test_golden_section_ends_where_float_spacing_exceeds_tol():
    # near 1e10 adjacent floats lie ~2e-6 apart, so the bracket never gets
    # narrower than TOL; the step cap ends the search
    evals = []

    def f(t):
        evals.append(t)
        return (t - 1e10) ** 2

    x, _ = golden_section_min(f, 1e10 - 1.0, 1e10 + 1.0)
    assert len(evals) == 202  # two to start, one per step
    assert abs(x - 1e10) <= 1e-5


def test_golden_section_handles_reversed_and_tiny_brackets():
    x, _ = golden_section_min(lambda t: t * t, 1.0, -1.0)
    assert abs(x) <= 1e-8
    x, val = golden_section_min(lambda t: t, 0.5, 0.5 + 1e-14)
    assert val == pytest.approx(0.5)


def test_refine_best_beats_grid_between_points():
    # the true maximum of cos(x - 0.34) sits between grid points
    xs = np.linspace(0.0, 1.0, 11)
    values = np.cos(xs - 0.34)
    x, val = _refine_best(lambda t: np.cos(t - 0.34), xs, values, 0.1, True)
    assert abs(x - 0.34) <= 1e-7
    assert val == pytest.approx(1.0, abs=1e-15)
    assert val > values.max()
    x, val = _refine_best(lambda t: (t - 0.77) ** 2, xs, (xs - 0.77) ** 2, 0.1, False)
    assert abs(x - 0.77) <= 1e-8


def test_refine_best_keeps_a_strictly_better_grid_point():
    # a spike on the grid that golden section over its cells cannot see
    xs = np.arange(5.0)
    values = np.array([0.0, 1.0, 5.0, 1.0, 0.0])
    x, val = _refine_best(lambda t: 1.0, xs, values, 1.0, True)
    assert (x, val) == (2.0, 5.0)
    x, val = _refine_best(lambda t: 1.0, xs, -values, 1.0, False)
    assert (x, val) == (2.0, -5.0)
