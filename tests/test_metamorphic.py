"""Metamorphic properties: rotation of T, unitary similarity of the pair
(T, A), rescaling the weight A, and swapping the blocks of a 2x2
operator matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semirad as sr
from conftest import random_operator, random_strict_context, separated, singular_pair

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=2, max_value=6)
kernels = st.integers(min_value=0, max_value=1)


def weight_and_operator(rng, n, kernel):
    """(A, T) with a strictly positive A, or a rank n-1 A and a compatible T."""
    if kernel:
        ctx, t = singular_pair(rng, n, n - kernel)
        return ctx.matrix, t
    ctx = random_strict_context(rng, n)
    return ctx.matrix, random_operator(rng, ctx).matrix


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=sizes, kernel=kernels, alpha=st.floats(0.0, 2.0 * np.pi))
def test_rotating_t_keeps_radius_crawford_and_hphi_bound(seed, n, kernel, alpha):
    rng = np.random.default_rng(seed)
    a, t = weight_and_operator(rng, n, kernel)
    ctx = sr.make_context(a)
    op = sr.make_operator(ctx, t)
    turned = sr.make_operator(ctx, np.exp(1j * alpha) * t)
    w = sr.a_numerical_radius(op)
    assert sr.a_numerical_radius(turned) == pytest.approx(w, rel=1e-9)
    # a Crawford number at a kink of h is off by the angle tolerance times
    # the slope, so it is compared on the scale of the radius
    assert sr.a_crawford(turned) == pytest.approx(sr.a_crawford(op), abs=1e-9 * w)
    assert sr.upper_bound_hphi(turned)[0] == pytest.approx(
        sr.upper_bound_hphi(op)[0], rel=1e-9
    )


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=sizes, kernel=kernels)
def test_unitary_similarity_keeps_bound_report(seed, n, kernel):
    rng = np.random.default_rng(seed)
    a, t = weight_and_operator(rng, n, kernel)
    u = random_unitary(rng, n)
    rep = sr.bound_report(sr.make_operator(sr.make_context(a), t))
    moved = sr.bound_report(
        sr.make_operator(
            sr.make_context(u @ a @ u.conj().T), u @ t @ u.conj().T
        )
    )
    scale = rep.sandwich_upper  # ||C||, the scale of every field
    for field in (
        "w_exact",
        "lower_21",
        "lower_22",
        "upper_hphi",
        "sandwich_lower",
        "sandwich_upper",
    ):
        assert getattr(moved, field) == pytest.approx(
            getattr(rep, field), rel=1e-9, abs=1e-9 * scale
        ), field


def weighted_quantities(a, t):
    """Radius, Crawford number, BoundReport fields and the range picture
    (angles, inner and outer polygons) of T under A."""
    op = sr.make_operator(sr.make_context(a), t)
    est = sr.estimate_range(op)
    out = {"radius": sr.a_numerical_radius(op), "crawford": sr.a_crawford(op)}
    out.update(vars(sr.bound_report(op)))
    out["theta"] = sr.cells.operator_cells(op).outline()[0]
    out["boundary"], out["outer"] = est.boundary, est.outer
    return op, out


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=sizes, kernel=kernels, j=st.integers(min_value=-40, max_value=40))
def test_rescaling_the_weight_by_a_power_of_two_changes_no_bit(seed, n, kernel, j):
    # A -> 2^j A scales L by 2^j exactly and leaves Q alone; the roots are
    # taken of L over the power of two at its largest entry, which is the
    # same to the bit, so C and everything read off it keep every bit
    rng = np.random.default_rng(seed)
    a, t = weight_and_operator(rng, n, kernel)
    _, base = weighted_quantities(a, t)
    _, scaled = weighted_quantities(2.0**j * a, t)
    for name, value in base.items():
        np.testing.assert_array_equal(scaled[name], value, err_msg=name)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=sizes, kernel=kernels, k=st.integers(min_value=-20, max_value=20))
def test_rescaling_t_by_a_power_of_two_changes_no_bit(seed, n, kernel, k):
    # T -> 2^k T scales C by 2^k exactly, so every length scales by 2^k
    # to the bit and every angle stays where it was
    rng = np.random.default_rng(seed)
    a, t = weight_and_operator(rng, n, kernel)
    _, base = weighted_quantities(a, t)
    _, scaled = weighted_quantities(a, 2.0**k * t)
    for name, value in base.items():
        if name in ("phi_star", "theta"):
            np.testing.assert_array_equal(scaled[name], value, err_msg=name)
        else:
            np.testing.assert_array_equal(scaled[name], 2.0**k * value, err_msg=name)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=sizes, kernel=kernels, c=st.floats(1e-6, 1e6))
def test_rescaling_the_weight_keeps_every_weighted_quantity(seed, n, kernel, c):
    rng = np.random.default_rng(seed)
    a, t = weight_and_operator(rng, n, kernel)
    op, base = weighted_quantities(a, t)
    _, scaled = weighted_quantities(c * a, t)
    w = base["radius"]
    # phi_star is an argmin, which a flat objective leaves undetermined
    for name in base.keys() - {"phi_star", "theta", "boundary", "outer"}:
        assert scaled[name] == pytest.approx(base[name], rel=1e-12, abs=1e-12 * w), name
    # the two pictures may bisect different cells; at the angles both
    # evaluated, a support point is well posed where its eigenvalue is
    # isolated
    both, i, j = np.intersect1d(base["theta"], scaled["theta"], return_indices=True)
    assert both[0] == 0.0 and len(both) >= 32
    ok = separated(op.compressed, both, w)
    moved = np.abs(scaled["boundary"][j] - base["boundary"][i])[ok]
    assert np.all(moved <= 1e-12 * w)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=4), kernel=kernels)
def test_swapping_blocks_exchanges_bounds_27_and_28(seed, n, kernel):
    rng = np.random.default_rng(seed)
    if kernel and n > 1:
        ctx, _ = singular_pair(rng, n, n - 1)
        # blocks that vanish on N(A) and map into range(A) are adjointable
        q0 = ctx.kernel_basis
        proj = np.eye(n) - q0 @ q0.conj().T
        blocks = [
            proj @ (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) @ proj
            for _ in range(4)
        ]
    else:
        ctx = random_strict_context(rng, n)
        blocks = [random_operator(rng, ctx).matrix for _ in range(4)]
    t11, t12, t21, t22 = (sr.make_operator(ctx, b) for b in blocks)
    rep = sr.matrix_bound_report(t11, t12, t21, t22)
    swapped = sr.matrix_bound_report(t22, t21, t12, t11)
    assert swapped.w_b_exact == pytest.approx(rep.w_b_exact, rel=1e-9)
    assert swapped.th25 == pytest.approx(rep.th25, rel=1e-12)
    # bound 28 is bound 27 of the swapped blocks, on one code path
    assert swapped.th27 == rep.th28
    assert swapped.th28 == rep.th27
    assert swapped.t_star_27 == rep.t_star_28
    assert swapped.t_star_28 == rep.t_star_27
