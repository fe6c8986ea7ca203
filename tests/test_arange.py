import numpy as np
import pytest

import semirad as sr
from semirad import arange
from conftest import random_operator, random_strict_context, singular_pair


def test_radius_diagonal_example():
    op = sr.make_operator(sr.identity_context(2), np.diag([1 + 1j, 2 + 1j]))
    assert sr.a_numerical_radius(op) == pytest.approx(np.sqrt(5), abs=1e-10)


def test_radius_nilpotent_is_half_norm():
    op = sr.make_operator(
        sr.identity_context(2), np.array([[0.0, 1.0], [0.0, 0.0]])
    )
    assert sr.a_numerical_radius(op) == pytest.approx(0.5, abs=1e-10)


def test_radius_against_monte_carlo(rng):
    for k in range(10):
        n = int(rng.integers(2, 7))
        ctx = random_strict_context(rng, n)
        op = random_operator(rng, ctx)
        w = sr.a_numerical_radius(op)
        mc = sr.monte_carlo_radius(op, samples=100_000, seed=k)
        assert mc <= w + 1e-8
        assert mc >= w - 5e-3 * (1 + w)


def test_radius_sandwich(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        ctx = random_strict_context(rng, n)
        op = random_operator(rng, ctx)
        w = sr.a_numerical_radius(op)
        nrm = sr.a_operator_seminorm(op)
        assert 0.5 * nrm - 1e-8 <= w <= nrm + 1e-8


def test_radius_scaling(rng):
    ctx = random_strict_context(rng, 4)
    op = random_operator(rng, ctx)
    w = sr.a_numerical_radius(op)
    for c in (2.0, -0.5, 1.1 - 0.7j, 1j):
        scaled = sr.scale_operator(op, c)
        assert sr.a_numerical_radius(scaled) == pytest.approx(abs(c) * w, abs=1e-8)


def test_radius_identity_weight_matches_direct_scan(rng):
    # with the identity weight the reduction is the identity map, so the
    # compressed matrix is T itself and the scan sees the classical range
    t = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    op = sr.make_operator(sr.identity_context(5), t)
    assert np.allclose(op.compressed, t)
    thetas = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    grid = max(
        np.linalg.eigvalsh(
            0.5 * (np.exp(-1j * th) * t + np.exp(1j * th) * t.conj().T)
        )[-1]
        for th in thetas
    )
    w = sr.a_numerical_radius(op)
    assert w >= grid - 1e-12
    assert w <= grid + 1e-4 * (1 + grid)


def test_unitary_conjugation_invariance(rng):
    for _ in range(5):
        n = 4
        ctx = random_strict_context(rng, n)
        op = random_operator(rng, ctx)
        v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        u = ctx.sqrt_pinv @ v @ ctx.sqrt
        uop = sr.make_operator(ctx, u)
        assert sr.is_a_unitary(uop)
        conj = sr.make_operator(ctx, uop.adjoint @ op.matrix @ u)
        assert sr.a_numerical_radius(conj) == pytest.approx(
            sr.a_numerical_radius(op), abs=1e-6
        )


def test_crawford_segment():
    op = sr.make_operator(sr.identity_context(2), np.diag([1.0, 2.0]))
    assert sr.a_crawford(op) == pytest.approx(1.0, abs=1e-10)


def test_crawford_point_and_disk():
    ctx = sr.identity_context(2)
    assert sr.a_crawford(sr.make_operator(ctx, np.eye(2))) == pytest.approx(1.0)
    nil = sr.make_operator(ctx, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert sr.a_crawford(nil) == 0.0


def test_crawford_rotated_segment():
    # range is the segment [1+1j, 2+1j]; closest point 1+1j
    op = sr.make_operator(sr.identity_context(2), np.diag([1 + 1j, 2 + 1j]))
    assert sr.a_crawford(op) == pytest.approx(np.sqrt(2), abs=1e-8)


def test_crawford_below_radius(rng):
    for _ in range(15):
        n = int(rng.integers(2, 6))
        ctx = random_strict_context(rng, n)
        op = random_operator(rng, ctx)
        assert sr.a_crawford(op) <= sr.a_numerical_radius(op) + 1e-10


def test_estimate_range_fields(rng):
    ctx = random_strict_context(rng, 4)
    op = random_operator(rng, ctx)
    est = sr.estimate_range(op, theta_grid=360)
    assert est.theta_grid == 360
    assert est.refined
    assert not est.degenerate
    assert est.radius >= est.crawford >= 0
    assert np.all(np.abs(est.boundary) <= est.radius + 1e-8)
    assert est.radius == pytest.approx(sr.a_numerical_radius(op, theta_grid=360), abs=1e-12)


def test_estimate_range_degenerate_rank_zero():
    ctx = sr.make_context(np.zeros((2, 2)))
    op = sr.make_operator(ctx, np.eye(2))
    with pytest.warns(RuntimeWarning):
        est = sr.estimate_range(op)
    assert est.degenerate
    assert est.radius == 0.0
    assert est.crawford == 0.0
    assert est.boundary.size == 0


def test_theta_identity_on_hermitian():
    t = np.array([[2.0, 1.0], [1.0, -1.0]])
    op = sr.make_operator(sr.identity_context(2), t)
    assert sr.w_theta_identity_check(op) == pytest.approx(
        np.linalg.norm(t, 2), abs=1e-8
    )


def test_theta_identity_remark_matrix():
    op = sr.make_operator(sr.identity_context(2), np.diag([1 + 1j, 2 + 1j]))
    assert sr.w_theta_identity_check(op) == pytest.approx(np.sqrt(5), abs=1e-6)


def test_theta_identity_agrees_with_radius(rng):
    for _ in range(8):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, n + 1))
        if r == n:
            ctx = random_strict_context(rng, n)
            op = random_operator(rng, ctx)
        else:
            ctx, t = singular_pair(rng, n, r)
            op = sr.make_operator(ctx, t)
        assert sr.w_theta_identity_check(op) == pytest.approx(
            sr.a_numerical_radius(op), abs=1e-6
        )


def test_general_eig_residual_contract(rng):
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    lam = sr.general_eig(m)
    assert sorted(np.round(lam.real, 6).tolist()) == sorted(
        np.round(np.linalg.eigvals(m).real, 6).tolist()
    )


def test_spectral_inclusion_normal_matrix():
    t = np.diag([1.0 + 2j, -3.0, 0.5j])
    op = sr.make_operator(sr.identity_context(3), t)
    rep = sr.spectral_inclusion_check(op)
    assert rep.passed
    assert rep.max_violation <= 1e-12


def test_spectral_inclusion_random(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        ctx = random_strict_context(rng, n)
        op = random_operator(rng, ctx)
        rep = sr.spectral_inclusion_check(op)
        assert rep.passed, (rep.max_violation, rep.tolerance)


def test_spectral_inclusion_measures_excess_over_support_lines(monkeypatch):
    # W(diag(1, 2)) is the segment [1, 2]; a point planted as the spectrum
    # is flagged by its excess over the support lines at the grid angles,
    # here its distance to the segment
    op = sr.make_operator(sr.identity_context(2), np.diag([1.0, 2.0]))
    planted = {3.0: 1.0, 0.5: 0.5, 1.5 + 1j: 1.0, 3.0 + 1j: np.sqrt(2), 1.5: 0.0}
    for z, excess in planted.items():
        monkeypatch.setattr(arange, "general_eig", lambda m, z=z: np.array([z]))
        rep = sr.spectral_inclusion_check(op, theta_grid=8)
        assert rep.max_violation == pytest.approx(excess, abs=1e-12)
        assert rep.passed == (excess == 0.0)


def test_spectral_inclusion_rejects_singular_weight():
    ctx = sr.make_context(np.diag([1.0, 0.0]))
    op = sr.make_operator(ctx, np.diag([1.0, 3.0]))
    with pytest.raises(sr.NotStrictlyPositive):
        sr.spectral_inclusion_check(op)


def test_monte_carlo_radius_deterministic(rng):
    ctx = random_strict_context(rng, 4)
    op = random_operator(rng, ctx)
    v1 = sr.monte_carlo_radius(op, samples=20_000, seed=11)
    v2 = sr.monte_carlo_radius(op, samples=20_000, seed=11)
    assert v1 == v2


def test_monte_carlo_on_singular_weight(rng):
    ctx, t = singular_pair(rng, 5, 3)
    op = sr.make_operator(ctx, t)
    w = sr.a_numerical_radius(op)
    mc = sr.monte_carlo_radius(op, samples=50_000, seed=2)
    assert mc <= w + 1e-8
    assert mc >= w - 1e-2 * (1 + w)
