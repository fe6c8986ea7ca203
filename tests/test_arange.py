import numpy as np
import pytest

import semirad as sr
from semirad import arange, semihilbert
from conftest import (
    random_operator,
    random_strict_context,
    record_batched_solves,
    singular_pair,
)


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
        q, root = ctx.range_basis, np.sqrt(ctx.range_eigenvalues)
        u = (q / root) @ q.conj().T @ v @ (q * root) @ q.conj().T
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


@pytest.mark.parametrize("n", [2, 8, 32])
def test_half_turn_spectra_give_the_whole_support_function(n):
    # Re(exp(-i(theta+pi)) C) = -Re(exp(-i theta) C): the bottom of the
    # spectrum at theta is minus the top at theta + pi
    rng = np.random.default_rng(n)
    c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    half = arange._HALF_TURN
    lam = arange._half_turn(c)
    direct = np.linalg.eigvalsh(arange._rotated(c, half + np.pi))[:, -1]
    # relative to the scale of h: h itself crosses 0
    tol = 1e-13 * np.max(np.abs(direct))
    np.testing.assert_allclose(-lam[:, 0], direct, rtol=0, atol=tol)
    full = np.linalg.eigvalsh(arange._rotated(c, arange._THETAS))[:, -1]
    np.testing.assert_allclose(arange._support(lam), full, rtol=0, atol=tol)


@pytest.mark.parametrize(
    "quantity", [sr.a_numerical_radius, sr.a_crawford, sr.spectral_inclusion_check]
)
def test_range_quantities_run_one_half_turn_scan(rng, monkeypatch, quantity):
    op = random_operator(rng, random_strict_context(rng, 3))
    stacks = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m, *args, **kw):
        if np.ndim(m) > 2:
            stacks.append(np.shape(m))
        return eigvalsh(m, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    quantity(op)
    assert stacks == [(360, 3, 3)]


def test_estimate_range_is_one_half_turn_eigh(rng, monkeypatch):
    # 720 boundary points, the bottom eigenvectors giving the second half
    op = random_operator(rng, random_strict_context(rng, 3))
    calls = []
    for name in ("eigvalsh", "eigh"):

        def counted(m, *args, _fn=getattr(np.linalg, name), _name=name, **kw):
            calls.append((_name, np.shape(m)))
            return _fn(m, *args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    est = sr.estimate_range(op)
    assert [c for c in calls if len(c[1]) > 2] == [("eigh", (360, 3, 3))]
    assert est.boundary.shape == (720,)
    c = op.compressed
    for theta, point in zip(arange._THETAS, est.boundary):
        top = np.linalg.eigvalsh(arange._rotated(c, theta))[-1]
        # each point is on the support line of its angle
        assert (np.exp(-1j * theta) * point).real == pytest.approx(
            top, abs=1e-12 * est.radius
        )


def range_round(op, order):
    """Every range quantity of *op*, asked in *order*."""
    ask = {
        "radius": lambda: sr.a_numerical_radius(op),
        "crawford": lambda: sr.a_crawford(op),
        "bounds": lambda: sr.bound_report(op),
        "inclusion": lambda: sr.spectral_inclusion_check(op),
        "range": lambda: sr.estimate_range(op),
    }
    return {name: ask[name]() for name in order}


ROUND = ("radius", "crawford", "bounds", "inclusion", "range")


def test_one_operator_is_scanned_once(rng, monkeypatch):
    op = random_operator(rng, random_strict_context(rng, 5))
    calls = record_batched_solves(monkeypatch)
    range_round(op, ROUND)
    assert calls == [("eigvalsh", (360, 5, 5)), ("eigh", (360, 5, 5))]
    calls.clear()
    range_round(op, ROUND[:-1])
    assert calls == []
    # the boundary still needs the eigenvectors, which are not kept
    range_round(op, ["range"])
    assert calls == [("eigh", (360, 5, 5))]


def test_estimate_range_first_fills_the_scan(rng, monkeypatch):
    op = random_operator(rng, random_strict_context(rng, 5))
    calls = record_batched_solves(monkeypatch)
    range_round(op, ROUND[::-1])
    assert calls == [("eigh", (360, 5, 5))]


def test_kept_values_do_not_depend_on_the_order(rng):
    ctx = random_strict_context(rng, 6)
    t = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    first = range_round(sr.make_operator(ctx, t), ROUND)
    second = range_round(sr.make_operator(ctx, t), ROUND[::-1])
    for name in ("radius", "crawford"):
        assert first[name] == second[name]
    for name in ("inclusion", "range"):
        a, b = first[name], second[name]
        for field in vars(a):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    a, b = first["bounds"], second["bounds"]
    for field in vars(a):
        if field in ("lower_21", "lower_22"):
            # read straight off the kept spectra, which come from eigvalsh
            # in one order and from eigh in the other: LAPACK's
            # eigenvalue-only and eigenvector paths round differently
            assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-14)
        else:
            assert getattr(a, field) == getattr(b, field), field


@pytest.mark.parametrize(
    "derive",
    [
        lambda op: sr.scale_operator(op, 2.0 - 1.0j),
        lambda op: sr.add_operators(op, sr.scale_operator(op, 1j)),
        sr.re_a,
    ],
    ids=["scale", "add", "re_a"],
)
def test_derived_operator_has_its_own_scan(rng, monkeypatch, derive):
    op = random_operator(rng, random_strict_context(rng, 4))
    range_round(op, ROUND)
    derived = derive(op)
    fresh = semihilbert.SemiOperator(
        matrix=derived.matrix, context=derived.context, compressed=derived.compressed
    )
    calls = record_batched_solves(monkeypatch)
    values = range_round(derived, ROUND)
    assert calls == [("eigvalsh", (360, 4, 4)), ("eigh", (360, 4, 4))]
    assert values["radius"] != range_round(op, ["radius"])["radius"]
    expected = range_round(fresh, ROUND)
    for name in ("radius", "crawford"):
        assert values[name] == expected[name]
    assert values["bounds"] == expected["bounds"]


@pytest.mark.parametrize("quantity", [sr.a_numerical_radius, sr.a_crawford])
def test_rank_zero_weight_warns_on_every_call(monkeypatch, quantity):
    op = sr.make_operator(sr.make_context(np.zeros((2, 2))), np.eye(2))
    calls = record_batched_solves(monkeypatch)
    for _ in range(2):
        with pytest.warns(RuntimeWarning, match="rank 0"):
            assert quantity(op) == 0.0
    assert calls == []


def test_estimate_range_fields(rng):
    ctx = random_strict_context(rng, 4)
    op = random_operator(rng, ctx)
    est = sr.estimate_range(op)
    assert not est.degenerate
    assert est.radius >= est.crawford >= 0
    assert np.all(np.abs(est.boundary) <= est.radius + 1e-8)
    assert est.radius == pytest.approx(sr.a_numerical_radius(op), abs=1e-12)


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


def test_theta_identity_is_one_batched_svd(rng, monkeypatch):
    # Re_A(exp(i*theta) T) = cos(theta) Re_A(T) - sin(theta) Im_A(T): two
    # operators are built and the whole grid is one stacked SVD of the
    # half turn (the part at theta + pi is minus the part at theta), with
    # no operator rescaled per angle
    ctx, t = singular_pair(rng, 4, 3)
    op = sr.make_operator(ctx, t)
    stacks = []
    svd = np.linalg.svd

    def counted(m, *args, **kw):
        if np.ndim(m) > 2:
            stacks.append(np.shape(m))
        return svd(m, *args, **kw)

    built = []
    real = semihilbert.SemiOperator

    def building(*args, **kw):
        built.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(semihilbert, "SemiOperator", building)
    assert sr.w_theta_identity_check(op) == pytest.approx(
        sr.a_numerical_radius(op), rel=1e-8
    )
    assert stacks == [(360, 3, 3)]
    assert len(built) == 2


def test_general_eig_residual_contract(rng):
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    lam = sr.general_eig(m)
    assert sorted(np.round(lam.real, 6).tolist()) == sorted(
        np.round(np.linalg.eigvals(m).real, 6).tolist()
    )


def test_general_eig_rejects_bad_pair_at_any_scale(monkeypatch):
    # an absolute floor in the residual gate let every pair of a tiny
    # matrix through; the gate is relative to ||M||
    m = 1e-170 * np.array([[1.0, 2.0], [0.0, 3.0]])
    eig = np.linalg.eig

    def corrupted(mat):
        lam, vec = eig(mat)
        return lam * np.array([1.01, 1.0]), vec

    monkeypatch.setattr(np.linalg, "eig", corrupted)
    with pytest.raises(sr.NumericalFailure, match="residual"):
        sr.general_eig(m)


@pytest.mark.parametrize("c", [0.0, 1e-170, 1.0, 1e160])
def test_general_eig_scales_with_m(c):
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    lam = np.sort_complex(sr.general_eig(c * m))
    np.testing.assert_allclose(lam, c * np.sort_complex(np.linalg.eigvals(m)), rtol=1e-13)


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
        rep = sr.spectral_inclusion_check(op)
        assert rep.max_violation == pytest.approx(excess, abs=1e-12)
        assert rep.passed == (excess == 0.0)


def test_spectral_inclusion_tolerance_scales_with_t():
    g = np.random.default_rng(172).normal(size=(2, 3, 3))
    t = g[0] + 1j * g[1]
    ctx = sr.identity_context(3)
    ref = sr.spectral_inclusion_check(sr.make_operator(ctx, t))
    for c in (1e-170, 1e-160, 1.0, 1e150, 1e160):
        rep = sr.spectral_inclusion_check(sr.make_operator(ctx, c * t))
        assert rep.tolerance == pytest.approx(c * ref.tolerance, rel=1e-12, abs=0), c
        assert rep.passed, c


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
