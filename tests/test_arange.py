import tracemalloc

import numpy as np
import pytest

import semirad as sr
from semirad import arange, semihilbert
from conftest import (
    random_operator,
    random_strict_context,
    record_batched_solves,
    separated,
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
    # the kept eigvalsh scan gives the eigenvalues; one stacked solve of
    # the shifted top and bottom systems gives the 720 boundary points,
    # the bottom vectors the second half
    op = random_operator(rng, random_strict_context(rng, 3))
    calls = record_batched_solves(monkeypatch)
    est = sr.estimate_range(op)
    assert calls == [("eigvalsh", (360, 3, 3)), ("solve", (720, 3, 3))]
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
    assert calls == [("eigvalsh", (360, 5, 5)), ("solve", (720, 5, 5))]
    calls.clear()
    range_round(op, ROUND[:-1])
    assert calls == []
    # the boundary needs the eigenvectors, which are not kept; the shifted
    # solve gets them from the kept spectra, with no second eigensolve
    range_round(op, ["range"])
    assert calls == [("solve", (720, 5, 5))]


def test_estimate_range_first_fills_the_scan(rng, monkeypatch):
    op = random_operator(rng, random_strict_context(rng, 5))
    calls = record_batched_solves(monkeypatch)
    range_round(op, ROUND[::-1])
    assert calls == [("eigvalsh", (360, 5, 5)), ("solve", (720, 5, 5))]


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
    assert first["bounds"] == second["bounds"]


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
    assert calls == [("eigvalsh", (360, 4, 4)), ("solve", (720, 4, 4))]
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


def _with_kernel():
    ctx, t = singular_pair(np.random.default_rng(11), 5, 3)
    return ctx.matrix, t


BOUNDARY_CASES = {
    "zero": (np.eye(3), np.zeros((3, 3))),
    "i_times_identity": (np.eye(3), 1j * np.eye(3)),
    "flat_edges": (np.eye(2), np.diag([1.0, -1.0])),
    "jordan_5": (np.eye(5), np.eye(5, k=1)),
    "kernel": _with_kernel(),
    "tiny": (np.eye(4), 1e-170 * (np.eye(4, k=1) + np.diag([1.0, 1j, -1.0, 0.5]))),
    "float_limit": (np.diag([1.0, 4.0]), np.diag([1e308, -1e308])),
}


@pytest.mark.parametrize("case", BOUNDARY_CASES.values(), ids=BOUNDARY_CASES.keys())
def test_boundary_points_are_support_points(case):
    a, t = case
    op = sr.make_operator(sr.make_context(a), t)
    est = sr.estimate_range(op)
    p, w = est.boundary, est.radius
    h = arange._support(arange._spectra(op))
    assert np.all(np.isfinite(p))
    # on the support line of its angle, and inside the disk of radius w
    on_line = (np.exp(-1j * arange._THETAS) * p).real
    assert np.max(np.abs(on_line - h)) <= 1e-12 * w
    assert np.all(np.abs(p) <= w * (1 + 1e-12))


def test_boundary_of_the_zero_matrix_runs_no_solve(monkeypatch):
    op = sr.make_operator(sr.identity_context(3), np.zeros((3, 3)))
    calls = record_batched_solves(monkeypatch)
    est = sr.estimate_range(op)
    assert calls == [("eigvalsh", (360, 3, 3))]
    assert not np.any(est.boundary)


def test_boundary_points_match_eigenvectors(rng):
    # where the extreme eigenvalue is clear of the next, the point is
    # well posed and the shifted solve finds eigh's eigenvector
    for k in range(30):
        n = int(rng.integers(2, 13))
        scale = 10.0 ** rng.uniform(-5, 5)
        if k % 2:
            ctx, t = singular_pair(rng, n, int(rng.integers(1, n)))
        else:
            ctx = random_strict_context(rng, n)
            t = random_operator(rng, ctx).matrix
        op = sr.make_operator(ctx, scale * t)
        est = sr.estimate_range(op)
        c = op.compressed
        lam, vec = np.linalg.eigh(arange._rotated(c, arange._HALF_TURN))
        x = np.concatenate((vec[:, :, -1], vec[:, :, 0]))
        ref = np.einsum("bi,bi->b", x.conj(), x @ c.T)
        ok = separated(lam, est.radius)
        assert np.max(np.abs(est.boundary - ref)[ok]) <= 1e-9 * est.radius


def test_boundary_solve_failure_is_a_numerical_failure(rng, monkeypatch):
    op = random_operator(rng, random_strict_context(rng, 3))

    def singular(*args, **kw):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(sr.NumericalFailure, match="shifted solve"):
        sr.estimate_range(op)


def test_scans_run_in_bounded_chunks(rng, monkeypatch):
    # k = 20: 163 angles (65,200 entries) per eigvalsh or SVD stack, 81
    # angles, top and bottom, per solve stack and 40 per stack of the
    # 2k x 2k block matrix; the results do not depend on the chunking,
    # down to one angle per stack
    k = 20
    ctx = random_strict_context(rng, k)
    blocks = [random_operator(rng, ctx).matrix for _ in range(4)]

    def outputs():
        ops = [sr.make_operator(ctx, b) for b in blocks]
        est = sr.estimate_range(ops[0])
        return (
            arange._spectra(ops[0]),
            est.boundary,
            est.radius,
            est.crawford,
            sr.bound_report(ops[0]),
            sr.w_theta_identity_check(ops[0]),
            sr.matrix_bound_report(*ops),
        )

    calls = record_batched_solves(monkeypatch)
    chunked = outputs()
    scan = [(163, k, k), (163, k, k), (34, k, k)]
    shapes = {kind: [s for name, s in calls if name == kind] for kind in dict(calls)}
    # T11's scan, T22's (T11's is kept) and the 2k x 2k block matrix's
    assert shapes["eigvalsh"] == scan * 2 + [(40, 2 * k, 2 * k)] * 9
    assert shapes["solve"] == [(162, k, k)] * 4 + [(72, k, k)]
    assert shapes["svd"] == scan
    assert all(np.prod(shape) <= arange.CHUNK_ENTRIES for _, shape in calls)
    for budget in (2**40, 1):
        monkeypatch.setattr(arange, "CHUNK_ENTRIES", budget)
        for got, want in zip(outputs(), chunked):
            np.testing.assert_array_equal(got, want)


def test_estimate_range_memory_is_bounded(rng):
    # one unchunked stack of the 360 parts alone is 23.6 MB at k = 64
    op = random_operator(rng, random_strict_context(rng, 64))
    tracemalloc.start()
    try:
        sr.estimate_range(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


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


@pytest.mark.parametrize(
    "samples, batches",
    [(1, [1]), (2, [1, 1]), (999, [499, 500]), (2500, [1000, 250, 1000, 250])],
)
def test_sampler_explores_half_the_budget_then_perturbs(samples, batches):
    seen = []

    def value_fn(c):
        seen.append(c)
        return np.abs(c[:, 0])

    best = arange._sphere_sup(value_fn, 3, samples, seed=0)
    assert [len(c) for c in seen] == batches
    for c in seen:
        assert np.allclose(np.linalg.norm(c, axis=1), 1.0)
    assert best == max(float(np.max(np.abs(c[:, 0]))) for c in seen)
