import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import semirad as sr
from semirad import arange, cli, semihilbert
from conftest import (
    dense_min,
    random_operator,
    random_strict_context,
    record_angles,
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


def normal_operator(eigenvalues, seed):
    """A normal T with *eigenvalues* under the identity weight, in a random
    orthonormal basis, so that C is not diagonal."""
    n = len(eigenvalues)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return sr.make_operator(sr.identity_context(n), (u * eigenvalues) @ u.conj().T)


@pytest.mark.parametrize(
    "eigenvalues, distance",
    [
        # a segment whose point nearest 0 is 1.5 + 0.5j, inside the segment
        ([1 + 2j, 2 - 1j], np.sqrt(2.5)),
        # a triangle whose point nearest 0 is 2 + 1j, inside the edge from
        # 3 - 1j to 1 + 3j
        ([3 - 1j, 1 + 3j, 4 + 4j], np.sqrt(5.0)),
    ],
    ids=["segment", "triangle"],
)
def test_crawford_at_a_kink(eigenvalues, distance):
    # the min of h sits where the support lines of two vertices cross, a
    # kink of h; the refinement models both branches and lands on it
    op = normal_operator(eigenvalues, seed=len(eigenvalues))
    c = op.compressed

    def h(angles):
        return np.linalg.eigvalsh(arange._rotated(c, angles))[:, -1]

    reference = -dense_min(h, 0.0, 2.0 * np.pi)
    crawford = sr.a_crawford(op)
    assert crawford >= reference * (1 - 1e-14)
    assert crawford == pytest.approx(distance, rel=1e-14)


def record_eigensolves(monkeypatch):
    """(kind, shape) of every eigvalsh and eigh call from now on."""
    calls = []
    for name in ("eigvalsh", "eigh"):

        def counted(m, *args, _fn=getattr(np.linalg, name), _name=name, **kw):
            calls.append((_name, np.shape(m)))
            return _fn(m, *args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_crawford_alone_runs_no_refinement_with_the_origin_inside(monkeypatch):
    # the picture's inner polygon holds the origin, so the Crawford number
    # is 0 without a refinement step: the picture's stacked eigh calls are
    # the only eigensolves
    ctx = random_strict_context(np.random.default_rng(32), 32)
    op = random_operator(np.random.default_rng(33), ctx)
    calls = record_eigensolves(monkeypatch)
    assert sr.a_crawford(op) == 0.0
    assert calls and {(name, len(shape)) for name, shape in calls} == {("eigh", 3)}


def test_range_quantities_refine_in_few_steps(monkeypatch):
    # on an n = 32 operator the radius, the Crawford number and the bound
    # report take no eigvalsh, one picture of stacked parts and at most 12
    # refinement steps
    ctx = random_strict_context(np.random.default_rng(32), 32)
    op = random_operator(np.random.default_rng(33), ctx)
    calls = record_eigensolves(monkeypatch)
    sr.a_numerical_radius(op)
    sr.a_crawford(op)
    sr.bound_report(op)
    assert all(name == "eigh" for name, _ in calls)
    stacks = [shape for _, shape in calls if len(shape) == 3 and shape[0] > 2]
    assert stacks[0] == (16, 32, 32)  # the 32 start lines
    assert sum(shape[0] for shape in stacks) <= 128
    steps = [shape for _, shape in calls if shape not in stacks]
    assert 0 < len(steps) <= 12
    assert set(steps) <= {(32, 32), (2, 32, 32)}


@pytest.mark.parametrize("n", [2, 8, 32])
def test_half_turn_spectra_give_the_whole_support_function(n):
    # Re(exp(-i(theta+pi)) C) = -Re(exp(-i theta) C): the bottom branch of
    # the part at theta gives h at theta + pi, so the parts of the half
    # turn give h at every angle of the picture
    rng = np.random.default_rng(n)
    c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    op = sr.make_operator(sr.identity_context(n), c)
    theta, h = arange._picture(op)[:2]
    assert np.all(np.diff(theta) > 0) and theta[0] == 0.0 and theta[-1] < 2 * np.pi
    assert np.all(theta[len(theta) // 2 :] >= np.pi)
    direct = np.linalg.eigvalsh(arange._rotated(c, theta))[:, -1]
    # relative to the scale of h: h itself crosses 0
    tol = 1e-13 * np.max(np.abs(direct))
    np.testing.assert_allclose(h, direct, rtol=0, atol=tol)


@pytest.mark.parametrize(
    "quantity", [sr.a_numerical_radius, sr.a_crawford, sr.spectral_inclusion_check]
)
def test_range_quantities_run_one_half_turn_scan(rng, monkeypatch, quantity):
    # the support lines are evaluated in stacked eigh calls over the half
    # turn, starting from its 16 parts (32 lines), each later round a whole
    # number of quarter-turn orbits; any other eigensolve is a single
    # refinement step
    op = random_operator(rng, random_strict_context(rng, 3))
    calls = record_eigensolves(monkeypatch)
    rounds = record_angles(monkeypatch)
    quantity(op)
    stacks = [shape for _, shape in calls if len(shape) == 3]
    assert [name for name, _ in calls] == ["eigh"] * len(calls)
    assert stacks[0] == (16, 3, 3)
    assert stacks == [(2 * len(base), 3, 3) for _, base in rounds]
    assert {shape for _, shape in calls if len(shape) == 2} <= {(3, 3)}


def test_estimate_range_is_one_half_turn_eigh(rng, monkeypatch):
    # the picture is the only eigensolve of the boundary: stacked eigh
    # calls over the half turn, the bottom branches giving the second half
    # turn; each point lies on the support line of its angle and every
    # outer vertex within RTOL * w of its inner chord
    op = random_operator(rng, random_strict_context(rng, 3))
    calls = record_batched_solves(monkeypatch)
    est = sr.estimate_range(op)
    assert {name for name, _ in calls} == {"eigh"}
    theta, h, boundary, outer, gap = arange._picture(op)
    assert np.array_equal(est.boundary, boundary) and np.array_equal(est.outer, outer)
    assert len(boundary) == len(outer) >= 32
    c, w = op.compressed, est.radius
    top = np.linalg.eigvalsh(arange._rotated(c, theta))[:, -1]
    on_line = (np.exp(-1j * theta) * boundary).real
    assert np.max(np.abs(on_line - top)) <= 1e-12 * w
    assert np.max(gap) <= arange.RTOL * w
    # each vertex lies on the support lines of its cell's two angles
    nxt = np.roll(theta, -1)
    for angle, support in ((theta, h), (nxt, np.roll(h, -1))):
        assert np.max(np.abs((np.exp(-1j * angle) * outer).real - support)) <= 1e-9 * w


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


def evaluated(rounds):
    """Every base angle of the recorded *rounds*, in the order evaluated."""
    return np.concatenate([base for _, base in rounds])


def test_one_operator_is_scanned_once(rng, monkeypatch):
    op = random_operator(rng, random_strict_context(rng, 5))
    rounds = record_angles(monkeypatch)
    range_round(op, ROUND)
    angles = evaluated(rounds)
    # no angle is evaluated twice, and every eigensolve of a round is stacked
    assert len(np.unique(angles)) == len(angles)
    assert len({id(cells) for cells, _ in rounds}) == 1
    rounds.clear()
    range_round(op, ROUND[::-1])
    assert rounds == []


def test_estimate_range_first_fills_the_scan(rng, monkeypatch):
    # asked in reverse order, the operator evaluates the same angles, none
    # twice
    ctx = random_strict_context(rng, 5)
    t = random_operator(rng, ctx).matrix
    rounds = record_angles(monkeypatch)
    range_round(sr.make_operator(ctx, t), ROUND)
    forward = evaluated(rounds)
    rounds.clear()
    range_round(sr.make_operator(ctx, t), ROUND[::-1])
    backward = evaluated(rounds)
    assert len(np.unique(backward)) == len(backward)
    assert np.array_equal(np.sort(forward), np.sort(backward))


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
    rounds = record_angles(monkeypatch)
    values = range_round(derived, ROUND)
    # the derived operator starts its own cells from the 32 start lines
    assert len({id(cells) for cells, _ in rounds}) == 1
    assert rounds[0][0].c is derived.compressed and len(rounds[0][1]) == 8
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
    theta, h, _, outer, gap = arange._picture(op)
    assert np.all(np.isfinite(p)) and np.all(np.isfinite(outer))
    # on the support line of its angle, and inside the disk of radius w
    on_line = (np.exp(-1j * theta) * p).real
    assert np.max(np.abs(on_line - h)) <= 1e-12 * w
    assert np.all(np.abs(p) <= w * (1 + 1e-12))
    assert np.max(gap) <= arange.RTOL * w


def test_boundary_of_the_zero_matrix_runs_no_solve(monkeypatch):
    # every gap is 0, so the 32 start lines are the whole picture
    op = sr.make_operator(sr.identity_context(3), np.zeros((3, 3)))
    calls = record_batched_solves(monkeypatch)
    est = sr.estimate_range(op)
    assert calls == [("eigh", (16, 3, 3))]
    assert est.boundary.shape == (32,) and not np.any(est.boundary)
    assert not np.any(est.outer)


def test_boundary_points_match_eigenvectors(rng):
    # where the top eigenvalue is clear of the next, the point is well
    # posed, and the point read off the slope is x* C x of eigh's
    # eigenvector
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
        theta = arange._picture(op)[0]
        x = np.linalg.eigh(arange._rotated(c, theta))[1][:, :, -1]
        ref = np.einsum("bi,bi->b", x.conj(), x @ c.T)
        ok = separated(c, theta, est.radius)
        assert np.max(np.abs(est.boundary - ref)[ok]) <= 1e-9 * est.radius


def test_boundary_solve_failure_is_a_numerical_failure(rng, monkeypatch):
    # a LAPACK failure in the eigensolve of the support lines
    op = random_operator(rng, random_strict_context(rng, 3))

    def failing(*args, **kw):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(sr.NumericalFailure, match="eigensolve of the support lines"):
        sr.estimate_range(op)


def test_scans_run_in_bounded_chunks(rng, monkeypatch):
    # k = 20: at most 163 matrices (65,200 entries) per eigh or SVD stack,
    # 40 per stack of the 2k x 2k block matrix; the results do not depend
    # on the chunking, down to one matrix per stack
    k = 20
    ctx = random_strict_context(rng, k)
    blocks = [random_operator(rng, ctx).matrix for _ in range(4)]

    def outputs():
        ops = [sr.make_operator(ctx, b) for b in blocks]
        est = sr.estimate_range(ops[0])
        return (
            arange._picture(ops[0])[1],
            est.boundary,
            est.outer,
            est.radius,
            est.crawford,
            sr.bound_report(ops[0]),
            sr.w_theta_identity_check(ops[0]),
            sr.matrix_bound_report(*ops),
        )

    calls = record_batched_solves(monkeypatch)
    chunked = outputs()
    shapes = {kind: [s for name, s in calls if name == kind] for kind in dict(calls)}
    assert shapes["svd"] == [(163, k, k), (163, k, k), (34, k, k)]
    assert {shape[1:] for shape in shapes["eigh"]} == {(k, k), (2 * k, 2 * k)}
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


def test_pruning_finds_the_peak_the_start_lines_miss():
    # two eigenvalues of nearly equal modulus between the start lines at 0
    # and pi/16: the start line at pi/16 sits at the lower one, and only
    # bisecting the cell whose vertex bound beats it finds the true radius;
    # the origin lies outside the hull, whose nearest point is the middle
    # of the edge between the two eigenvalues of nearly equal least modulus
    near = [0.4 * np.exp(0.097j), (0.4 + 1e-5) * np.exp(0.19j)]
    eigenvalues = [np.exp(0.098j), (1 - 1e-4) * np.exp(0.19j), *near, 0.6 + 0.1j]
    op = normal_operator(eigenvalues, seed=5)
    c = op.compressed
    start = np.arange(32) * np.pi / 16
    h = np.linalg.eigvalsh(arange._rotated(c, start))[:, -1]
    assert start[np.argmax(h)] == np.pi / 16 and np.max(h) < 1 - 5e-5
    assert sr.a_numerical_radius(op) == pytest.approx(1.0, rel=1e-14)
    # distance from 0 to the segment between the two near eigenvalues
    a, b = near
    along = np.clip(np.real(-a * np.conj(b - a)) / abs(b - a) ** 2, 0.0, 1.0)
    assert 0.0 < along < 1.0
    assert sr.a_crawford(op) == pytest.approx(abs(a + along * (b - a)), rel=1e-13)


def test_pruning_refines_every_peak_that_may_hold_the_max():
    # eight eigenvalues of modulus within 1e-6 of 1, seven of them 0.003
    # past a start line and the largest midway between two: h has one peak
    # per eigenvalue, and the picture's seven best peaks are the lower ones
    angles = np.arange(8) * np.pi / 4 + 0.003
    angles[5] += np.pi / 32 - 0.003
    moduli = 1.0 + 1e-7 * np.arange(8)
    moduli[5] = 1.0 + 1e-6
    op = normal_operator(moduli * np.exp(1j * angles), seed=8)
    theta, h = arange._picture(op)[:2]
    nearest = np.argmin(np.abs(np.angle(np.exp(1j * (theta[:, None] - angles)))), axis=1)
    best = np.array([np.max(h[nearest == j]) for j in range(8)])
    assert np.all(np.delete(best, 5) > best[5])
    assert sr.a_numerical_radius(op) == pytest.approx(1.0 + 1e-6, rel=1e-14)


def test_radius_of_a_near_disk():
    # the range of [[0, 2], [1e-9, 0]] is an ellipse with semi-axes
    # 1 +- 5e-10: every outer vertex beats every sample, so the whole turn
    # is open, and its two peaks, parted by valleys of depth 1e-9, are
    # refined on their own
    op = sr.make_operator(sr.identity_context(2), np.array([[0.0, 2.0], [1e-9, 0.0]]))
    assert sr.a_numerical_radius(op) == pytest.approx(1.0 + 5e-10, rel=1e-14)
    assert sr.bound_report(op).upper_hphi == pytest.approx(np.sqrt(2.0), rel=1e-14)


def _cli_range_jobs(seed):
    """The range jobs of the cli-small benchmark workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "problems.py"
    spec = importlib.util.spec_from_file_location("perfbench_problems", path)
    problems = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(problems)
    jobs = problems.cli_problems(seed)
    return [job["doc"] for job in jobs if job["command"] == "range"]


def distance_to_polygon(z, polygon):
    """Distance of each point *z* to the convex *polygon* (counterclockwise
    vertices, repeats allowed), 0 inside."""
    a, edge = polygon, np.roll(polygon, -1) - polygon
    rel = z[:, None] - a[None, :]
    norm = np.abs(edge) ** 2
    t = np.clip(np.real(rel * edge.conj()) / np.where(norm > 0, norm, 1.0), 0.0, 1.0)
    nearest = np.min(np.abs(rel - t * edge), axis=1)
    inside = np.all(np.imag(edge.conj() * rel) >= 0, axis=1)
    return np.where(inside, 0.0, nearest)


@pytest.mark.parametrize("seed", [7, 401])
def test_old_720_point_polygon_lies_within_rtol_of_the_inner_polygon(seed):
    # the support points at the 720 angles of the former fixed grid lie in
    # the range, so within RTOL * w of the new inner polygon
    thetas = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    for doc in _cli_range_jobs(seed):
        op = cli._operator_from(doc)
        est = sr.estimate_range(op)
        x = np.linalg.eigh(arange._rotated(op.compressed, thetas))[1][:, :, -1]
        old = np.einsum("bi,bi->b", x.conj(), x @ op.compressed.T)
        gap = distance_to_polygon(old, est.boundary)
        assert np.max(gap) <= arange.RTOL * est.radius * (1 + 1e-9)
