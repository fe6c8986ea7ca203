import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import semirad as sr
from semirad import arange, cells, cli, scan, semihilbert
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
        return np.linalg.eigvalsh(scan._rotated(c, angles))[:, -1]

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
    # the start lines' inner polygon holds the origin, so the Crawford
    # number is 0 without a refinement step: the one stacked eigvalsh of
    # the start lines (k = 32 takes the shifted solves) is the only
    # eigensolve
    ctx = random_strict_context(np.random.default_rng(32), 32)
    op = random_operator(np.random.default_rng(33), ctx)
    calls = record_eigensolves(monkeypatch)
    assert sr.a_crawford(op) == 0.0
    assert calls == [("eigvalsh", (16, 32, 32))]


def test_range_quantities_refine_in_few_steps(monkeypatch):
    # on an n = 32 operator the radius, the Crawford number and the bound
    # report take one picture of stacked parts, in eigvalsh stacks (k = 32
    # takes the shifted solves), and at most 6 refinement steps, each one
    # eigh
    ctx = random_strict_context(np.random.default_rng(32), 32)
    op = random_operator(np.random.default_rng(33), ctx)
    calls = record_eigensolves(monkeypatch)
    sr.a_numerical_radius(op)
    sr.a_crawford(op)
    sr.bound_report(op)
    stacks = [shape for name, shape in calls if name == "eigvalsh"]
    assert stacks[0] == (16, 32, 32)  # the 32 start lines
    assert all(len(shape) == 3 and shape[0] > 2 for shape in stacks)
    assert sum(shape[0] for shape in stacks) <= 128
    steps = [shape for name, shape in calls if name == "eigh"]
    assert 0 < len(steps) <= 6
    assert set(steps) <= {(32, 32), (2, 32, 32)}


@pytest.mark.parametrize("n", [2, 8, 32])
def test_half_turn_spectra_give_the_whole_support_function(n):
    # Re(exp(-i(theta+pi)) C) = -Re(exp(-i theta) C): the bottom branch of
    # the part at theta gives h at theta + pi, so the parts of the half
    # turn give h at every angle of the picture
    rng = np.random.default_rng(n)
    c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    op = sr.make_operator(sr.identity_context(n), c)
    theta, h = cells.operator_cells(op).outline()[:2]
    assert np.all(np.diff(theta) > 0) and theta[0] == 0.0 and theta[-1] < 2 * np.pi
    assert np.all(theta[len(theta) // 2 :] >= np.pi)
    direct = np.linalg.eigvalsh(scan._rotated(c, theta))[:, -1]
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
    theta, h, boundary, outer, gap = cells.operator_cells(op).outline()
    assert np.array_equal(est.boundary, boundary) and np.array_equal(est.outer, outer)
    assert len(boundary) == len(outer) >= 32
    c, w = op.compressed, est.radius
    top = np.linalg.eigvalsh(scan._rotated(c, theta))[:, -1]
    on_line = (np.exp(-1j * theta) * boundary).real
    assert np.max(np.abs(on_line - top)) <= 1e-12 * w
    assert np.max(gap) <= cells.RTOL * w
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


@pytest.mark.parametrize(
    "quantity", [sr.a_numerical_radius, sr.a_crawford, sr.w_theta_identity_check]
)
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


def _with_kernel(seed=11, rank=3):
    ctx, t = singular_pair(np.random.default_rng(seed), 5, rank)
    return ctx.matrix, t


def _normal(m, seed):
    """A diagonal T of m random complex eigenvalues: a polygonal range."""
    z = np.random.default_rng(seed).normal(size=(2, m)).T @ [1.0, 1j]
    return np.eye(m), np.diag(z)


def _dense(seed):
    """A random strict weight and a random dense T: a smooth range."""
    rng = np.random.default_rng(seed)
    ctx = random_strict_context(rng, 6)
    return ctx.matrix, random_operator(rng, ctx).matrix


BOUNDARY_CASES = {
    "zero": (np.eye(3), np.zeros((3, 3))),
    "i_times_identity": (np.eye(3), 1j * np.eye(3)),
    "flat_edges": (np.eye(2), np.diag([1.0, -1.0])),
    "jordan_5": (np.eye(5), np.eye(5, k=1)),
    "kernel": _with_kernel(),
    "tiny": (np.eye(4), 1e-170 * (np.eye(4, k=1) + np.diag([1.0, 1j, -1.0, 0.5]))),
    # subnormal entries, whose power of two is below 2**-1024
    "subnormal": (
        np.eye(4), 2.0**-1030 * (np.eye(4, k=1) + np.diag([1.0, 1j, -1.0, 0.5]))
    ),
    "float_limit": (np.diag([1.0, 4.0]), np.diag([1e308, -1e308])),
    "dense": _dense(3),
    "normal_5": _normal(5, 5),
    "normal_64": _normal(64, 6),
    "near_disk": (np.eye(2), np.array([[0.0, 2.0], [1e-9, 0.0]])),
    "rank_1": _with_kernel(8, 1),
}


@pytest.mark.parametrize("case", BOUNDARY_CASES.values(), ids=BOUNDARY_CASES.keys())
def test_boundary_points_are_support_points(case):
    a, t = case
    op = sr.make_operator(sr.make_context(a), t)
    est = sr.estimate_range(op)
    p, w = est.boundary, est.radius
    theta, h, _, outer, gap = cells.operator_cells(op).outline()
    assert np.all(np.isfinite(p)) and np.all(np.isfinite(outer))
    # on the support line of its angle, and inside the disk of radius w
    on_line = (np.exp(-1j * theta) * p).real
    assert np.max(np.abs(on_line - h)) <= 1e-12 * w
    assert np.all(np.abs(p) <= w * (1 + 1e-12))
    assert np.max(gap) <= cells.RTOL * np.max(h)


def test_picture_of_a_regular_pentagon_closes_each_edge_at_once(monkeypatch):
    # the chord rule puts a support line normal to each flat edge the first
    # time a cell straddles it, so five edges cost few rounds
    z = np.exp(2j * np.pi * np.arange(5) / 5 + 0.3j)
    op = sr.make_operator(sr.identity_context(5), np.diag(z))
    calls = record_batched_solves(monkeypatch)
    _, h, _, _, gap = cells.operator_cells(op).outline()
    assert sum(shape[0] for kind, shape in calls if kind == "eigh") <= 32
    assert np.max(gap) <= cells.RTOL * np.max(h)


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
        theta = cells.operator_cells(op).outline()[0]
        x = np.linalg.eigh(scan._rotated(c, theta))[1][:, :, -1]
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


def test_eigenvalues_of_the_support_lines_failure_is_a_numerical_failure(
    rng, monkeypatch
):
    # from scan.SOLVE_K on the stacks take eigvalsh, whose LAPACK failure
    # is a NumericalFailure too
    op = random_operator(rng, random_strict_context(rng, scan.SOLVE_K))

    def failing(*args, **kw):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(sr.NumericalFailure, match="eigensolve of the support lines"):
        sr.estimate_range(op)


@pytest.mark.parametrize(
    "quantity", [sr.a_numerical_radius, sr.upper_bound_hphi, sr.w_theta_identity_check]
)
def test_refinement_solve_failure_is_a_numerical_failure(rng, monkeypatch, quantity):
    # LAPACK fails on the one and two-part eigh calls of the refinements,
    # not on the stacks of the support lines
    op = random_operator(rng, random_strict_context(rng, 4))
    eigh = np.linalg.eigh

    def failing(m, *args, **kw):
        if np.ndim(m) == 2 or len(m) <= 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(m, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(sr.NumericalFailure, match="eigensolve of the support lines"):
        quantity(op)


def test_identity_grid_failure_is_a_numerical_failure(rng, monkeypatch):
    # LAPACK fails on the stacked SVDs of the rotation grid only
    op = random_operator(rng, random_strict_context(rng, 4))
    svd = np.linalg.svd

    def failing(m, *args, **kw):
        if np.ndim(m) == 3:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(m, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(sr.NumericalFailure, match="SVD of the rotation grid failed"):
        sr.w_theta_identity_check(op)


def test_w_theta_identity_check_keeps_a_strictly_better_grid_point(rng, monkeypatch):
    # the result is at least the maximum of its own grid, and is that
    # maximum when no refined point beats it
    op = random_operator(rng, random_strict_context(rng, 4))
    c_re, c_im = sr.re_a(op).compressed, sr.im_a(op).compressed
    half = np.linspace(0.0, 2.0 * np.pi, arange.THETA_GRID, endpoint=False)[
        : arange.THETA_GRID // 2, None, None
    ]
    parts = np.cos(half) * c_re - np.sin(half) * c_im
    grid = float(np.max(np.linalg.svd(parts, compute_uv=False)[:, 0]))
    assert sr.w_theta_identity_check(op) >= grid
    monkeypatch.setattr(arange, "refine", lambda evaluate, t, lo, hi: (t, 0.0))
    assert sr.w_theta_identity_check(op) == grid


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
            cells.operator_cells(ops[0]).outline()[1],
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
    # k = 20 and 2k take the shifted solves: eigvalsh and two solves of each
    # stack, and eigh only in the two-part refinement steps of H_phi
    for kind in ("eigvalsh", "solve"):
        assert {shape[1:] for shape in shapes[kind]} == {(k, k), (2 * k, 2 * k)}
    assert sorted(shapes["solve"]) == sorted(2 * shapes["eigvalsh"])
    assert set(shapes["eigh"]) == {(2, k, k)}
    assert all(np.prod(shape) <= cells.CHUNK_ENTRIES for _, shape in calls)
    for budget in (2**40, 1):
        monkeypatch.setattr(cells, "CHUNK_ENTRIES", budget)
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
    # matrix through; the gate is relative to ||M||, and below 2**-1024,
    # where a complex quotient by ||M|| overflows, a NaN residual fails
    eig = np.linalg.eig

    def corrupted(mat):
        lam, vec = eig(mat)
        return lam * np.array([1.01, 1.0]), vec

    monkeypatch.setattr(np.linalg, "eig", corrupted)
    for scale in (1e-170, 2.0**-1030):
        m = scale * np.array([[1.0, 2.0], [0.0, 3.0]])
        with pytest.raises(sr.NumericalFailure, match="residual"):
            sr.general_eig(m)


@pytest.mark.parametrize("c", [0.0, 2.0**-1030, 1e-170, 1.0, 1e160])
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


def test_monte_carlo_radius_of_no_samples_is_zero(rng):
    op = random_operator(rng, random_strict_context(rng, 3))
    assert sr.monte_carlo_radius(op, samples=0) == 0.0


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
    h = np.linalg.eigvalsh(scan._rotated(c, start))[:, -1]
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
    theta, h = cells.operator_cells(op).outline()[:2]
    nearest = np.argmin(np.abs(np.angle(np.exp(1j * (theta[:, None] - angles)))), axis=1)
    best = np.array([np.max(h[nearest == j]) for j in range(8)])
    assert np.all(np.delete(best, 5) > best[5])
    assert sr.a_numerical_radius(op) == pytest.approx(1.0 + 1e-6, rel=1e-14)


def test_radius_finds_a_higher_peak_hidden_in_one_segment(rng, monkeypatch):
    # three peaks within 3e-7 of each other and 0.06 rad share one
    # segment, where refining its best angle can climb a lower one; eight
    # lower peaks lie elsewhere.  The highest is an eigenvalue (a corner of
    # the range): a result below its modulus runs the search again from its
    # direction.  A result that reaches both the top eigenvalue's modulus
    # and the farthest support point, as on a random operator, runs one
    # search.
    searches = []
    extremum = cells._extremum
    monkeypatch.setattr(
        cells, "_extremum", lambda *args: searches.append(1) or extremum(*args)
    )
    sr.a_numerical_radius(random_operator(rng, random_strict_context(rng, 6)))
    assert len(searches) == 1
    for seed in range(200):
        draw = np.random.default_rng(seed)
        moduli = np.concatenate(
            ([1 + 4.9e-7, 1 + 4.1e-7, 1 + 7.0e-7], 1 + draw.uniform(-1e-6, 4e-7, 8))
        )
        spread = np.linspace(0.0, 4.6, 8) + draw.uniform(0.0, 0.3, 8)
        angles = np.concatenate(([4.958, 5.005, 5.021], spread))
        op = normal_operator(moduli * np.exp(1j * angles), seed=seed)
        assert sr.a_numerical_radius(op) == pytest.approx(np.max(moduli), rel=1e-14)


def test_radius_reruns_from_the_top_eigenvalue_of_a_non_normal_operator():
    # seven eigenvalues within 1e-6 of the unit circle, moved by a dense
    # 1e-4 perturbation: the first search ends at 0.99995867, below a
    # support point of modulus 1.0000425 and the top eigenvalue's modulus
    # 1.0000687, and only the search run again from the farther one's
    # direction, the eigenvalue's, reaches the radius, 1.0000730; the
    # reference is a dense scan of h, not that modulus
    draw = np.random.default_rng(257)
    k = int(draw.integers(3, 9))
    z = np.exp(1j * draw.uniform(0, 2 * np.pi, k)) * (1 + 1e-6 * draw.uniform(-1, 1, k))
    g = draw.standard_normal((k, k)) + 1j * draw.standard_normal((k, k))
    t = np.diag(z) + 1e-4 * g

    def minus_h(thetas):
        r = np.exp(-1j * thetas)[:, None, None] * t
        return -np.linalg.eigvalsh(0.5 * (r + r.conj().transpose(0, 2, 1)))[:, -1]

    op = sr.make_operator(sr.identity_context(k), t)
    w = -dense_min(minus_h, 0.0, 2 * np.pi, n=2**15)
    assert sr.a_numerical_radius(op) == pytest.approx(w, rel=1e-13)


def non_normal(draws, s=1e-5, real=False):
    """T of the draws *draws* of a non-normal family drawn from
    default_rng(11), each draw in this order: k = integers(3, 9); k angles
    U(0, 2 pi), then k moduli 1 + 1e-6 U(-1, 1) of the eigenvalues z; G,
    then H, each a complex k x k matrix (standard normal real parts, then
    imaginary parts), or a real one if *real*.  T = diag(z) + s (G + iH)."""
    rng = np.random.default_rng(11)

    def matrix(k):
        m = rng.standard_normal((k, k))
        return m if real else m + 1j * rng.standard_normal((k, k))

    for i in range(max(draws) + 1):
        k = int(rng.integers(3, 9))
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, k)) * (1 + 1e-6 * rng.uniform(-1, 1, k))
        g = matrix(k)
        h = matrix(k)
        if i in draws:
            yield np.diag(z) + s * (g + 1j * h)


NON_NORMAL_DRAWS = (52, 137, 140, 153)


@pytest.mark.parametrize(
    "t",
    [*non_normal(NON_NORMAL_DRAWS), *non_normal((14,), s=1e-4, real=True)],
    ids=[*(f"non-normal-{i}" for i in NON_NORMAL_DRAWS), "real-non-normal-14"],
)
def test_radius_of_a_non_normal_operator_finds_a_smooth_hidden_peak(t):
    # the highest peak of h hides in a segment with lower ones, and on draws
    # 14, 137 and 140 no eigenvalue marks it (on 140 the top one's modulus
    # is 1.0000041, below the radius): no segment is refined while a cell
    # is coarser than the picture, and the search runs again from the
    # farthest support point.  An eigenvalue check alone misses 52, 140 and
    # 153 by 4.1e-12, 1.57e-7 and 1.0e-13 relative, where the rounding of h
    # is below 1e-14; a refinement before the cells reach the picture's
    # resolution misses 137 by 1.23e-6 and 14 by 1.1e-5.  The reference
    # zooms into the 8 best angles of a 2^14-angle scan of h.
    def minus_h(thetas):
        r = np.exp(-1j * thetas)[:, None, None] * t
        return -np.linalg.eigvalsh(0.5 * (r + r.conj().transpose(0, 2, 1)))[:, -1]

    theta = np.linspace(0, 2 * np.pi, 2**14, endpoint=False)
    step = theta[1]
    best = np.argsort(minus_h(theta))[:8]
    w = max(-dense_min(minus_h, theta[i] - step, theta[i] + step, n=2**10) for i in best)
    op = sr.make_operator(sr.identity_context(len(t)), t)
    assert sr.a_numerical_radius(op) == pytest.approx(w, rel=3e-14, abs=0)


def near_unitary(draws):
    """(z, T) of the near-unitary draws *draws* (indices below 300) of the
    family drawn from default_rng(3), each draw in this order: k from (2, 3,
    5, 8, 16, 32); beta = U(0, 2 pi); eps = 10^U(-12, -6); s = 10^U(-3,
    -0.5); the k - 2 moduli 1 - 1e-6 U(0, 1), then their angles U(0, 2 pi);
    on even draws only, a unitary U from the QR of G + iH, with G and then H
    standard normal k x k.  z holds e^{i beta}, (1 + eps) e^{i (beta + s)}
    and the k - 2 others; T is diag(z) on odd draws and U diag(z) U* on
    even ones."""
    rng = np.random.default_rng(3)
    for i in range(max(draws) + 1):
        k = int(rng.choice([2, 3, 5, 8, 16, 32]))
        beta = rng.uniform(0, 2 * np.pi)
        eps = 10 ** rng.uniform(-12, -6)
        s = 10 ** rng.uniform(-3, -0.5)
        rest = (1 - 1e-6 * rng.uniform(0, 1, k - 2)) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, k - 2)
        )
        z = np.concatenate(([np.exp(1j * beta), (1 + eps) * np.exp(1j * (beta + s))], rest))
        t = np.diag(z)
        if i % 2 == 0:
            u, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
            t = (u * z) @ u.conj().T
        if i in draws:
            yield z, t


NEAR_UNITARY_DRAWS = (47, 94, 174, 186, 190, 278)

# three eigenvalues within 0.03 of each other near -0.95 - 0.3i; a search
# alone ends 1.77e-9 below the top modulus
CLOSE_CORNERS = np.array(
    [-0.9506669 - 0.3102135j, -0.9503234 - 0.3112642j, -0.9581656 - 0.2862122j]
)


@pytest.mark.parametrize(
    "z, t",
    [
        (CLOSE_CORNERS, np.diag(CLOSE_CORNERS)),
        # two eigenvalues within 1e-6 in modulus and 10^-0.5 in angle,
        # which a search alone misses by up to 1.9e-7
        *near_unitary(NEAR_UNITARY_DRAWS),
    ],
    ids=["diagonal-3", *(f"near-unitary-{i}" for i in NEAR_UNITARY_DRAWS)],
)
def test_radius_of_a_normal_operator_is_its_top_eigenvalue_modulus(z, t):
    # every corner of the range is an eigenvalue, so a result below the top
    # one's modulus runs the search again from its direction
    op = sr.make_operator(sr.identity_context(len(z)), t)
    assert sr.a_numerical_radius(op) == pytest.approx(np.max(np.abs(z)), rel=1e-13, abs=0)


def test_radius_eigenvalue_failure_is_a_numerical_failure(monkeypatch):
    # a LAPACK failure in the eigenvalues of C that check the radius; a
    # normal T with two distinct moduli has sqrt(||C^2||_F) = (2^4 +
    # 1.5^4)^(1/4) = 2.16 > w = 2, so the check cannot be skipped
    op = sr.make_operator(sr.identity_context(3), np.diag([2.0, 1.5j, 0.0]))

    def failing(*args, **kw):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    with pytest.raises(sr.NumericalFailure, match="eigenvalues of C"):
        sr.a_numerical_radius(op)


def test_radius_skips_the_eigenvalues_that_cannot_beat_it(monkeypatch):
    # on a dense n = 32 operator sqrt(||C^2||_F), which bounds every
    # eigenvalue's modulus, lies below w, so no eigenvalue could start a
    # second search: the radius takes no eigvals and keeps every bit
    ctx = random_strict_context(np.random.default_rng(32), 32)
    t = random_operator(np.random.default_rng(33), ctx).matrix
    op = sr.make_operator(ctx, t)
    w = sr.a_numerical_radius(op)
    # so a check against the top eigenvalue returned w too
    assert np.max(np.abs(np.linalg.eigvals(op.compressed))) < w

    def failing(*args, **kw):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    assert sr.a_numerical_radius(sr.make_operator(ctx, t)) == w


def test_search_refines_at_most_one_new_segment_per_round(monkeypatch):
    # three eigenvalues of nearly one modulus: in the first round two
    # segments' bounds beat the best value, and only the more promising one
    # is refined; the other waits for the next round, whose finer cells may
    # show it below the first one's optimum
    log = []
    refine, extend = cells.refine, cells.Cells.extend
    monkeypatch.setattr(cells, "refine", lambda *args: log.append("r") or refine(*args))
    monkeypatch.setattr(
        cells.Cells, "extend", lambda self, *args: log.append("e") or extend(self, *args)
    )
    moduli = np.array([1.0086, 1.0092, 1.0094])
    op = normal_operator(moduli * np.exp(1j * np.array([3.706, 3.156, 0.236])), seed=3)
    assert sr.a_numerical_radius(op) == pytest.approx(1.0094, rel=1e-14)
    assert log.count("r") == 2
    assert max(len(r) for r in "".join(log).split("e")) == 1


def _cubic_view(center, period, n=8):
    """A cyclic view of n angles over *period* sampling f(u) = -u^2 (1 +
    u / 2), u the offset from *center* in [-period/2, period/2), whose max
    is at *center*: (theta, f, f')."""
    theta = np.arange(n) * (period / n)
    u = (theta - center + 0.5 * period) % period - 0.5 * period
    return theta, -u * u * (1.0 + 0.5 * u), -u * (2.0 + 1.5 * u)


@pytest.mark.parametrize("center", [0.3, 0.45])
def test_seed_of_samples_of_a_cubic_is_its_maximizer(center):
    # the best of the samples lies below the max (0.3) or above it (0.45),
    # so its slope points up or down; the Hermite cubic of the cell it
    # points to is f itself
    theta, value, slope = _cubic_view(center, 2.0)
    top = int(value.argmax())
    assert slope[top] != 0.0 and theta[top] != center
    assert cells._seed(theta, value, slope, top, 2.0) == pytest.approx(center, abs=1e-14)


def test_seed_of_a_flat_best_point_is_that_point():
    theta, value, slope = _cubic_view(0.5, 2.0)
    assert value.argmax() == 2 and slope[2] == 0.0
    assert cells._seed(theta, value, slope, 2, 2.0) == 0.5


@pytest.mark.parametrize("center", [1.44, -0.06])
def test_seed_wraps_across_the_period(center):
    # the best point is the last angle of the view with its slope pointing
    # up (1.44), or the first with its slope pointing down (-0.06): the
    # neighbour it points to lies across the period
    period = 0.5 * np.pi
    theta, value, slope = _cubic_view(center, period)
    top = int(value.argmax())
    assert top == (7 if center > 0 else 0)
    seed = cells._seed(theta, value, slope, top, period)
    assert seed == pytest.approx(center, abs=1e-14)


def test_radius_of_an_entry_of_modulus_past_the_float_range():
    # C = [[0, a], [0, 0]], a = 1.5e308 (1 + i): |a| overflows, but its parts
    # do not, and the cells' unit is taken from them, so the radius |a| / 2
    # is found; the seminorm |a| is past the float range, inf and not NaN
    w = 1.0606601717798212e308  # 1.5e308 / sqrt(2), rounded
    op = sr.make_operator(sr.identity_context(2), [[0, 1.5e308 * (1 + 1j)], [0, 0]])
    assert abs(sr.a_numerical_radius(op) - w) <= 4 * np.spacing(w)
    assert sr.a_operator_seminorm(op) == np.inf


def test_radius_of_a_near_disk():
    # the range of [[0, 2], [1e-9, 0]] is an ellipse with semi-axes
    # 1 +- 5e-10: every outer vertex beats every sample, so the whole turn
    # is open, and its two peaks, parted by valleys of depth 1e-9, are
    # refined on their own
    op = sr.make_operator(sr.identity_context(2), np.array([[0.0, 2.0], [1e-9, 0.0]]))
    assert sr.a_numerical_radius(op) == pytest.approx(1.0 + 5e-10, rel=1e-14)
    assert sr.bound_report(op).upper_hphi == pytest.approx(np.sqrt(2.0), rel=1e-14)


def _benchmark_problems():
    """The problem generators of the benchmark, perfbench/problems.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "problems.py"
    spec = importlib.util.spec_from_file_location("perfbench_problems", path)
    problems = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(problems)
    return problems


def _cli_range_jobs(seed):
    """The range jobs of the cli-small benchmark workload."""
    jobs = _benchmark_problems().cli_problems(seed)
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
        x = np.linalg.eigh(scan._rotated(op.compressed, thetas))[1][:, :, -1]
        old = np.einsum("bi,bi->b", x.conj(), x @ op.compressed.T)
        gap = distance_to_polygon(old, est.boundary)
        assert np.max(gap) <= cells.RTOL * est.radius * (1 + 1e-9)


def _order_cases():
    """(weight, T) of an operator-n32 benchmark problem, a normal T with a
    known radius and a random k = 4 operator."""
    problem = _benchmark_problems().operator_problems(7)[0]
    rng = np.random.default_rng(4)
    ctx = random_strict_context(rng, 4)
    normal = normal_operator([1.2, 0.3 + 1j, -0.9 - 0.4j, 0.5j], seed=3)
    return [
        (problem["A"], problem["T"]),
        (normal.context.matrix, normal.matrix),
        (ctx.matrix, random_operator(rng, ctx).matrix),
    ]


@pytest.mark.parametrize("case", _order_cases(), ids=["n32", "normal", "k4"])
def test_call_order_changes_no_bit(case):
    # the searches grow their own cells from the start lines, so the
    # picture grown before them by estimate_range changes none of their bits
    a, t = case

    def searches(op):
        return sr.a_numerical_radius(op), sr.a_crawford(op), sr.bound_report(op)

    first = sr.make_operator(sr.make_context(a), t)
    before = searches(first)
    sr.estimate_range(first)
    later = sr.make_operator(sr.make_context(a), t)
    sr.estimate_range(later)
    assert searches(later) == before


# The cells' geometry as each function computed it for itself before one
# pass computed it for all: the reference that the pass must match to the bit.


def _ref_next(x):
    return np.concatenate((x[1:], x[:1]))


def _ref_geometry(index, h, dh):
    theta = index * cells._UNIT
    width = np.diff(index, append=index[0] + 4 * cells._QUARTER) * cells._UNIT
    turn = np.exp(1j * theta)
    p = turn * (h + 1j * dh)
    p_next = _ref_next(p)
    t = np.real(_ref_next(turn).conj() * (p_next - p)) / np.sin(width)
    return theta, width, p, p_next, p + 1j * turn * t


def _ref_gap(p, p_next, vertex):
    chord = p_next - p
    norm = np.abs(chord) ** 2
    along = np.divide(
        np.real((vertex - p) * chord.conj()), norm, out=np.zeros_like(norm), where=norm > 0
    )
    return np.abs(vertex - (p + along.clip(0.0, 1.0) * chord))


def _ref_chord_rule(index, geometry):
    _, _, p, p_next, _ = geometry
    span, chord = np.diff(index, append=index[0] + 4 * cells._QUARTER), p_next - p
    normal = (np.angle(chord) - 0.5 * np.pi - index * cells._UNIT) % (2.0 * np.pi)
    off = np.rint(normal / cells._UNIT).astype(np.int64)
    mid = span // 2
    snap = (off <= 0) | (off >= span) | (8 * np.abs(off - mid) <= span) | (chord == 0)
    return index + np.where(snap, mid, off)


def _ref_vertex_bound(geometry, h):
    theta, width, _, _, vertex = geometry
    inside = (np.angle(vertex) - theta) % (2.0 * np.pi) <= width
    return np.where(inside, np.abs(vertex), np.maximum(h, _ref_next(h)))


def _views():
    """Full-turn views: random ones, one with runs of equal support points
    (chords of length 0), one whose every chord has length 0, and the
    picture and start lines of operators."""
    rng = np.random.default_rng(11)
    for m in (1, 2, 5, 40):
        base = np.unique(rng.integers(0, cells._QUARTER, m))
        index = (base + cells._QUARTER * np.arange(4)[:, None]).ravel()
        h, dh = rng.normal(size=(2, len(index)))
        yield index, h, dh
        if m == 40:  # a run of zeros: the support point 0 at several angles
            h, dh = h.copy(), dh.copy()
            h[5:9] = dh[5:9] = 0.0
            yield index, h, dh
            yield index, np.zeros(len(index)), np.zeros(len(index))
    ctx = random_strict_context(rng, 5)
    for op in (random_operator(rng, ctx), normal_operator([1, 1j, -1], seed=2)):
        own = cells.operator_cells(op)
        yield own.view(own.picture)
        yield own.view(own.start)


@pytest.mark.parametrize("view", list(_views()))
def test_geometry_pass_matches_each_function_to_the_bit(view):
    # every cell, the one that wraps the turn among them, and every chord
    # of length 0, read off the one pass as each function once computed it
    index, h, dh = view
    g, ref = cells._geometry(index, h, dh), _ref_geometry(index, h, dh)
    for ours, theirs in zip((g.theta, g.width, g.p, g.p_next, g.vertex), ref):
        assert ours.tobytes() == theirs.tobytes()
    assert cells._gap(g).tobytes() == _ref_gap(*ref[2:]).tobytes()
    assert cells._chord_rule(g).tobytes() == _ref_chord_rule(index, ref).tobytes()
    assert cells._vertex_bound(g, h).tobytes() == _ref_vertex_bound(ref, h).tobytes()


def test_radius_only_calls_grow_no_picture(rng, monkeypatch):
    # the radius, the Crawford number and the block report grow only the
    # cells their searches need; estimate_range still grows the picture
    ctx = random_strict_context(rng, 5)
    ops = [random_operator(rng, ctx) for _ in range(4)]
    grown = []
    coarse = cells._coarse
    monkeypatch.setattr(
        cells, "_coarse", lambda *view: grown.append(1) or coarse(*view)
    )
    for op in ops:
        sr.a_numerical_radius(op)
        sr.a_crawford(op)
    sr.matrix_bound_report(*ops)
    assert grown == []
    assert all("picture" not in vars(cells.operator_cells(op)) for op in ops)
    sr.estimate_range(ops[0])
    assert grown and "picture" in vars(cells.operator_cells(ops[0]))


def test_radius_evaluates_fewer_matrices_than_the_picture(monkeypatch):
    # on an n = 32 operator, the radius's search from the start lines and
    # its refinement take fewer parts than the picture alone
    problem = _benchmark_problems().operator_problems(7)[1]
    parts = []
    for name in ("branches", "extremes"):

        def counted(c, t, *args, _fn=getattr(cells, name), **kw):
            parts.append(np.size(t))
            return _fn(c, t, *args, **kw)

        monkeypatch.setattr(cells, name, counted)

    def operator():
        return sr.make_operator(sr.make_context(problem["A"]), problem["T"])

    sr.a_numerical_radius(operator())
    radius = sum(parts)
    parts.clear()
    cells.operator_cells(operator()).outline()
    assert 0 < radius < sum(parts)


def test_an_operator_builds_one_parts(monkeypatch):
    # every search refines on the cells' Parts, in the cells' unit: the
    # radius, the Crawford number (the origin lies outside the range, so
    # its search runs), the H_phi bound and the picture
    built = []
    parts = cells.Parts

    def counted(*args):
        built.append(args)
        return parts(*args)

    monkeypatch.setattr(cells, "Parts", counted)
    t = np.diag([1 + 1j, 2 - 0.5j, 1.5]) + 0.1 * np.eye(3, k=1)
    op = sr.make_operator(sr.identity_context(3), t)
    sr.a_numerical_radius(op)
    assert sr.a_crawford(op) > 0.0
    sr.upper_bound_hphi(op)
    sr.estimate_range(op)
    assert len(built) == 1


STACKED_CALLS = {
    "a_numerical_radius": lambda ops: sr.a_numerical_radius(ops[0]),
    "a_crawford": lambda ops: sr.a_crawford(ops[0]),
    "bound_report": lambda ops: sr.bound_report(ops[0]),
    "estimate_range": lambda ops: sr.estimate_range(ops[0]),
    "matrix_bound_report": lambda ops: sr.matrix_bound_report(*ops),
}


@pytest.mark.parametrize("call", STACKED_CALLS.values(), ids=STACKED_CALLS.keys())
def test_one_patch_intercepts_every_stacked_cells_eigensolve(rng, monkeypatch, call):
    # every stacked eigensolve of the cells, asked from arange and from
    # bounds alike, runs through Cells.support
    def refused(self, angles):
        raise RuntimeError("stacked cells eigensolve")

    monkeypatch.setattr(cells.Cells, "support", refused)
    ctx = random_strict_context(rng, 4)
    with pytest.raises(RuntimeError, match="stacked cells eigensolve"):
        call([random_operator(rng, ctx) for _ in range(4)])


def test_radius_of_two_peaks_in_one_start_cell():
    # two extreme eigenvalues e^{i beta} and (1 + eps) e^{i (beta + s)}, s
    # below the pi/16 width of a start cell, and k - 2 lower ones; the
    # radius is the larger modulus, whether T is diagonal or not
    draw = np.random.default_rng(18)
    for i in range(400):
        k = int(draw.integers(2, 9))
        s = draw.uniform(0.005, 0.3)
        eps = 10.0 ** draw.uniform(-9, -3)
        beta = draw.uniform(0.0, 2.0 * np.pi)
        peaks = [np.exp(1j * beta), (1 + eps) * np.exp(1j * (beta + s))]
        others = draw.uniform(0.2, 0.9, k - 2) * np.exp(
            2j * np.pi * draw.uniform(size=k - 2)
        )
        z = np.concatenate((peaks, others))
        if i % 2:
            g = draw.normal(size=(2, k, k))
            u, _ = np.linalg.qr(g[0] + 1j * g[1])
            t = (u * z) @ u.conj().T
        else:
            t = np.diag(z)
        op = sr.make_operator(sr.identity_context(k), t)
        assert sr.a_numerical_radius(op) == pytest.approx(1 + eps, rel=1e-13), i
