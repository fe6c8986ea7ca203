import json
import os
import subprocess
import sys

import numpy as np
import pytest

import semirad as sr
from conftest import (
    dense_min,
    random_operator,
    random_strict_context,
    record_angles,
    record_batched_solves,
    singular_pair,
)
from semirad import bounds, cells, scan, semihilbert


def two_by_two(mat, ctx=None):
    if ctx is None:
        ctx = sr.identity_context(2)
    return sr.make_operator(ctx, np.asarray(mat, dtype=complex))


class TestLowerBounds:
    def test_diagonal_example_is_tight_for_21(self):
        # real part diag(1,2), imaginary part I: first form hits the radius
        op = two_by_two(np.diag([1 + 1j, 2 + 1j]))
        w = sr.a_numerical_radius(op)
        assert w == pytest.approx(np.sqrt(5), abs=1e-10)
        assert sr.lower_bound_21(op) == pytest.approx(np.sqrt(5), abs=1e-8)
        assert sr.lower_bound_22(op) == pytest.approx(np.sqrt(2), abs=1e-8)

    def test_hermitian_operator(self):
        op = two_by_two([[2.0, 1.0], [1.0, -1.0]])
        w = sr.a_numerical_radius(op)
        nrm = sr.a_operator_seminorm(op)
        assert w == pytest.approx(nrm, abs=1e-10)
        assert sr.lower_bound_21(op) == pytest.approx(w, abs=1e-8)
        # imaginary part vanishes and the range straddles zero, so the
        # second form degenerates to the Crawford number of the real part
        assert sr.lower_bound_22(op) == pytest.approx(0.0, abs=1e-8)

    def test_definite_hermitian_second_form(self):
        op = two_by_two(np.diag([1.0, 3.0]))
        assert sr.lower_bound_22(op) == pytest.approx(1.0, abs=1e-8)

    def test_skew_case_mirrors(self):
        h = np.array([[2.0, 1.0], [1.0, -1.0]])
        op = two_by_two(1j * h)
        w = sr.a_numerical_radius(op)
        assert sr.lower_bound_22(op) == pytest.approx(w, abs=1e-8)

    def test_lower_bounds_dominate_component_norms(self, rng):
        for _ in range(10):
            ctx = random_strict_context(rng, 4)
            op = random_operator(rng, ctx)
            re_norm = sr.a_operator_seminorm(sr.re_a(op))
            im_norm = sr.a_operator_seminorm(sr.im_a(op))
            assert sr.lower_bound_21(op) >= re_norm - 1e-8
            assert sr.lower_bound_22(op) >= im_norm - 1e-8


class TestUpperBound:
    def test_hermitian_collapses_to_norm(self):
        op = two_by_two([[2.0, 1.0], [1.0, -1.0]])
        val, _ = sr.upper_bound_hphi(op)
        nrm = sr.a_operator_seminorm(op)
        # at phi = 0 one term is the full norm and the other vanishes
        assert val <= nrm + 1e-8
        assert val >= sr.a_numerical_radius(op) - 1e-8

    def test_phi_star_in_window(self, rng):
        ctx = random_strict_context(rng, 4)
        op = random_operator(rng, ctx)
        _, phi = sr.upper_bound_hphi(op)
        assert 0 <= phi < np.pi / 2 + 1e-12

    def test_never_worse_than_phi_zero(self, rng):
        for _ in range(10):
            ctx = random_strict_context(rng, 4)
            op = random_operator(rng, ctx)
            re_norm = sr.a_operator_seminorm(sr.re_a(op))
            im_norm = sr.a_operator_seminorm(sr.im_a(op))
            val, _ = sr.upper_bound_hphi(op)
            assert val <= np.sqrt(re_norm**2 + im_norm**2) + 1e-8


class TestSpectralParts:
    """The closed-form parts and the compressed H_phi against the
    full-space path through re_a / im_a and the operator seminorm."""

    @staticmethod
    def operators(rng):
        for n in (3, 5, 6):
            ctx = random_strict_context(rng, n)
            yield random_operator(rng, ctx)
        for n, kernel in ((3, 1), (5, 2), (6, 3)):
            ctx, t = singular_pair(rng, n, n - kernel)
            yield sr.make_operator(ctx, t)

    def cases(self, rng):
        # a shift by 2 ||T|| (1 + i) I makes both parts definite, so the
        # Crawford numbers are nonzero too
        for op in self.operators(rng):
            yield op
            shift = 2.0 * sr.a_operator_seminorm(op) * (1 + 1j)
            eye = sr.make_operator(op.context, np.eye(op.dim))
            yield sr.add_operators(op, sr.scale_operator(eye, shift))

    def test_lower_bounds_match_full_space_parts(self, rng):
        crawfords = []
        for op in self.cases(rng):
            rep = sr.bound_report(op)
            re_part, im_part = sr.re_a(op), sr.im_a(op)
            l21 = np.sqrt(
                sr.a_operator_seminorm(re_part) ** 2 + sr.a_crawford(im_part) ** 2
            )
            l22 = np.sqrt(
                sr.a_operator_seminorm(im_part) ** 2 + sr.a_crawford(re_part) ** 2
            )
            assert rep.lower_21 == pytest.approx(l21, rel=1e-12)
            assert rep.lower_22 == pytest.approx(l22, rel=1e-12)
            crawfords.append(sr.a_crawford(im_part))
        assert sum(c > 0.0 for c in crawfords) >= 6

    def test_hphi_matches_full_space_objective_at_phi_star(self, rng):
        for op in self.cases(rng):
            rep = sr.bound_report(op)

            def h_norm(phi):
                rotated = sr.scale_operator(op, np.exp(1j * phi))
                return sr.a_operator_seminorm(sr.re_a(rotated))

            phi = rep.phi_star
            full = np.sqrt(h_norm(phi) ** 2 + h_norm(phi + 0.5 * np.pi) ** 2)
            assert rep.upper_hphi == pytest.approx(full, rel=1e-12)

    def test_bound_report_runs_one_scan_and_one_svd(self, rng, monkeypatch):
        # the radius, both lower bounds and the H_phi bound all read the
        # support-line cells, evaluated in stacked eigh calls; the
        # refinements add one eigh per step, of one part for the radius and
        # of the two parts for H_phi
        op = random_operator(rng, random_strict_context(rng, 4))
        calls = []
        for name in ("eigvalsh", "eigh", "svd"):

            def counted(m, *args, _fn=getattr(np.linalg, name), _name=name, **kw):
                calls.append((_name, np.shape(m)))
                return _fn(m, *args, **kw)

            monkeypatch.setattr(np.linalg, name, counted)
        built = []
        monkeypatch.setattr(
            semihilbert, "SemiOperator", lambda *a, **kw: built.append(a)
        )
        sr.bound_report(op)
        assert [c for c in calls if c[0] == "eigvalsh"] == []
        assert [c for c in calls if c[0] == "svd"] == [("svd", (4, 4))]
        stacks = [
            shape for name, shape in calls if name == "eigh" and shape[:-2] > (2,)
        ]
        assert stacks[0] == (16, 4, 4)
        steps = {shape for name, shape in calls if name == "eigh"} - set(stacks)
        assert steps == {(4, 4), (2, 4, 4)}
        assert built == []


@pytest.mark.parametrize("c", [1e-15, 1e-11, 1.0, 1e6])
@pytest.mark.parametrize("kernel", [0, 1])
def test_bound_report_invariant_under_weight_scaling(c, kernel):
    # A -> cA leaves every weighted quantity unchanged; phi_star is left
    # out because it is only as stable as the argmin of a flat objective
    a = np.diag([2.0, 1.0, 0.5 * (1 - kernel)])
    t = np.array(
        [[1 + 2j, -0.5, 0.0], [0.7 - 1j, 2.0, 0.0], [0.3j, -1.1, -0.4 + 0.9j]]
    )
    ref = sr.bound_report(sr.make_operator(sr.make_context(a), t))
    rep = sr.bound_report(sr.make_operator(sr.make_context(c * a), t))
    for field in (
        "w_exact", "lower_21", "lower_22", "upper_hphi",
        "sandwich_lower", "sandwich_upper",
    ):
        assert getattr(rep, field) == pytest.approx(getattr(ref, field), rel=1e-10)


SCALES = (1e-170, 1e-160, 1.0, 1e150, 1e160)


def _assert_scaled(rep, ref, c, skip=()):
    for field, value in vars(ref).items():
        if field in skip or value is None:
            continue
        expected = pytest.approx(c * value, rel=1e-12, abs=0)
        assert getattr(rep, field) == expected, (c, field)


def test_bound_report_holds_at_every_scale():
    # T -> cT scales every bound by |c|: no square underflows to 0 or
    # overflows to inf, so each bracket still holds
    g = np.random.default_rng(170).normal(size=(2, 3, 3))
    t = g[0] + 1j * g[1]
    ctx = sr.identity_context(3)
    ref = sr.bound_report(sr.make_operator(ctx, t))
    for c in SCALES:
        rep = sr.bound_report(sr.make_operator(ctx, c * t))
        _assert_scaled(rep, ref, c, skip=("phi_star",))
        w = rep.w_exact * (1 + 1e-12)
        assert max(rep.lower_21, rep.lower_22, rep.sandwich_lower) <= w, c
        assert rep.w_exact <= min(rep.upper_hphi, rep.sandwich_upper) * (1 + 1e-12), c
    # entries at the float limit: the rotated parts must not overflow
    ctx = sr.make_context(np.diag([1.0, 4.0]))
    op = sr.make_operator(ctx, np.diag([1e308, -1e308]))
    rep = sr.bound_report(op)
    assert all(np.isfinite(v) for v in vars(rep).values())
    assert rep.w_exact == pytest.approx(1e308, rel=1e-12, abs=0)


@pytest.mark.parametrize("bottom_row_zero", [False, True])
def test_matrix_bound_report_holds_at_every_scale(bottom_row_zero):
    g = np.random.default_rng(171).normal(size=(2, 4, 2, 2))
    blocks = g[0] + 1j * g[1]
    if bottom_row_zero:
        blocks[2:] = 0.0
    ctx = sr.identity_context(2)
    ref = sr.matrix_bound_report(*(sr.make_operator(ctx, b) for b in blocks))
    for c in SCALES:
        rep = sr.matrix_bound_report(*(sr.make_operator(ctx, c * b) for b in blocks))
        _assert_scaled(rep, ref, c, skip=("t_star_27", "t_star_28"))
        assert rep.t_star_27 == pytest.approx(ref.t_star_27, rel=1e-12, abs=0)
        assert rep.t_star_28 == pytest.approx(ref.t_star_28, rel=1e-12, abs=0)
        assert (rep.lemma24 is None) != bottom_row_zero
        uppers = (rep.lemma24, rep.th25, rep.th27, rep.th28)
        assert rep.w_b_exact <= min(v for v in uppers if v is not None) * (1 + 1e-12)


class TestBracket:
    def test_sandwich_on_random_instances(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            ctx = random_strict_context(rng, n)
            op = random_operator(rng, ctx)
            rep = sr.bound_report(op)
            w = rep.w_exact
            nrm = sr.a_operator_seminorm(op)
            assert rep.sandwich_lower == pytest.approx(0.5 * nrm, abs=1e-12)
            assert rep.sandwich_upper == pytest.approx(nrm, abs=1e-12)
            best_lower = max(rep.lower_21, rep.lower_22, rep.sandwich_lower)
            best_upper = min(rep.upper_hphi, rep.sandwich_upper)
            assert best_lower - 1e-6 <= w <= best_upper + 1e-6


def block_ops(t11, t12, t21, t22, ctx=None):
    mats = [np.asarray(m, dtype=complex) for m in (t11, t12, t21, t22)]
    if ctx is None:
        ctx = sr.identity_context(mats[0].shape[0])
    return tuple(sr.make_operator(ctx, m) for m in mats)


class TestBlockBounds:
    def test_upper_triangular_equality_case(self):
        # T11 = 0 forces the two-term formula to collapse to w(T12)/something
        # checked against the assembled doubled operator
        t12 = np.array([[0.0, 2.0], [0.0, 0.0]])
        zero = np.zeros((2, 2))
        ops = block_ops(zero, t12, zero, zero)
        val = sr.block_bound_lemma24(ops[0], ops[1])
        big = sr.assemble_blocks(*ops)
        wb = sr.a_numerical_radius(big)
        assert val == pytest.approx(0.5 * sr.a_operator_seminorm(ops[1]), abs=1e-10)
        assert val >= wb - 1e-8

    def test_lemma_equality_instance(self):
        # diag top-left plus a corner entry: bound and true radius coincide
        t11 = np.eye(2)
        t12 = np.array([[0.0, 2.0], [0.0, 0.0]])
        zero = np.zeros((2, 2))
        ops = block_ops(t11, t12, zero, zero)
        val = sr.block_bound_lemma24(ops[0], ops[1])
        expect = 0.5 * (1 + np.sqrt(1 + 4))
        assert val == pytest.approx(expect, abs=1e-10)
        big = sr.assemble_blocks(*ops)
        assert sr.a_numerical_radius(big) <= val + 1e-8

    def test_lemma_equality_at_half_norm(self):
        # w(T11) = 1, seminorm of T12 = 1: value (1 + sqrt 2)/2
        t11 = np.eye(2)
        t12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        zero = np.zeros((2, 2))
        ops = block_ops(t11, t12, zero, zero)
        val = sr.block_bound_lemma24(ops[0], ops[1])
        assert val == pytest.approx(0.5 * (1 + np.sqrt(2)), abs=1e-10)

    def test_full_bound_zero_offdiagonal(self):
        # off-diagonal zero: estimate reduces to max of the diagonal radii
        a = np.diag([1.0, -1.0])
        b = np.array([[0.0, 3.0], [0.0, 0.0]])
        zero = np.zeros((2, 2))
        ops = block_ops(a, zero, zero, b)
        val = sr.block_bound_th25(*ops)
        big = sr.assemble_blocks(*ops)
        wb = sr.a_numerical_radius(big)
        assert wb == pytest.approx(1.5, abs=1e-8)
        assert val >= wb - 1e-8
        # here the formula gives w(T11) + w(T22), not the max
        assert val == pytest.approx(1.0 + 1.5, abs=1e-8)

    def test_antidiagonal_equality(self):
        # zero diagonal with antidiagonal identities: value 3/2 exactly,
        # matching the assembled radius
        eye = np.eye(2)
        zero = np.zeros((2, 2))
        ops = block_ops(zero, 2 * eye, eye, zero)
        val = sr.block_bound_th25(*ops)
        big = sr.assemble_blocks(*ops)
        assert val == pytest.approx(1.5, abs=1e-10)
        assert sr.a_numerical_radius(big) == pytest.approx(1.5, abs=1e-8)

    def test_block_bound_dominates_assembled_radius(self, rng):
        for _ in range(10):
            ctx = random_strict_context(rng, 3)
            ops = tuple(random_operator(rng, ctx) for _ in range(4))
            big = sr.assemble_blocks(*ops)
            wb = sr.a_numerical_radius(big)
            assert sr.block_bound_th25(*ops) >= wb - 1e-8
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert sr.block_bound_th27(*ops, t=t) >= wb - 1e-8
                assert sr.block_bound_th28(*ops, t=t) >= wb - 1e-8

    def test_interpolated_bound_golden_example(self):
        # midpoint interpolation on the antidiagonal example: (1 + sqrt 5)/2
        eye = np.eye(2)
        zero = np.zeros((2, 2))
        ops = block_ops(eye, eye, eye, zero)
        val = sr.block_bound_th27(*ops, t=0.5)
        assert val == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-10)
        # strictly better than the non-interpolated estimate at this instance
        assert val < sr.block_bound_th25(*ops) - 1e-10

    def test_t_out_of_range(self):
        eye = np.eye(2)
        zero = np.zeros((2, 2))
        ops = block_ops(eye, eye, eye, zero)
        with pytest.raises(sr.TOutOfRange):
            sr.block_bound_th27(*ops, t=1.5)
        with pytest.raises(sr.TOutOfRange):
            sr.block_bound_th28(*ops, t=-0.1)

    def test_context_mismatch(self, rng):
        c1 = random_strict_context(rng, 2)
        c2 = random_strict_context(rng, 2)
        ops = [random_operator(rng, c1) for _ in range(3)]
        ops.append(random_operator(rng, c2))
        with pytest.raises(sr.ContextMismatch):
            sr.block_bound_th25(*ops)


class TestOptimizeT:
    def test_beats_fixed_probes(self, rng):
        for which in (27, 28):
            for _ in range(6):
                ctx = random_strict_context(rng, 3)
                ops = tuple(random_operator(rng, ctx) for _ in range(4))
                t_star, val = sr.optimize_t(which, *ops)
                assert 0.0 <= t_star <= 1.0
                fn = sr.block_bound_th27 if which == 27 else sr.block_bound_th28
                for t in (0.0, 0.5, 1.0):
                    assert val <= fn(*ops, t=t) + 1e-10
                # closed form: the legs' seminorms set t*, and no t on a
                # dense grid does better
                w11, w22 = (sr.a_numerical_radius(ops[k]) for k in (0, 3))
                n12, n21 = (sr.a_operator_seminorm(ops[k]) for k in (1, 2))
                lead, other, up, down = (
                    (w11, w22, n12, n21) if which == 27 else (w22, w11, n21, n12)
                )
                assert t_star == pytest.approx(up / (up + down), rel=1e-12)
                assert val == pytest.approx(
                    0.5 * lead + other + 0.5 * np.hypot(lead, up + down), rel=1e-12
                )
                assert val == pytest.approx(fn(*ops, t=t_star), rel=1e-12)
                ts = np.linspace(0.0, 1.0, 2001)
                grid = np.min(
                    0.5 * lead
                    + other
                    + 0.5 * np.sqrt((ts * lead) ** 2 + up**2)
                    + 0.5 * np.sqrt(((1 - ts) * lead) ** 2 + down**2)
                )
                assert val <= grid * (1 + 1e-12)
                assert grid - val <= 1e-6 * val

    def test_block_bounds_scan_each_diagonal_block_once(self, rng, monkeypatch):
        ctx = random_strict_context(rng, 3)
        ops = tuple(random_operator(rng, ctx) for _ in range(4))
        rounds = record_angles(monkeypatch)
        sr.block_bound_th25(*ops)
        sr.block_bound_th27(*ops, t=0.3)
        sr.block_bound_th28(*ops, t=0.7)
        sr.optimize_t(27, *ops)
        sr.optimize_t(28, *ops)
        # the cells of T11 and of T22, kept on those operators
        scanned = [cells.c for cells, _ in rounds]
        diagonal = {id(ops[0].compressed), id(ops[3].compressed)}
        assert {id(c) for c in scanned} == diagonal
        angles = [base for cells, base in rounds if cells.c is ops[0].compressed]
        assert len(np.unique(np.concatenate(angles))) == sum(map(len, angles))

    def test_invalid_selector(self, rng):
        ctx = random_strict_context(rng, 2)
        ops = tuple(random_operator(rng, ctx) for _ in range(4))
        with pytest.raises(sr.ValidationError):
            sr.optimize_t(26, *ops)


def test_hphi_bound_at_a_kink():
    # the minimizer sits where the first part has lambda_max = -lambda_min,
    # a kink of its norm, which the refinement models and lands on
    rng = np.random.default_rng(0)
    t = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    op = sr.make_operator(sr.identity_context(3), t)
    upper, phi = sr.upper_bound_hphi(op)
    c = op.compressed

    def objective(phis):
        parts = scan._rotated(c, -np.concatenate((phis, phis + 0.5 * np.pi)))
        lam = np.linalg.eigvalsh(parts)
        norm = np.maximum(lam[:, -1], -lam[:, 0])
        return np.hypot(norm[: len(phis)], norm[len(phis) :])

    lam = np.linalg.eigvalsh(scan._rotated(c, -phi))
    assert abs(lam[-1] + lam[0]) <= 1e-13 * lam[-1]
    reference = dense_min(objective, 0.0, 0.5 * np.pi)
    assert upper <= reference * (1 + 1e-14)
    assert upper >= sr.a_numerical_radius(op)


def hphi_objective(c):
    """hypot(||Re(exp(i phi) C)||, ||Re(exp(i (phi + pi/2)) C)||) at an
    array of angles phi, the objective the H_phi bound minimizes."""

    def objective(phis):
        parts = scan._rotated(c, -np.concatenate((phis, phis + 0.5 * np.pi)))
        lam = np.linalg.eigvalsh(parts)
        norm = np.maximum(lam[:, -1], -lam[:, 0])
        return np.hypot(norm[: len(phis)], norm[len(phis) :])

    return objective


HPHI_CASES = {
    "random_5": lambda rng: random_operator(rng, random_strict_context(rng, 5)),
    "singular_6": lambda rng: sr.make_operator(*singular_pair(rng, 6, 4)),
    # F has two local minima 0.1 apart: the best start point descends to
    # the higher one, 0.3% above the global minimum in the next cell
    "two_minima": lambda rng: sr.make_operator(
        sr.identity_context(3),
        np.diag([-0.9072 - 1.8104j, 1.4335 - 0.4145j, -0.8207 + 1.6531j]),
    ),
}


@pytest.mark.parametrize("make", HPHI_CASES.values(), ids=HPHI_CASES.keys())
def test_hphi_bound_is_the_global_minimum(make):
    # the pruned quarter-turn cells keep the cell of the global minimum:
    # the bound is the least value of the objective over a dense,
    # twice-zoomed reference, and never below the radius
    op = make(np.random.default_rng(17))
    upper, phi = sr.upper_bound_hphi(op)
    objective = hphi_objective(op.compressed)
    reference = dense_min(objective, 0.0, 0.5 * np.pi)
    assert upper <= reference * (1 + 1e-14)
    assert upper >= reference * (1 - 1e-12)
    assert upper == pytest.approx(objective(np.array([phi]))[0], rel=1e-14)
    assert upper >= sr.a_numerical_radius(op) * (1 - 1e-14)


def test_hphi_cell_bound_is_the_objective_at_the_wrap_point(monkeypatch):
    # the last quarter cell runs to pi/2, so its end points are the support
    # points a quarter turn on, turned back: at its end angle the floor's
    # function is the objective itself, never below it
    floors = []
    floor = cells._floor

    def recorded(a, width, groups):
        floors.append((a, width, groups))
        return floor(a, width, groups)

    monkeypatch.setattr(cells, "_floor", recorded)
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        t = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        op = sr.make_operator(sr.identity_context(k), t)
        floors.clear()
        sr.upper_bound_hphi(op)
        unit = cells.operator_cells(op).unit
        objective = hphi_objective(op.compressed)
        assert floors
        for a, width, groups in floors:
            u = a[-1] + width[-1]
            turn = np.exp(-1j * u)
            ends = np.hypot(*[np.max((turn * g[-1]).real) for g in groups])
            # F(u) is the objective at phi = -u
            assert ends * unit == pytest.approx(objective(np.array([-u]))[0], rel=1e-14)


def test_search_whose_splits_add_no_angle_warns(monkeypatch):
    # when no split adds an angle, the search ends on the cells it has; a
    # cell bound that still beats the result is reported, and the result
    # is the objective at the angle returned
    monkeypatch.setattr(cells.Cells, "extend", lambda self, base, names: base)
    op = HPHI_CASES["two_minima"](None)
    with pytest.warns(RuntimeWarning, match="no split adds an angle"):
        upper, phi = sr.upper_bound_hphi(op)
    objective = hphi_objective(op.compressed)
    assert upper == pytest.approx(objective(np.array([phi]))[0], rel=1e-14)
    assert upper >= dense_min(objective, 0.0, 0.5 * np.pi)


RANK_ZERO_CALLS = {
    "lower_bound_21": lambda ops: sr.lower_bound_21(ops[0]),
    "lower_bound_22": lambda ops: sr.lower_bound_22(ops[0]),
    "upper_bound_hphi": lambda ops: sr.upper_bound_hphi(ops[0]),
    "matrix_bound_report": lambda ops: sr.matrix_bound_report(*ops),
    "block_bound_lemma24": lambda ops: sr.block_bound_lemma24(*ops[:2]),
    "block_bound_th25": lambda ops: sr.block_bound_th25(*ops),
    "block_bound_th27": lambda ops: sr.block_bound_th27(*ops, 0.5),
    "block_bound_th28": lambda ops: sr.block_bound_th28(*ops, 0.5),
    "optimize_t_27": lambda ops: sr.optimize_t(27, *ops),
    "optimize_t_28": lambda ops: sr.optimize_t(28, *ops),
    "bound_report": lambda ops: sr.bound_report(ops[0]),
}


@pytest.mark.parametrize("name", sorted(RANK_ZERO_CALLS))
def test_rank_zero_weight_warns_once_at_the_caller(name):
    ctx = sr.make_context(np.zeros((2, 2)))
    ops = [sr.make_operator(ctx, k * np.eye(2)) for k in range(1, 5)]
    with pytest.warns(RuntimeWarning, match="rank 0") as record:
        RANK_ZERO_CALLS[name](ops)
    assert len(record) == 1
    assert record[0].filename == __file__


class TestReports:
    def test_bound_report_fields(self, rng):
        ctx = random_strict_context(rng, 4)
        op = random_operator(rng, ctx)
        rep = sr.bound_report(op)
        assert rep.w_exact == pytest.approx(sr.a_numerical_radius(op), abs=1e-12)
        assert rep.lower_21 == pytest.approx(sr.lower_bound_21(op), abs=1e-12)
        assert 0 <= rep.phi_star < np.pi / 2 + 1e-12
        # the report reads the H_phi bound through upper_bound_hphi itself
        fresh = sr.make_operator(ctx, op.matrix)
        assert (rep.upper_hphi, rep.phi_star) == sr.upper_bound_hphi(fresh)

    def test_matrix_report_lemma_gate(self, rng):
        ctx = random_strict_context(rng, 2)
        t11 = random_operator(rng, ctx)
        t12 = random_operator(rng, ctx)
        zero = sr.make_operator(ctx, np.zeros((2, 2)))
        rep = sr.matrix_bound_report(t11, t12, zero, zero)
        assert rep.lemma24 is not None
        assert rep.lemma24 == pytest.approx(
            sr.block_bound_lemma24(t11, t12), abs=1e-12
        )
        full = sr.matrix_bound_report(t11, t12, t12, t11)
        assert full.lemma24 is None

    @pytest.mark.parametrize("kernel", [0, 1, 2])
    def test_matrix_report_block_radius_matches_assembled(self, rng, kernel):
        for _ in range(4):
            if kernel:
                # t + P X P maps the kernel into itself, as t does
                ctx, t = singular_pair(rng, 4, 4 - kernel)
                p = ctx.projector
                draws = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
                ops = tuple(sr.make_operator(ctx, t + p @ x @ p) for x in draws)
            else:
                ctx = random_strict_context(rng, 4)
                ops = tuple(random_operator(rng, ctx) for _ in range(4))
            rep = sr.matrix_bound_report(*ops)
            wb = sr.a_numerical_radius(sr.assemble_blocks(*ops))
            assert rep.w_b_exact == pytest.approx(wb, rel=1e-10)

    def test_matrix_report_builds_no_context_or_operator(self, rng, monkeypatch):
        ctx = random_strict_context(rng, 3)
        ops = tuple(random_operator(rng, ctx) for _ in range(4))
        built = []
        for module in (semihilbert, bounds):
            for name in ("make_context", "make_operator"):
                monkeypatch.setattr(
                    module, name, lambda *a, _n=name, **kw: built.append(_n)
                )
        for name in ("PositiveOperator", "SemiOperator"):
            monkeypatch.setattr(
                semihilbert, name, lambda *a, _n=name, **kw: built.append(_n)
            )
        rep = sr.matrix_bound_report(*ops)
        assert built == []
        assert rep.w_b_exact > 0.0

    def test_matrix_report_optimized_entries(self, rng):
        ctx = random_strict_context(rng, 2)
        ops = tuple(random_operator(rng, ctx) for _ in range(4))
        rep = sr.matrix_bound_report(*ops)
        t27, v27 = sr.optimize_t(27, *ops)
        assert rep.t_star_27 == pytest.approx(t27, abs=1e-12)
        assert rep.th27 == pytest.approx(v27, abs=1e-12)
        assert rep.th25 == pytest.approx(sr.block_bound_th25(*ops), abs=1e-12)
        assert rep.w_b_exact <= min(rep.th25, rep.th27, rep.th28) + 1e-8


# One n = 200 bound report, printed as JSON, in a fresh interpreter.
_REPORT_N200 = """
import json
import numpy as np
import semirad as sr
rng = np.random.default_rng(200)
g, t = rng.normal(size=(2, 200, 200)) + 1j * rng.normal(size=(2, 200, 200))
ctx = sr.make_context(g @ g.conj().T + 0.05 * np.eye(200))
print(json.dumps(vars(sr.bound_report(sr.make_operator(ctx, t)))))
"""


def test_brackets_hold_at_one_and_two_blas_threads():
    # the last digits may move with the BLAS thread count; the brackets
    # must hold at either count, and the radius agree far below any bound
    src = os.path.dirname(os.path.dirname(os.path.abspath(sr.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    reports = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=path,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        out = subprocess.run(
            [sys.executable, "-c", _REPORT_N200],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        reports.append(json.loads(out.stdout))
    for rep in reports:
        w = rep["w_exact"] * (1 + 1e-12)
        assert max(rep["lower_21"], rep["lower_22"], rep["sandwich_lower"]) <= w
        assert rep["w_exact"] <= min(rep["upper_hphi"], rep["sandwich_upper"]) * (
            1 + 1e-12
        )
    one, two = (rep["w_exact"] for rep in reports)
    assert one == pytest.approx(two, rel=1e-12, abs=0)
