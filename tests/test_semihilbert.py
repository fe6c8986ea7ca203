import numpy as np
import pytest

import semirad as sr
from conftest import random_operator, random_strict_context, singular_pair


def test_make_context_identity():
    ctx = sr.identity_context(3)
    assert ctx.strictly_positive
    assert ctx.rank == 3
    assert ctx.min_pos_eig == pytest.approx(1.0)
    assert np.allclose(ctx.pinv, np.eye(3))


def test_make_context_rank_deficient():
    ctx = sr.make_context(np.diag([1.0, 0.0]))
    assert ctx.rank == 1
    assert not ctx.strictly_positive
    assert np.allclose(ctx.projector, np.diag([1.0, 0.0]))


def test_make_context_diagonal_weights():
    ctx = sr.make_context(np.diag([2.0, 1.0, 2.0, 1 / 3, 1.0]))
    assert ctx.strictly_positive
    assert ctx.min_pos_eig == pytest.approx(1 / 3)


def test_make_context_rejects():
    with pytest.raises(sr.NotPSD):
        sr.make_context(np.diag([1.0, -0.5]))
    with pytest.raises(sr.NotHermitian):
        sr.make_context(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(sr.NotSquare):
        sr.make_context(np.zeros((2, 3)))


def test_a_inner_identity_reduces_to_standard():
    ctx = sr.identity_context(2)
    x = np.array([1 + 1j, 2.0])
    y = np.array([0.5, -1j])
    assert sr.a_inner(ctx, x, y) == pytest.approx(np.vdot(y, x))


def test_a_inner_kernel_vector():
    ctx = sr.make_context(np.diag([1.0, 0.0]))
    assert sr.a_inner(ctx, [0, 1], [0, 1]) == 0
    assert sr.a_norm_vec(ctx, [0, 5]) == 0.0


def test_a_inner_conjugate_symmetric_and_psd(rng):
    ctx = random_strict_context(rng, 4)
    for _ in range(20):
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        y = rng.normal(size=4) + 1j * rng.normal(size=4)
        lhs = sr.a_inner(ctx, x, y)
        rhs = np.conj(sr.a_inner(ctx, y, x))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
        assert sr.a_inner(ctx, x, x).real >= 0


def test_a_norm_vec_values():
    assert sr.a_norm_vec(sr.identity_context(2), [3.0, 4.0]) == pytest.approx(5.0)
    ctx = sr.make_context(np.diag([2.0, 1.0, 2.0, 1 / 3, 1.0]))
    e1 = np.eye(5)[0]
    assert sr.a_norm_vec(ctx, e1) == pytest.approx(np.sqrt(2))


def test_a_inner_dimension_mismatch():
    ctx = sr.identity_context(3)
    with pytest.raises(sr.DimensionMismatch):
        sr.a_inner(ctx, [1, 2], [1, 2, 3])


def test_make_operator_rejects_swap_on_rank_one_weight():
    ctx = sr.make_context(np.diag([0.0, 1.0]))
    with pytest.raises(sr.NotAAdjointable) as err:
        sr.make_operator(ctx, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert "not A-adjointable" in str(err.value)


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e6])
def test_make_operator_rejects_leak_behind_small_eigenvalue(c):
    # T*A = [[1, 0, 0], [0, 1, 0], [0, 1e-7, 0]] has 1e-7 of its norm
    # outside R(A); A's small eigenvalue must not hide it
    ctx = sr.make_context(c * np.diag([1.0, 1e-3, 0.0]))
    t = np.array([[1.0, 0.0, 0.0], [0.0, 1e3, 1e-4], [0.0, 0.0, 0.0]])
    with pytest.raises(sr.NotAAdjointable):
        sr.make_operator(ctx, t)


def test_make_operator_rejects_overflowing_compressed_matrix():
    # A and T are finite, but L^(-1/2) lifts T's one entry past the float
    # range; a C of inf and nan would report NaN radii and a 0 Crawford
    ctx = sr.make_context(np.diag([1.0, 1e-9]))
    with pytest.raises(sr.NumericalFailure, match="not finite"):
        sr.make_operator(ctx, np.array([[0.0, 1e307], [0.0, 0.0]]))


def test_make_operator_builds_a_finite_c_near_the_float_limit():
    # A = diag(1, 4) gives L^(1/2) = diag(1, 2): scaling the second row by 2
    # before dividing its column by 2 overflowed, though C = T is finite
    ctx = sr.make_context(np.diag([1.0, 4.0]))
    t = np.diag([1e308, -1e308])
    op = sr.make_operator(ctx, t)
    np.testing.assert_array_equal(np.abs(op.compressed), np.abs(t))
    assert sr.a_operator_seminorm(op) == 1e308


def test_scale_operator_rejects_overflow():
    # finite T and a finite factor, but c T is past the float range; the
    # radius of such an operator read NaN
    op = sr.make_operator(sr.identity_context(2), np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(sr.NumericalFailure, match="not finite"):
        sr.scale_operator(op, 1e308)
    assert sr.a_numerical_radius(sr.scale_operator(op, 1e307)) > 1e307


def test_add_operators_rejects_overflow():
    op = sr.make_operator(
        sr.identity_context(2), np.array([[1e308, 0.0], [0.0, -1e308]])
    )
    with pytest.raises(sr.NumericalFailure, match="not finite"):
        sr.add_operators(op, op)
    assert np.all(sr.add_operators(op, sr.scale_operator(op, -1.0)).compressed == 0)


def test_make_operator_accepts_anything_on_zero_weight(rng):
    ctx = sr.make_context(np.zeros((3, 3)))
    assert ctx.rank == 0 and ctx.kernel_basis.shape == (3, 3)
    op = sr.make_operator(ctx, rng.normal(size=(3, 3)))
    assert op.compressed.shape == (0, 0)


def _adjointable(a, t):
    try:
        sr.make_operator(sr.make_context(a), t)
    except sr.NotAAdjointable:
        return False
    return True


@pytest.mark.parametrize(
    "kernel, leak", [(1, 0.0), (2, 0.0), (3, 0.0), (1, 1e-6), (2, 1e-6), (3, 1e-6)]
)
def test_adjointability_verdict_is_scale_and_basis_free(rng, kernel, leak):
    for _ in range(3):
        ctx, t = singular_pair(rng, 6, 6 - kernel, leak)
        a = ctx.matrix
        assert _adjointable(a, t) == (leak == 0.0)
        for c in (1e-15, 1e-9, 1.0, 1e6):
            assert _adjointable(c * a, t) == (leak == 0.0)
            assert _adjointable(a, c * t) == (leak == 0.0)
            assert _adjointable(c * a, c * t) == (leak == 0.0)
        u, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        uh = u.conj().T
        assert _adjointable(u @ a @ uh, u @ t @ uh) == (leak == 0.0)


@pytest.mark.parametrize("kernel", [0, 2])
def test_full_space_matrices_are_built_only_when_read(rng, kernel):
    if kernel:
        ctx, t = singular_pair(rng, 4, 4 - kernel)
        p = ctx.projector
        ctx = sr.make_context(ctx.matrix)
        draws = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        ops = [sr.make_operator(ctx, m) for m in (t, *(t + p @ x @ p for x in draws))]
    else:
        ctx = random_strict_context(rng, 4)
        ops = [random_operator(rng, ctx) for _ in range(4)]
    sr.bound_report(ops[0])
    sr.estimate_range(ops[1])
    sr.matrix_bound_report(*ops)
    for op in ops:
        assert "adjoint" not in vars(op)
    assert "pinv" not in vars(ctx) and "projector" not in vars(ctx)

    def close(x, y):
        return np.linalg.norm(x - y, 2) <= 1e-12 * np.linalg.norm(y, 2)

    a = ctx.matrix
    pinv = np.linalg.pinv(a, rcond=1e-10, hermitian=True)
    q = ctx.range_basis
    assert close(ctx.pinv, pinv)
    assert close(ctx.projector, q @ q.conj().T)
    for op in ops:
        assert close(op.adjoint, pinv @ op.matrix.conj().T @ a)
    c = 0.3 - 1.7j
    assert close(sr.scale_operator(ops[0], c).adjoint, np.conj(c) * ops[0].adjoint)
    both = sr.add_operators(ops[0], ops[1])
    assert close(both.adjoint, ops[0].adjoint + ops[1].adjoint)


def test_make_operator_identity_weight_gives_conjugate_transpose(rng):
    ctx = sr.identity_context(4)
    t = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    op = sr.make_operator(ctx, t)
    assert np.allclose(op.adjoint, t.conj().T)
    q = ctx.range_basis
    assert np.allclose(op.compressed, q.conj().T @ t @ q)


def test_make_operator_dimension_mismatch():
    with pytest.raises(sr.DimensionMismatch):
        sr.make_operator(sr.identity_context(3), np.eye(2))


def test_adjoint_defining_equation(rng):
    for k in range(10):
        n = int(rng.integers(2, 6))
        ctx = random_strict_context(rng, n)
        op = random_operator(rng, ctx)
        a = ctx.matrix
        tol = 1e-8 * (1 + np.linalg.norm(a, 2) * np.linalg.norm(op.matrix, 2))
        assert np.linalg.norm(a @ op.adjoint - op.matrix.conj().T @ a, 2) <= tol


def test_adjoint_equation_on_singular_weights(rng):
    for k in range(10):
        n = int(rng.integers(3, 7))
        r = int(rng.integers(1, n))
        ctx, t = singular_pair(rng, n, r)
        op = sr.make_operator(ctx, t)
        a = ctx.matrix
        tol = 1e-8 * (1 + np.linalg.norm(a, 2) * np.linalg.norm(t, 2))
        assert np.linalg.norm(a @ op.adjoint - t.conj().T @ a, 2) <= tol


def test_double_adjoint_is_projected_operator(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n + 1))
        if r == n:
            ctx = random_strict_context(rng, n)
            op = random_operator(rng, ctx)
        else:
            ctx, t = singular_pair(rng, n, r)
            op = sr.make_operator(ctx, t)
        p = ctx.projector
        twice = sr.adjoint_operator(sr.adjoint_operator(op)).matrix
        assert np.linalg.norm(twice - p @ op.matrix @ p, 2) <= 1e-8 * (
            1 + np.linalg.norm(op.matrix, 2)
        )


def test_product_adjoint_reverses(rng):
    ctx = random_strict_context(rng, 5)
    s = random_operator(rng, ctx)
    t = random_operator(rng, ctx)
    ts = sr.make_operator(ctx, t.matrix @ s.matrix)
    scale = 1 + np.linalg.norm(ts.matrix, 2) * np.linalg.norm(ctx.matrix, 2)
    assert np.linalg.norm(ts.adjoint - s.adjoint @ t.adjoint, 2) <= 1e-8 * scale


def test_seminorm_identity_weight_is_spectral_norm(rng):
    ctx = sr.identity_context(4)
    t = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    op = sr.make_operator(ctx, t)
    assert sr.a_operator_seminorm(op) == pytest.approx(np.linalg.norm(t, 2))


def test_seminorm_c_star_identity(rng):
    # ||adjoint(T) T||_A = ||T||_A^2
    for _ in range(10):
        n = int(rng.integers(2, 6))
        ctx = random_strict_context(rng, n)
        op = random_operator(rng, ctx)
        prod = sr.make_operator(ctx, op.adjoint @ op.matrix)
        nrm = sr.a_operator_seminorm(op)
        assert sr.a_operator_seminorm(prod) == pytest.approx(nrm * nrm, abs=1e-8 * (1 + nrm * nrm))


def test_seminorm_equals_adjoint_seminorm(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        ctx = random_strict_context(rng, n)
        op = random_operator(rng, ctx)
        assert sr.a_operator_seminorm(op) == pytest.approx(
            sr.a_operator_seminorm(sr.adjoint_operator(op)), abs=1e-8
        )


def test_seminorm_submultiplicative_and_vector_bound(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        ctx = random_strict_context(rng, n)
        s = random_operator(rng, ctx)
        t = random_operator(rng, ctx)
        st_op = sr.make_operator(ctx, s.matrix @ t.matrix)
        assert sr.a_operator_seminorm(st_op) <= sr.a_operator_seminorm(
            s
        ) * sr.a_operator_seminorm(t) + 1e-8
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert sr.a_norm_vec(ctx, t.matrix @ x) <= sr.a_operator_seminorm(
            t
        ) * sr.a_norm_vec(ctx, x) + 1e-8


def test_seminorm_monte_carlo_oracle(rng):
    for k in range(5):
        n = int(rng.integers(2, 7))
        ctx = random_strict_context(rng, n)
        op = random_operator(rng, ctx)
        nrm = sr.a_operator_seminorm(op)
        mc = sr.monte_carlo_seminorm(op, samples=100_000, seed=k)
        assert mc <= nrm + 1e-8
        assert mc >= nrm - 1e-3 * (1 + nrm)


def test_re_im_identity_weight():
    ctx = sr.identity_context(2)
    op = sr.make_operator(ctx, np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert np.allclose(sr.re_a(op).matrix, np.array([[0, 1], [1, 0]]))
    assert np.allclose(sr.im_a(op).matrix, np.array([[0, -1j], [1j, 0]]))


def test_re_im_diagonal_example():
    ctx = sr.identity_context(2)
    op = sr.make_operator(ctx, np.diag([1 + 1j, 2 + 1j]))
    assert np.allclose(sr.re_a(op).matrix, np.diag([1.0, 2.0]))
    assert np.allclose(sr.im_a(op).matrix, np.diag([1.0, 1.0]))


def test_re_im_reassemble_on_range(rng):
    for _ in range(8):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, n + 1))
        if r == n:
            ctx = random_strict_context(rng, n)
            op = random_operator(rng, ctx)
        else:
            ctx, t = singular_pair(rng, n, r)
            op = sr.make_operator(ctx, t)
        p = ctx.projector
        recon = sr.re_a(op).matrix + 1j * sr.im_a(op).matrix
        lhs = p @ recon @ p
        rhs = p @ op.matrix @ p
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-8 * (1 + np.linalg.norm(op.matrix, 2))


def test_re_a_is_a_selfadjoint(rng):
    for _ in range(8):
        n = int(rng.integers(2, 6))
        ctx = random_strict_context(rng, n)
        op = random_operator(rng, ctx)
        assert sr.is_a_selfadjoint(sr.re_a(op))
        assert sr.is_a_selfadjoint(sr.im_a(op))
        im_of_selfadjoint = sr.im_a(sr.re_a(op))
        p = ctx.projector
        assert np.linalg.norm(p @ im_of_selfadjoint.matrix @ p, 2) <= 1e-8


def test_is_a_positive(rng):
    ctx = random_strict_context(rng, 4)
    op = random_operator(rng, ctx)
    gram = sr.make_operator(ctx, op.adjoint @ op.matrix)
    assert sr.is_a_positive(gram)
    assert not sr.is_a_positive(sr.make_operator(ctx, -gram.matrix))


@pytest.mark.parametrize("c", [1e-15, 1e-9, 1.0, 1e6])
def test_selfadjoint_and_positive_gates_ignore_weight_scale(c):
    # A -> cA, and T -> sT for s > 0, cannot change whether A T is
    # Hermitian or PSD
    ctx = sr.make_context(c * np.diag([2.0, 1.0, 0.5]))
    e12 = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    t = sr.make_operator(ctx, [[1, 2j, 0], [0.5, -1, 3], [1j, 0, 2]])
    for s in (1e-12, 1.0):
        shift = sr.make_operator(ctx, s * e12)
        assert not sr.is_a_selfadjoint(shift)
        assert not sr.is_a_positive(shift)
        gram = sr.make_operator(ctx, s * t.adjoint @ t.matrix)
        assert sr.is_a_selfadjoint(gram)
        assert sr.is_a_positive(gram)
        assert not sr.is_a_positive(sr.scale_operator(gram, -1.0))


def test_is_a_unitary_rotation():
    ctx = sr.identity_context(2)
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert sr.is_a_unitary(sr.make_operator(ctx, rot))
    assert not sr.is_a_unitary(sr.make_operator(ctx, 2 * rot))


def test_is_a_unitary_is_a_full_space_test():
    # C = [1] is unitary, but T T# P = [[1, 0], [1, 0]] is not P
    ctx = sr.make_context(np.diag([1.0, 0.0]))
    op = sr.make_operator(ctx, np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert np.allclose(op.compressed, [[1.0]])
    assert not sr.is_a_unitary(op)


def test_swap_is_unitary_for_doubled_weight(rng):
    a = random_strict_context(rng, 3).matrix
    zero = np.zeros_like(a)
    doubled = sr.make_context(np.block([[a, zero], [zero, a]]))
    eye = np.eye(3)
    swap = np.block([[zero, eye], [eye, zero]])
    assert sr.is_a_unitary(sr.make_operator(doubled, swap))


def test_scale_operator_consistency(rng):
    ctx = random_strict_context(rng, 4)
    op = random_operator(rng, ctx)
    c = 1.3 - 0.4j
    scaled = sr.scale_operator(op, c)
    rebuilt = sr.make_operator(ctx, c * op.matrix)
    assert np.allclose(scaled.adjoint, rebuilt.adjoint)
    assert np.allclose(scaled.compressed, rebuilt.compressed)


def test_context_mismatch_detected(rng):
    ctx1 = random_strict_context(rng, 3)
    ctx2 = random_strict_context(rng, 3)
    op1 = random_operator(rng, ctx1)
    op2 = random_operator(rng, ctx2)
    with pytest.raises(sr.ContextMismatch):
        sr.add_operators(op1, op2)
