import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semirad as sr
from semirad.linalg import HERM_TOL, as_complex_matrix, require_square


def test_as_complex_matrix_rejects_bad_shapes():
    with pytest.raises(sr.InvalidMatrix):
        as_complex_matrix([1, 2, 3])
    with pytest.raises(sr.InvalidMatrix):
        as_complex_matrix(np.zeros((0, 2)))
    with pytest.raises(sr.InvalidMatrix):
        as_complex_matrix([[np.nan, 1], [0, 1]])


def test_as_complex_matrix_accepts_noncontiguous_views():
    m = (np.arange(9, dtype=np.complex128) + 1j).reshape(3, 3)
    out = as_complex_matrix(m[::-1, ::-1])
    assert out.shape == (3, 3)


CTX2 = sr.make_context(np.eye(2))

# entry point -> (the name its errors give the input, shape index, call)
GATES = {
    "make_context": ("matrix", 2, sr.make_context),
    "make_operator": ("matrix", 2, lambda v: sr.make_operator(CTX2, v)),
    "a_inner": ("vector", 1, lambda v: sr.a_inner(CTX2, [1, 0], v)),
    "a_norm_vec": ("vector", 1, lambda v: sr.a_norm_vec(CTX2, v)),
    "make_polynomial": ("coefficients", 1, sr.make_polynomial),
    "leading_coefficient": (
        "leading coefficient", 0, lambda v: sr.make_polynomial([1, 2], v)
    ),
    "validate_weights": ("weights", 1, lambda v: sr.validate_weights(v, 2)),
}

# fault -> (scalar, vector, matrix)
FAULTS = {
    "str": ("2", ["1", "0"], [["1", "0"], ["0", "1"]]),
    "numpy str": (np.str_("2"), np.array(["1", "2"]), np.eye(2).astype(str)),
    "bool": (True, [True, False], [[True, False], [False, True]]),
    "numpy bool": (np.True_, np.array([True, True]), np.eye(2, dtype=bool)),
    # a bool that numpy types as an integer or an object
    "hidden bool": (
        np.array(True, dtype=object),
        [True, 1],
        np.array([[True, 0], [0, 1]], dtype=object),
    ),
    # a bool that numpy types as a float or a complex number, so that only
    # a walk over the entries finds it
    "bool among floats": ([1.5, True], [1.5, True], [[1.0, True], [True, 2.0]]),
    "bool among complexes": ([1j, True], [1j, True], [[1j, True], [True, 2.0]]),
    "non-number": (None, [None, 1], [[None, 0], [0, 1]]),
    "ragged": ([1, [2, 3]], [1, [2, 3]], [[1, 2], [3]]),
    "too large": (2**1100, [2**1100, 1], [[2**1100, 0], [0, 1]]),
}
REASONS = {"ragged": "ragged nesting", "too large": "number too large for a float"}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("gate", GATES)
def test_input_gates_reject_non_numbers_and_ragged_nestings(gate, fault):
    what, shape, call = GATES[gate]
    reason = REASONS.get(fault, "entries must be numbers")
    with pytest.raises(sr.InvalidMatrix, match=f"^{what}: {reason}"):
        call(FAULTS[fault][shape])


# call -> the start of its error: inputs of the wrong shape, and vectors
# with an entry that is not finite
SHAPE_FAULTS = {
    "spectral_norm-1d": (lambda: sr.spectral_norm(np.ones(3)), "expected a 2-D"),
    "a_inner-2d": (lambda: sr.a_inner(CTX2, [1, 0], [[1, 0]]), "expected a 1-D"),
    "a_norm_vec-2d": (lambda: sr.a_norm_vec(CTX2, [[1], [0]]), "expected a 1-D"),
    "a_inner-nan": (
        lambda: sr.a_inner(CTX2, [np.nan, 0], [1, 0]), "vector entries must be finite"
    ),
    "a_norm_vec-inf": (
        lambda: sr.a_norm_vec(CTX2, [1, np.inf]), "vector entries must be finite"
    ),
    "make_polynomial-2d": (
        lambda: sr.make_polynomial([[1, 2]]), "coefficients must form a 1-D"
    ),
    "validate_weights-2d": (
        lambda: sr.validate_weights([[1, 2]], 2), "weights must form a 1-D"
    ),
}


@pytest.mark.parametrize("fault", SHAPE_FAULTS)
def test_input_gates_reject_wrong_shapes_and_non_finite_vectors(fault):
    call, message = SHAPE_FAULTS[fault]
    with pytest.raises(sr.InvalidMatrix, match=f"^{message}"):
        call()


def test_input_gates_keep_the_bits_of_numeric_input():
    # a list converts as the array of the same numbers does, integers past
    # the int64 range (an object array) included
    values = [3, -2.5, 1 + 0.1j, 2**70]
    arr = np.array(values, dtype=np.complex128)
    assert sr.make_polynomial(values).coefficients.tobytes() == arr.tobytes()
    assert sr.make_polynomial(values[:2], 2**70).leading_coefficient == complex(2**70)
    assert sr.validate_weights([1, 2.5], 2).tobytes() == np.array([1.0, 2.5]).tobytes()
    m = [[2, 1j], [-1j, 1.5]]
    assert (
        sr.make_context(m).matrix.tobytes()
        == sr.make_context(np.array(m)).matrix.tobytes()
        == np.array(m, dtype=np.complex128).tobytes()
    )
    assert sr.a_norm_vec(CTX2, [3, 4]) == sr.a_norm_vec(CTX2, np.array([3.0, 4])) == 5


def test_require_square():
    with pytest.raises(sr.NotSquare):
        require_square(np.zeros((2, 3)))


def test_hermitian_eig_diagonal():
    eig = sr.hermitian_eig(np.diag([3.0, 1.0]))
    assert np.allclose(eig.eigenvalues, [1.0, 3.0])
    # eigenvectors form a permuted identity
    assert np.allclose(np.abs(eig.eigenvectors), [[0, 1], [1, 0]])


def test_hermitian_eig_symmetric_2x2():
    eig = sr.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0])


def test_hermitian_eig_reconstructs_random_8x8():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = g + g.conj().T
    eig = sr.hermitian_eig(m)
    v = eig.eigenvectors
    recon = (v * eig.eigenvalues) @ v.conj().T
    norm = np.linalg.norm(m, 2)
    assert np.linalg.norm(m - recon, 2) <= 1e-10 * (1 + norm)
    assert np.linalg.norm(v.conj().T @ v - np.eye(8), 2) <= 1e-10


def test_hermitian_eig_rejects_asymmetric():
    # the gate is relative: a tiny asymmetric matrix is still rejected
    for scale in (1.0, 1e6, 1e-11, 1e-15):
        with pytest.raises(sr.NotHermitian):
            sr.hermitian_eig(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))
        sr.hermitian_eig(scale * np.array([[2.0, 1j], [-1j, 1.0]]))


def test_hermitian_eig_gates_only_inexact_input(monkeypatch):
    # an input equal to its adjoint entry by entry has no defect, so the
    # gate's two SVDs are skipped; any other input is still gated, relative
    # to its norm
    svd = np.linalg.svd
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    a = np.array([[2.0, 1 - 1j, 0.5], [1 + 1j, 3.0, 0.0], [0.5, 0.0, 1.0]])
    eig = sr.hermitian_eig(a)
    assert calls == []
    assert np.array_equal(eig.eigenvalues, np.linalg.eigh(a)[0])
    norm = np.linalg.norm(a, 2)
    for share, passes in ((0.5, True), (2.0, False)):
        m = a.copy()
        m[0, 2] += share * HERM_TOL * norm  # ||M - M*|| = share * HERM_TOL * ||A||
        if passes:
            sr.hermitian_eig(m)
        else:
            with pytest.raises(sr.NotHermitian):
                sr.hermitian_eig(m)
    assert len(calls) == 4


def test_spectral_norm_basics():
    assert sr.spectral_norm(np.eye(3)) == pytest.approx(1.0)
    assert sr.spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)


@pytest.mark.parametrize("w,c", [(1.0, 0.5), (0.0, 2.0), (3.0, 0.0), (0.7, 1.3)])
def test_spectral_norm_comparison_matrix_closed_form(w, c):
    # [[w, c], [c, 0]] has norm (w + sqrt(w^2 + 4c^2)) / 2
    m = np.array([[w, c], [c, 0.0]])
    assert sr.spectral_norm(m) == pytest.approx(0.5 * (w + np.sqrt(w * w + 4 * c * c)))


def test_spectral_norm_matches_abs_eigenvalues_hermitian():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = g + g.conj().T
        lam = np.linalg.eigvalsh(m)
        assert abs(sr.spectral_norm(m) - np.max(np.abs(lam))) <= 1e-9


def test_context_factors_diagonal():
    ctx = sr.make_context(np.diag([4.0, 0.0]))
    assert np.allclose(ctx.pinv, np.diag([0.25, 0.0]))
    assert ctx.rank == 1
    assert ctx.min_pos_eig == pytest.approx(4.0)


def test_context_factors_identity():
    ctx = sr.make_context(np.eye(4))
    assert np.allclose(ctx.pinv, np.eye(4))
    assert np.allclose(ctx.projector, np.eye(4))
    assert ctx.rank == 4


def test_psd_rejects_indefinite():
    with pytest.raises(sr.NotPSD):
        sr.make_context(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("n", [3, 5, 20, 50])
def test_penrose_identities_random(n):
    rng = np.random.default_rng(n)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    x = sr.make_context(m).pinv
    tol = 1e-8 * (1 + np.linalg.norm(m, 2))
    assert np.linalg.norm(m @ x @ m - m, 2) <= tol
    assert np.linalg.norm(x @ m @ x - x, 2) <= tol
    assert np.linalg.norm((m @ x) - (m @ x).conj().T, 2) <= tol
    assert np.linalg.norm((x @ m) - (x @ m).conj().T, 2) <= tol


def test_rank_cutoff_is_relative():
    # scaling the matrix must not change the rank decision
    m = np.diag([1.0, 1e-14])
    for scale in (1.0, 1e6, 1e-6, 1e-11, 1e-15):
        assert sr.make_context(scale * m).rank == 1


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.1, max_value=100.0), st.integers(min_value=2, max_value=8))
def test_spectral_norm_homogeneous(c, n):
    rng = np.random.default_rng(n)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert sr.spectral_norm(c * m) == pytest.approx(c * sr.spectral_norm(m), rel=1e-12)
