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
