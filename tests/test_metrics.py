import numpy as np
import pytest

from fedgeo import (
    InputError,
    accuracy,
    operator_spectrum,
    pairwise_coherence,
    sensitivity_norm,
)
from fedgeo.metrics import _jacobi_eigh


def test_pairwise_coherence_examples():
    gamma, zero = pairwise_coherence(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert gamma[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert not zero.any()

    gamma, _ = pairwise_coherence(np.array([[1.0, 1.0], [2.0, 2.0]]))
    assert gamma[0, 1] == pytest.approx(1.0, abs=1e-12)

    gamma, _ = pairwise_coherence(np.array([[1.0], [-1.0]]))
    assert gamma[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_pairwise_coherence_structure():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(5, 7))
    gamma, zero = pairwise_coherence(u)
    assert gamma.shape == (5, 5)
    np.testing.assert_array_equal(gamma, gamma.T)
    np.testing.assert_allclose(np.diag(gamma), 1.0, atol=1e-12)
    assert np.all(np.abs(gamma) <= 1.0 + 1e-12)
    assert not zero.any()


def test_pairwise_coherence_zero_rows_flagged():
    u = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    gamma, zero = pairwise_coherence(u)
    np.testing.assert_array_equal(zero, [False, True, False])
    assert np.all(gamma[1, :] == 0.0)
    assert np.all(gamma[:, 1] == 0.0)
    assert gamma[0, 2] == pytest.approx(0.0, abs=1e-12)


def test_pairwise_coherence_matches_brute_force():
    rng = np.random.default_rng(1)
    u = rng.normal(size=(4, 6))
    gamma, _ = pairwise_coherence(u)
    for i in range(4):
        for j in range(4):
            want = u[i] @ u[j] / (np.linalg.norm(u[i]) * np.linalg.norm(u[j]))
            assert gamma[i, j] == pytest.approx(want, abs=1e-12)


def test_sensitivity_norm_examples():
    assert sensitivity_norm(np.array([3.0, 4.0])) == pytest.approx(5.0, abs=1e-12)
    assert sensitivity_norm(np.zeros(4)) == 0.0


def test_jacobi_matches_numpy_on_random_symmetric():
    rng = np.random.default_rng(2)
    for trial in range(50):
        a = rng.normal(size=(8, 8))
        sym = 0.5 * (a + a.T)
        vals, vecs = _jacobi_eigh(sym.copy())
        want = np.linalg.eigvalsh(sym)[::-1]
        np.testing.assert_allclose(vals, want, atol=1e-9)
        # eigenvalue sum reproduces the trace
        assert abs(vals.sum() - np.trace(sym)) < 1e-9
        # full reconstruction from the eigenpairs
        rebuilt = vecs @ np.diag(vals) @ vecs.T
        assert np.linalg.norm(rebuilt - sym) < 1e-8
        # orthonormal eigenvectors
        gram = vecs.T @ vecs
        assert np.max(np.abs(gram - np.eye(8))) < 1e-9


def test_jacobi_handles_repeated_eigenvalues():
    vals, vecs = _jacobi_eigh(np.eye(3))
    np.testing.assert_allclose(vals, [1.0, 1.0, 1.0], atol=1e-12)
    rebuilt = vecs @ np.diag(vals) @ vecs.T
    np.testing.assert_allclose(rebuilt, np.eye(3), atol=1e-12)


def test_jacobi_diagonal_is_sorted_descending():
    d = np.diag([-2.0, 5.0, 1.0])
    vals, _ = _jacobi_eigh(d.copy())
    np.testing.assert_allclose(vals, [5.0, 1.0, -2.0], atol=1e-15)


def test_operator_spectrum_known_matrix():
    t = np.array([[2.0, 1.0], [1.0, 2.0]])
    vals = operator_spectrum(t)
    np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-10)


def test_operator_spectrum_symmetrizes_mild_asymmetry():
    t = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
    vals = operator_spectrum(t)
    np.testing.assert_allclose(vals, [1.5, 0.5], atol=1e-9)


def test_operator_spectrum_rejects_bad_input():
    with pytest.raises(InputError):
        operator_spectrum(np.array([[1.0, 5.0], [0.0, 1.0]]))  # too skew
    with pytest.raises(InputError):
        operator_spectrum(np.ones((2, 3)))  # not square


def test_operator_spectrum_size_limit():
    # the limit itself is accepted (an identity needs no Jacobi rotation)
    np.testing.assert_array_equal(operator_spectrum(np.eye(128)), np.ones(128))
    with pytest.raises(InputError, match="at most 128"):
        operator_spectrum(np.eye(129))


def test_accuracy_counting_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, c = 30, 4
        logits = rng.normal(size=(n, c))
        labels = rng.integers(0, c, size=n)
        mask = rng.random(n) < 0.5
        if not mask.any():
            mask[0] = True
        hits = sum(
            1 for i in range(n)
            if mask[i] and int(np.argmax(logits[i])) == labels[i]
        )
        want = hits / int(mask.sum())
        assert accuracy(logits[mask], labels[mask]) == pytest.approx(want, abs=1e-12)


def test_accuracy_tie_breaks_to_lowest_class():
    logits = np.array([[1.0, 1.0, 0.0]])
    assert accuracy(logits, np.array([0])) == 1.0
    assert accuracy(logits, np.array([1])) == 0.0


def test_accuracy_empty_mask_rejected():
    with pytest.raises(InputError):
        accuracy(np.zeros((0, 2)), np.zeros(0, dtype=int))
