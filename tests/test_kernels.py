import numpy as np
import pytest

from qid._kernels import jacobi_eigh

from helpers import random_hermitian


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 16, 33, 64])
def test_matches_lapack_eigenvalues(dim):
    rng = np.random.default_rng(100 + dim)
    h = random_hermitian(rng, dim)
    vals, _ = jacobi_eigh(h)
    ref = np.sort(np.linalg.eigvalsh(h))[::-1]
    np.testing.assert_allclose(vals, ref, atol=1e-10 * max(1.0, dim))


@pytest.mark.parametrize("dim", [2, 8, 32])
def test_eigenvector_contract(dim):
    rng = np.random.default_rng(200 + dim)
    h = random_hermitian(rng, dim)
    vals, vecs = jacobi_eigh(h)
    assert np.all(np.diff(vals) <= 1e-12)
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(dim), atol=1e-9)
    np.testing.assert_allclose(h @ vecs, vecs * vals, atol=1e-8)
    np.testing.assert_allclose((vecs * vals) @ vecs.conj().T, h, atol=1e-8)


def test_diagonal_input_is_exact():
    vals, vecs = jacobi_eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert vals.tolist() == [3.0, 2.0, 1.0]
    np.testing.assert_array_equal(np.abs(vecs), np.eye(3)[:, [0, 2, 1]])


def test_zero_matrix():
    vals, vecs = jacobi_eigh(np.zeros((4, 4), dtype=complex))
    assert vals.tolist() == [0.0] * 4
    np.testing.assert_array_equal(vecs, np.eye(4))
