import numpy as np
import pytest

from qid._kernels import jacobi_eigh
from qid.errors import CapacityError, DimensionError, ValidationError
from qid.operators import (
    Projector,
    ket_bra,
    operator_norm,
    tensor,
    validate_state,
)
from qid.protocol import basis_table

from helpers import partial_trace, permutation_matrix, random_complex, random_projector

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class TestTensor:
    def test_identity_factors(self):
        np.testing.assert_array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_ordering(self):
        out = tensor(ket_bra(basis_table("Z", 1)[0]), ket_bra(basis_table("Z", 1)[1]))
        np.testing.assert_array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_hadamard_pair_gives_uniform_amplitudes(self):
        state = tensor(HADAMARD, HADAMARD) @ basis_table("Z", 2)[0].reshape(4, 1)
        np.testing.assert_allclose(state.ravel(), np.full(4, 0.5))

    def test_associativity_is_exact(self):
        rng = np.random.default_rng(11)
        a, b, c = (
            rng.integers(-4, 5, size=(3, 3)) + 1j * rng.integers(-4, 5, size=(3, 3))
            for _ in range(3)
        )
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        np.testing.assert_array_equal(left, right)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            tensor(np.eye(128), np.eye(128))

    def test_rejects_no_factors(self):
        with pytest.raises(ValueError, match="at least one factor"):
            tensor()


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a = random_complex(rng, (3, 3))
            b = random_complex(rng, (4, 4))
            out = partial_trace(tensor(a, b), (3, 4), keep=[0])
            np.testing.assert_allclose(out, a * np.trace(b), atol=1e-9)

    def test_epr_reduction_is_maximally_mixed(self):
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        out = partial_trace(ket_bra(phi), (2, 2), keep=[0])
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-15)

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(3)
        m = random_complex(rng, (6, 6))
        np.testing.assert_array_equal(partial_trace(m, (2, 3), keep=[0, 1]), m)

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        m = random_complex(rng, (8, 8))
        out = partial_trace(m, (2, 2, 2), keep=[1])
        assert abs(np.trace(out) - np.trace(m)) < 1e-12


class TestOperatorNorm:
    def test_projector_norm_is_one(self):
        p = random_projector(np.random.default_rng(5), 6, 2)
        assert abs(operator_norm(p) - 1.0) < 1e-12

    def test_agrees_with_eigensystem_route(self):
        # Two different LAPACK routines: SVD of A here, the Hermitian
        # eigensolver on A^dag A as the cross-check.
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = random_complex(rng, (7, 7))
            vals, _ = jacobi_eigh(a.conj().T @ a)
            np.testing.assert_allclose(operator_norm(a), np.sqrt(vals[0]), atol=1e-9)

    def test_submultiplicative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_complex(rng, (5, 5))
            b = random_complex(rng, (5, 5))
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-9


class TestEigensystem:
    """The eigensolver behind ``support_projector``."""

    def test_diagonal_case_sorted_descending(self):
        vals, _ = jacobi_eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert vals.tolist() == [3.0, 2.0, 1.0]

    def test_conjugate_basis_projector(self):
        xbar0 = np.array([1, 1], dtype=complex) / np.sqrt(2)
        vals, vecs = jacobi_eigh(ket_bra(xbar0))
        np.testing.assert_allclose(vals, [1.0, 0.0], atol=1e-12)
        top = vecs[:, 0]
        np.testing.assert_allclose(np.abs(top), np.abs(xbar0), atol=1e-12)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(8)
        g = random_complex(rng, (8, 8))
        h = (g + g.conj().T) / 2
        vals, vecs = jacobi_eigh(h)
        np.testing.assert_allclose((vecs * vals) @ vecs.conj().T, h, atol=1e-8)
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(8), atol=1e-9)


class TestValidateState:
    def test_maximally_mixed_qubit_passes(self):
        validate_state(np.eye(2) / 2)

    def test_valid_state_passes(self):
        validate_state(np.eye(4) / 4)

    def test_constructed_violation(self):
        # Unit trace, Hermitian, and an eigenvalue of -0.5: the message gives each deviation.
        with pytest.raises(
            ValidationError,
            match="hermitian dev 0.000e[+]00, trace dev 0.000e[+]00, negative part 5.000e-01",
        ):
            validate_state(np.diag([1.5, -0.5]))

    def test_needs_square_input(self):
        with pytest.raises(DimensionError):
            validate_state(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "m",
        [np.eye(2), np.diag([1.5, -0.5]), np.array([[0.5, 0.5], [0.0, 0.5]])],
        ids=["bad_trace", "not_psd", "not_hermitian"],
    )
    def test_rejects_invalid_state(self, m):
        with pytest.raises(ValidationError, match="invalid density operator"):
            validate_state(m)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValidationError, match="non-finite"):
            validate_state(np.diag([1.0, np.nan]))


class TestProjector:
    def test_eigenvalues_are_zero_or_one(self):
        rng = np.random.default_rng(9)
        for rank in (1, 2, 5):
            p = Projector(random_projector(rng, 6, rank))
            vals, _ = jacobi_eigh(p.mat)
            np.testing.assert_allclose(
                vals, [1.0] * rank + [0.0] * (6 - rank), atol=1e-8
            )
            assert np.trace(p.mat).real == pytest.approx(rank)

    def test_holds_a_read_only_copy(self):
        m = np.diag([1.0, 0.0]).astype(complex)
        p = Projector(m)
        assert not np.shares_memory(p.mat, m)
        with pytest.raises(ValueError):
            p.mat[0, 0] = 0.0

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValidationError):
            Projector(np.eye(2) * 0.5)

    def test_rejects_non_hermitian_idempotent(self):
        m = np.array([[1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(m @ m, m)
        with pytest.raises(ValidationError, match="not Hermitian"):
            Projector(m)

    def test_needs_square_input(self):
        with pytest.raises(DimensionError):
            Projector(np.ones((2, 3)))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValidationError, match="non-finite"):
            Projector(np.diag([1.0, np.nan]))


def test_permutation_matrix_swaps_factors():
    rng = np.random.default_rng(10)
    a = random_complex(rng, (2, 2))
    b = random_complex(rng, (3, 3))
    p = permutation_matrix((2, 3), (1, 0))
    np.testing.assert_allclose(p @ tensor(a, b) @ p.conj().T, tensor(b, a), atol=1e-12)
