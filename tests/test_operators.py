import numpy as np
import pytest

from qid.errors import CapacityError, DimensionError, ValidationError
from qid.operators import (
    DensityOperator,
    Projector,
    basis_ket,
    dagger,
    hermitian_eigensystem,
    ket_bra,
    operator_norm,
    partial_trace,
    permutation_matrix,
    tensor,
    validate_state,
)

from helpers import random_complex, random_density, random_projector

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class TestTensor:
    def test_identity_factors(self):
        np.testing.assert_array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_ordering(self):
        out = tensor(ket_bra(basis_ket(0, 2)), ket_bra(basis_ket(1, 2)))
        np.testing.assert_array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_hadamard_pair_gives_uniform_amplitudes(self):
        state = tensor(HADAMARD, HADAMARD) @ basis_ket(0, 4).reshape(4, 1)
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

    def test_bad_keep_rejected(self):
        with pytest.raises(DimensionError):
            partial_trace(np.eye(4), (2, 2), keep=[])
        with pytest.raises(DimensionError):
            partial_trace(np.eye(4), (2, 2), keep=[2])
        with pytest.raises(DimensionError):
            partial_trace(np.eye(4), (2, 3), keep=[0])


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
            vals, _ = hermitian_eigensystem(dagger(a) @ a)
            np.testing.assert_allclose(operator_norm(a), np.sqrt(vals[0]), atol=1e-9)

    def test_submultiplicative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_complex(rng, (5, 5))
            b = random_complex(rng, (5, 5))
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-9


class TestEigensystem:
    def test_diagonal_case_sorted_descending(self):
        vals, _ = hermitian_eigensystem(np.diag([3.0, 1.0, 2.0]))
        assert vals.tolist() == [3.0, 2.0, 1.0]

    def test_conjugate_basis_projector(self):
        xbar0 = np.array([1, 1], dtype=complex) / np.sqrt(2)
        vals, vecs = hermitian_eigensystem(ket_bra(xbar0))
        np.testing.assert_allclose(vals, [1.0, 0.0], atol=1e-12)
        top = vecs[:, 0]
        np.testing.assert_allclose(np.abs(top), np.abs(xbar0), atol=1e-12)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(8)
        g = random_complex(rng, (8, 8))
        h = (g + dagger(g)) / 2
        vals, vecs = hermitian_eigensystem(h)
        np.testing.assert_allclose((vecs * vals) @ dagger(vecs), h, atol=1e-8)
        np.testing.assert_allclose(dagger(vecs) @ vecs, np.eye(8), atol=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestValidateState:
    def test_maximally_mixed_qubit_passes(self):
        report = validate_state(np.eye(2) / 2)
        assert report.passed

    def test_constructed_violation(self):
        report = validate_state(np.diag([1.5, -0.5]))
        assert not report.psd_ok
        assert report.trace_ok
        assert abs(report.psd_violation - 0.5) < 1e-12

    def test_needs_square_input(self):
        with pytest.raises(DimensionError):
            validate_state(np.ones((2, 3)))


class TestDensityOperator:
    def test_valid_construction_and_immutability(self):
        rho = DensityOperator(np.eye(4) / 4, (2, 2))
        assert rho.dim == 4
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 1.0

    def test_read_only_input_is_taken_over_without_a_copy(self):
        m = np.eye(2, dtype=complex) / 2
        m.setflags(write=False)
        assert DensityOperator(m, (2,)).mat is m

    def test_memory_the_caller_can_write_is_copied(self):
        writable = np.eye(2, dtype=complex) / 2
        view = writable[:]
        view.setflags(write=False)  # read-only, but writable through its base
        for m in (writable, view):
            rho = DensityOperator(m, (2,))
            assert not np.shares_memory(rho.mat, writable)
            assert not rho.mat.flags.writeable

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.eye(2), (2,))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(DimensionError):
            DensityOperator(np.eye(4) / 4, (2, 3))

    def test_ptrace(self):
        rho = DensityOperator(np.eye(4) / 4, (2, 2))
        np.testing.assert_allclose(rho.ptrace([1]).mat, np.eye(2) / 2)


class TestProjector:
    def test_eigenvalues_are_zero_or_one(self):
        rng = np.random.default_rng(9)
        for rank in (1, 2, 5):
            p = Projector(random_projector(rng, 6, rank), (6,))
            vals, _ = hermitian_eigensystem(p.mat)
            np.testing.assert_allclose(
                vals, [1.0] * rank + [0.0] * (6 - rank), atol=1e-8
            )
            assert p.rank == rank

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValidationError):
            Projector(np.eye(2) * 0.5, (2,))


def test_permutation_matrix_swaps_factors():
    rng = np.random.default_rng(10)
    a = random_complex(rng, (2, 2))
    b = random_complex(rng, (3, 3))
    p = permutation_matrix((2, 3), (1, 0))
    np.testing.assert_allclose(p @ tensor(a, b) @ dagger(p), tensor(b, a), atol=1e-12)
