import re

import numpy as np
import pytest

from qid.channels import (
    QuantumChannel,
    apply_channel_to_vector_raw,
    isometry_to_channel,
    matrix_from_pairs,
    validate_channel,
    vector_marginals,
)
from qid.errors import DimensionError, ValidationError
from qid.operators import basis_ket, ket_bra, tensor
from qid.protocol import ProtocolInstance, encode, epr_state, equivalence_check, theta_matrix

from helpers import (
    apply_kraus,
    pairs,
    partial_trace,
    random_complex,
    random_density,
    random_isometry_channel,
)

CHANNEL_TOL = 1e-9


class TestApplyChannel:
    """Library channels on mixed states, through the Kraus oracle ``helpers.apply_kraus``."""

    def test_identity_attack_appends_fixed_environment(self, channel):
        ch = channel("identity", 1)
        out = apply_kraus(ch, np.diag([1.0, 0.0]))
        expected = tensor(np.diag([1.0, 0.0]), ket_bra(basis_ket(0, 2)))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_cnot_probe_makes_bell_pair_from_conjugate_input(self, channel):
        # Direct 4x4 oracle: CNOT maps |plus,0> to (|00>+|11>)/sqrt(2).
        ch = channel("cnot_probe", 1)
        xbar0 = np.array([1, 1], dtype=complex) / np.sqrt(2)
        out = apply_kraus(ch, ket_bra(xbar0))
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(out, ket_bra(bell), atol=1e-12)

    def test_full_depolarization_erases_input(self):
        from qid.attacks import AttackSpec, make_attack

        full = make_attack(AttackSpec("depolarize", 1, {"p": 1.0}))
        rng = np.random.default_rng(31)
        for _ in range(5):
            rho = random_density(rng, 2)
            out = apply_kraus(full, rho)
            expected = tensor(np.eye(2) / 2, ket_bra(basis_ket(0, 2)))
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_trace_preserved_on_random_states(self, channel):
        rng = np.random.default_rng(32)
        for kind in ("measure_x", "universal_cloner", "depolarize"):
            ch = channel(kind, 1)
            for _ in range(50):
                rho = random_density(rng, 2)
                out = apply_kraus(ch, rho)
                assert abs(np.trace(out) - 1.0) < CHANNEL_TOL

    def test_positivity_of_outputs(self, channel):
        rng = np.random.default_rng(33)
        ch = channel("intercept_resend_angle", 1)
        for _ in range(20):
            out = apply_kraus(ch, random_density(rng, 2))
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-8

    def test_commutes_with_convex_mixtures(self, channel):
        rng = np.random.default_rng(34)
        ch = channel("universal_cloner", 1)
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        mixed = apply_kraus(ch, (a + b) / 2)
        parts = (apply_kraus(ch, a) + apply_kraus(ch, b)) / 2
        np.testing.assert_allclose(mixed, parts, atol=1e-9)


class TestIsometryToChannel:
    def test_identity_isometry_acts_as_identity(self):
        ch = isometry_to_channel(np.eye(2), (2,), (2,), ())
        rng = np.random.default_rng(35)
        rho = random_density(rng, 2)
        out = apply_kraus(ch, rho)
        np.testing.assert_allclose(out, rho, atol=1e-12)

    def test_cnot_with_appended_ancilla(self):
        # V = CNOT composed with |0> append: |a> -> |a, a>.
        v = sum(ket_bra(np.kron(basis_ket(a, 2), basis_ket(a, 2)), basis_ket(a, 2)) for a in (0, 1))
        ch = isometry_to_channel(v, (2,), (2,), (2,))
        assert len(ch.kraus) == 1
        validate_channel(ch, "cnot with ancilla")

    def test_environment_slicing_gives_kraus_family(self):
        # Same isometry, now declaring the copy as a traced environment.
        v = sum(ket_bra(np.kron(basis_ket(a, 2), basis_ket(a, 2)), basis_ket(a, 2)) for a in (0, 1))
        ch = isometry_to_channel(v, (2,), (2,), (), env_dim=2)
        assert len(ch.kraus) == 2
        validate_channel(ch, "cnot with traced copy")
        out = apply_kraus(ch, ket_bra(np.array([1, 1]) / np.sqrt(2)))
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_rejects_non_isometry(self):
        with pytest.raises(ValidationError):
            isometry_to_channel(np.diag([1.0, np.sqrt(0.9)]), (2,), (2,), ())

    def test_non_isometry_error_names_the_isometry(self):
        # |V^dag V - 1| = 0.1 in the corner, through two environment slices.
        v = np.zeros((4, 2))
        v[0, 0] = 1.0
        v[3, 1] = np.sqrt(0.9)
        with pytest.raises(ValidationError, match="isometry fails Kraus completeness by 1.000e-01"):
            isometry_to_channel(v, (2,), (2,), (), env_dim=2)


class TestValidateChannel:
    def test_library_attacks_pass(self, channel):
        from qid.attacks import standard_attacks

        for n in (1, 2, 3):
            for spec in standard_attacks(n):
                validate_channel(channel(spec.kind, n), spec.label())

    def test_scaled_kraus_breaks_completeness(self, channel):
        ch = channel("identity", 1)
        bad = QuantumChannel(
            kraus=(ch.kraus[0] * 1.01,),
            in_dims=ch.in_dims,
            out_dims_b=ch.out_dims_b,
            out_dims_e=ch.out_dims_e,
        )
        # 1.01^2 - 1 = 0.0201 on the diagonal.
        with pytest.raises(ValidationError, match="scaled fails Kraus completeness by 2.010e-02"):
            validate_channel(bad, "scaled")

    def test_empty_kraus_fails(self):
        ch = QuantumChannel(kraus=(), in_dims=(2,), out_dims_b=(2,), out_dims_e=(2,))
        with pytest.raises(ValidationError, match="by 1.000e[+]00"):
            validate_channel(ch, "empty")

    def test_shape_coherence_enforced(self):
        with pytest.raises(DimensionError):
            QuantumChannel(
                kraus=(np.eye(2),), in_dims=(2,), out_dims_b=(2,), out_dims_e=(2,)
            )


class TestSerialization:
    def test_matrix_pair_round_trip(self):
        rng = np.random.default_rng(36)
        m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        np.testing.assert_array_equal(matrix_from_pairs(pairs(m)), m)


def test_library_outputs_are_valid_states(instance):
    # brute-force loop: every attack's output on a Z-encoded message
    # must be a state, up to three qubits
    from qid.attacks import standard_attacks
    from qid.operators import validate_state

    for n in (1, 2, 3):
        for spec in standard_attacks(n):
            inst = instance(spec.kind, n)
            for z in range(2**n):
                state = apply_channel_to_vector_raw(inst.kraus_channel, encode(z, "Z", n))
                validate_state(state)


def test_vector_marginals_match_full_output(channel):
    ch = channel("universal_cloner", 2)
    rng = np.random.default_rng(37)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    full = apply_channel_to_vector_raw(ch, psi)
    b, e = vector_marginals(ch, psi)
    np.testing.assert_allclose(partial_trace(full, (2,) * 4, [0, 1]), b, atol=1e-12)
    np.testing.assert_allclose(partial_trace(full, (2,) * 4, [2, 3]), e, atol=1e-12)


@pytest.fixture(params=["universal_cloner", "random_isometry"])
def stacked(request, channel):
    """A library channel and a random one with three Kraus operators of shape 6 x 4."""
    if request.param == "universal_cloner":
        return channel("universal_cloner", 2)
    return random_isometry_channel(np.random.default_rng(38))


class TestStackedKraus:
    """Every Kraus contraction against the explicit sum over the operators."""

    def test_kraus_is_one_read_only_stack(self, stacked):
        k = stacked.kraus
        assert k.dtype == np.complex128
        assert k.shape == (len(k), stacked.out_dim, stacked.in_dim)
        with pytest.raises(ValueError):
            k[0, 0, 0] = 1.0

    def test_list_input_is_stacked_and_copied(self, stacked):
        ops = [np.array(k) for k in stacked.kraus]
        ch = QuantumChannel(ops, stacked.in_dims, stacked.out_dims_b, stacked.out_dims_e)
        ops[0][0, 0] += 1.0
        np.testing.assert_array_equal(ch.kraus, stacked.kraus)

    def test_ragged_or_non_finite_input_is_rejected(self, stacked):
        dims = (stacked.in_dims, stacked.out_dims_b, stacked.out_dims_e)
        with pytest.raises(DimensionError):
            QuantumChannel([stacked.kraus[0], stacked.kraus[0][:, :2]], *dims)
        broken = np.array(stacked.kraus)
        broken[-1, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            QuantumChannel(broken, *dims)

    def test_validate_channel(self, stacked):
        weights = np.linspace(0.9, 1.1, len(stacked.kraus))[:, None, None]
        bad = QuantumChannel(
            stacked.kraus * weights, stacked.in_dims, stacked.out_dims_b, stacked.out_dims_e
        )
        acc = sum(k.conj().T @ k for k in bad.kraus)
        expected = np.max(np.abs(acc - np.eye(bad.in_dim)))
        with pytest.raises(ValidationError, match=re.escape(f"by {expected:.3e}")):
            validate_channel(bad, "weighted")

    def test_apply_channel(self, stacked):
        rho = random_density(np.random.default_rng(39), stacked.in_dim)
        expected = sum(k @ rho @ k.conj().T for k in stacked.kraus)
        out = apply_kraus(stacked, rho)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)

    def test_apply_channel_to_vector(self, stacked):
        psi = random_complex(np.random.default_rng(40), stacked.in_dim)
        psi /= np.linalg.norm(psi)
        expected = sum(np.outer(k @ psi, np.conj(k @ psi)) for k in stacked.kraus)
        np.testing.assert_allclose(
            apply_channel_to_vector_raw(stacked, psi), expected, rtol=0, atol=1e-14
        )

    def test_vector_marginals(self, stacked):
        psi = random_complex(np.random.default_rng(41), stacked.in_dim)
        psi /= np.linalg.norm(psi)
        blocks = [(k @ psi).reshape(stacked.dim_b, stacked.dim_e) for k in stacked.kraus]
        rho_b, rho_e = vector_marginals(stacked, psi)
        np.testing.assert_allclose(rho_b, sum(w @ w.conj().T for w in blocks), rtol=0, atol=1e-14)
        np.testing.assert_allclose(rho_e, sum(w.T @ w.conj() for w in blocks), rtol=0, atol=1e-14)

    def test_theta_matrix(self, stacked):
        n = len(stacked.in_dims)
        phi = epr_state(n).reshape(2**n, 2**n)
        vecs = [(phi @ k.T).ravel() for k in stacked.kraus]
        expected = sum(np.outer(w, np.conj(w)) for w in vecs)
        inst = ProtocolInstance.from_channel(stacked)
        np.testing.assert_allclose(theta_matrix(inst), expected, rtol=0, atol=1e-14)

    def test_equivalence_check_reference(self, stacked):
        n = len(stacked.in_dims)
        for basis in ("Z", "X"):
            for msg in range(2**n):
                probe = encode(msg, basis, n)
                expected = sum(np.outer(k @ probe, np.conj(k @ probe)) for k in stacked.kraus)
                np.testing.assert_allclose(
                    apply_channel_to_vector_raw(stacked, probe), expected, rtol=0, atol=1e-14
                )
        assert equivalence_check(ProtocolInstance.from_channel(stacked)).passed
