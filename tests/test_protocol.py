import numpy as np
import pytest

from qid.attacks import AttackSpec, product_attack, standard_attacks
from qid.channels import QuantumChannel, apply_channel_to_vector_raw
from qid.errors import CapacityError, DimensionError, ValidationError
from qid.operators import ket_bra, validate_state
import qid.protocol as protocol
from qid.protocol import (
    ProtocolInstance,
    basis_table,
    encode,
    epr_state,
    equivalence_check,
    theta_matrix,
)

from helpers import apply_kraus, partial_trace, theta_oracle


class TestEncode:
    def test_z_basis_is_computational(self):
        np.testing.assert_array_equal(encode(0, "Z", 1), [1, 0])
        np.testing.assert_array_equal(encode(5, "Z", 3), np.eye(8)[5])

    def test_x_basis_single_qubit(self):
        np.testing.assert_allclose(encode(0, "X", 1), np.array([1, 1]) / np.sqrt(2))
        np.testing.assert_allclose(encode(1, "X", 1), np.array([1, -1]) / np.sqrt(2))

    def test_x_basis_two_qubits_matches_kronecker_oracle(self):
        oracle = np.kron(encode(1, "X", 1), encode(0, "X", 1))
        np.testing.assert_allclose(encode(2, "X", 2), oracle, atol=1e-15)

    def test_unit_norm(self):
        for msg in range(8):
            for basis in ("Z", "X"):
                assert abs(np.linalg.norm(encode(msg, basis, 3)) - 1.0) < 1e-12

    def test_message_range_enforced(self):
        with pytest.raises(ValidationError):
            encode(4, "Z", 2)

    @pytest.mark.parametrize("basis", ["Y", "z", ""])
    def test_rejects_a_basis_other_than_z_or_x(self, basis):
        with pytest.raises(ValidationError, match="basis must be one of"):
            encode(0, basis, 1)


class TestBasisTable:
    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_are_the_encoded_messages(self, basis, n):
        table = basis_table(basis, n)
        assert table.shape == (2**n, 2**n)
        for k in range(2**n):
            np.testing.assert_array_equal(table[k], encode(k, basis, n))

    def test_one_read_only_table_per_basis_and_n(self):
        table = basis_table("X", 2)
        assert basis_table("X", 2) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


class TestEprState:
    def test_single_pair(self):
        np.testing.assert_allclose(epr_state(1), np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_reduction_is_maximally_mixed(self):
        for n in (1, 2):
            rho = ket_bra(epr_state(n))
            reduced = partial_trace(rho, (2**n, 2**n), keep=[0])
            np.testing.assert_allclose(reduced, np.eye(2**n) / 2**n, atol=1e-12)

    def test_overlap_table(self):
        # <phi^2| (|z> tensor |z'>) = delta_{zz'} / 2 by direct summation.
        phi = epr_state(2)
        for z in range(4):
            for zp in range(4):
                probe = np.kron(encode(z, "Z", 2), encode(zp, "Z", 2))
                expected = 0.5 if z == zp else 0.0
                assert abs(np.vdot(phi, probe) - expected) < 1e-12

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            epr_state(7)

    def test_rejects_zero_pairs(self):
        with pytest.raises(ValidationError, match="n >= 1"):
            epr_state(0)


class TestInstanceCaches:
    def test_covers_all_messages(self, instance):
        inst = instance("cnot_probe", 2)
        assert len(inst.rho_b) == 4 and len(inst.sigma_e) == 4

    def test_identity_hands_bob_the_message(self, instance):
        inst = instance("identity", 2)
        for z in range(4):
            np.testing.assert_allclose(inst.rho_b[z], ket_bra(encode(z, "Z", 2)), atol=1e-12)

    def test_measure_x_blinds_bob(self, instance):
        inst = instance("measure_x", 2)
        for z in range(4):
            np.testing.assert_allclose(inst.rho_b[z], np.eye(4) / 4, atol=1e-12)

    def test_cnot_blinds_eve_in_x(self, instance):
        inst = instance("cnot_probe", 2)
        for x in range(4):
            np.testing.assert_allclose(inst.sigma_e[x], np.eye(4) / 4, atol=1e-12)

    def test_all_receiver_states_are_valid(self, instance):
        for n in (1, 2, 3):
            for spec in standard_attacks(n):
                inst = instance(spec.kind, n)
                for rho in [*inst.rho_b, *inst.sigma_e]:
                    validate_state(rho)


@pytest.mark.parametrize(
    "part",
    [lambda inst: inst.channel.factor, lambda inst: inst.channel, lambda inst: inst.b, lambda inst: inst],
    ids=["QuantumChannel", "ProductChannel", "ProductFamily", "ProtocolInstance"],
)
def test_equality_is_identity_and_hashing_works(part):
    # The fields hold arrays, whose == has no single truth value.
    def build():
        return part(ProtocolInstance.from_channel(product_attack(AttackSpec("identity", 2))))

    x = build()
    assert x == x
    assert x != build()
    assert hash(x) == hash(x) and {x: 1}[x] == 1


class TestGlobalState:
    def test_identity_attack_theta_is_epr_with_fixed_environment(self, instance):
        inst = instance("identity", 1)
        expected = np.kron(ket_bra(epr_state(1)), ket_bra(encode(0, "Z", 1)))
        np.testing.assert_allclose(theta_matrix(inst), expected, atol=1e-12)

    def test_cnot_probe_gives_ghz(self, instance):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / np.sqrt(2)
        np.testing.assert_allclose(theta_matrix(instance("cnot_probe", 1)), ket_bra(ghz), atol=1e-12)

    def test_sender_marginal_is_uniform_for_all_attacks(self, instance):
        for spec in standard_attacks(2):
            theta = theta_matrix(instance(spec.kind, 2))
            validate_state(theta)
            reduced = partial_trace(theta, (2,) * 6, [0, 1])
            np.testing.assert_allclose(reduced, np.eye(4) / 4, atol=1e-10)

    def test_dense_cap(self, instance):
        with pytest.raises(CapacityError):
            theta_matrix(instance("identity", 3))

    def test_theta_is_built_once_and_read_only(self, instance):
        inst = instance("depolarize", 2)
        theta = theta_matrix(inst)
        assert theta_matrix(inst) is theta
        assert not theta.flags.writeable
        with pytest.raises(ValueError):
            theta[0, 0] = 0.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_theta_matches_the_kraus_sum_oracle(self, instance, n):
        for spec in standard_attacks(n):
            inst = instance(spec.kind, n)
            np.testing.assert_allclose(theta_matrix(inst), theta_oracle(inst), rtol=0, atol=1e-15)

    def test_dense_checks_build_the_kraus_form_once(self, channel, monkeypatch):
        real, calls = protocol.dense_channel, []

        def counting(product):
            calls.append(product)
            return real(product)

        monkeypatch.setattr(protocol, "dense_channel", counting)
        inst = ProtocolInstance.from_channel(channel("universal_cloner", 2))
        for _ in range(3):
            theta_matrix(inst)
        assert equivalence_check(inst).passed
        assert len(calls) == 1


class TestAposteriori:
    """The channel output on H_B (x) H_E of one encoded message is its a-posteriori state.

    Its agreement with the projection of the dense global state is
    ``equivalence_check`` (see ``TestEquivalence``).
    """

    def test_structured_state_is_channel_output(self, instance):
        ch = instance("universal_cloner", 1).kraus_channel
        state = apply_channel_to_vector_raw(ch, encode(1, "Z", 1))
        ref = apply_kraus(ch, ket_bra(encode(1, "Z", 1)))
        np.testing.assert_allclose(state, ref, rtol=0, atol=1e-15)

    def test_x_restriction_is_eve_cache(self, instance):
        inst = instance("measure_z", 2)
        for x in range(4):
            state = apply_channel_to_vector_raw(inst.kraus_channel, encode(x, "X", 2))
            np.testing.assert_allclose(
                partial_trace(state, (2,) * 4, [2, 3]), inst.sigma_e[x], atol=1e-12
            )


class TestMixtureIdentity:
    def test_basis_averages_agree(self, instance):
        # sum_z Lambda(|z><z|)/2^n equals sum_x Lambda(|x-bar><x-bar|)/2^n.
        for spec in standard_attacks(2):
            inst = instance(spec.kind, 2)
            ch = inst.kraus_channel
            avg_z = sum(apply_channel_to_vector_raw(ch, encode(z, "Z", 2)) for z in range(4)) / 4
            avg_x = sum(apply_channel_to_vector_raw(ch, encode(x, "X", 2)) for x in range(4)) / 4
            np.testing.assert_allclose(avg_z, avg_x, atol=1e-9)


class TestEquivalence:
    def test_identity_attack_is_exact_up_to_rounding(self, instance):
        # EPR amplitudes 1/sqrt(2) leave a one-ulp residue, nothing more.
        report = equivalence_check(instance("identity", 1))
        assert report.max_probability_deviation <= 1e-15
        assert report.max_state_deviation <= 1e-15

    def test_all_attacks_pass_at_tight_tolerance(self, instance):
        for n in (1, 2):
            for spec in standard_attacks(n):
                report = equivalence_check(instance(spec.kind, n))
                assert report.passed, (spec.label(), n)

    def test_corrupted_channel_fails_uniformity(self, channel, monkeypatch):
        # An instance refuses an incomplete channel, so the corruption enters as its dense oracle.
        ch = channel("measure_z", 1)
        bad = QuantumChannel(
            kraus=(ch.kraus[0] * 1.1, ch.kraus[1]),
            in_dims=ch.in_dims,
            out_dims_b=ch.out_dims_b,
            out_dims_e=ch.out_dims_e,
        )
        monkeypatch.setattr(protocol, "dense_channel", lambda product: bad)
        report = equivalence_check(ProtocolInstance.from_channel(ch))
        assert not report.passed
        assert report.max_probability_deviation > 0.01

    def test_non_qubit_channel_raises_dimension_error(self):
        # The EPR register holds qubits; a qutrit input is refused before any contraction.
        qutrit = QuantumChannel(
            kraus=[np.eye(9, 3)], in_dims=(3,), out_dims_b=(3,), out_dims_e=(3,)
        )
        with pytest.raises(DimensionError, match="qubits"):
            ProtocolInstance.from_channel(qutrit)


def test_theta_matrix_trace_one(instance):
    theta = theta_matrix(instance("intercept_resend_angle", 2))
    assert abs(np.trace(theta).real - 1.0) < 1e-12
