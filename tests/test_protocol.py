import numpy as np
import pytest

from qid.attacks import standard_attacks
from qid.channels import QuantumChannel, apply_channel_to_vector
from qid.errors import CapacityError, ValidationError
from qid.operators import ket_bra, partial_trace, validate_state
from qid.protocol import (
    aposteriori,
    encode,
    epr_state,
    equivalence_check,
    global_state_theta,
    joint_state,
    receiver_state,
    theta_matrix,
)


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


class TestInstanceCaches:
    def test_covers_all_messages(self, instance):
        inst = instance("cnot_probe", 2)
        assert len(inst.rho_b) == 4 and len(inst.sigma_e) == 4

    def test_receiver_state_serves_cache_and_on_demand(self, instance):
        inst = instance("identity", 2)
        for z in range(4):
            np.testing.assert_allclose(
                receiver_state(inst, z, "Z", "B").mat, ket_bra(encode(z, "Z", 2)), atol=1e-12
            )
        # off-cache pairing: Eve under Z encoding sees her fixed ancilla
        off = receiver_state(inst, 3, "Z", "E")
        np.testing.assert_allclose(off.mat, ket_bra(encode(0, "Z", 2)), atol=1e-12)

    def test_measure_x_blinds_bob(self, instance):
        inst = instance("measure_x", 2)
        for z in range(4):
            np.testing.assert_allclose(inst.rho_b[z].mat, np.eye(4) / 4, atol=1e-12)

    def test_cnot_blinds_eve_in_x(self, instance):
        inst = instance("cnot_probe", 2)
        for x in range(4):
            np.testing.assert_allclose(inst.sigma_e[x].mat, np.eye(4) / 4, atol=1e-12)

    def test_all_receiver_states_are_valid(self, instance):
        for n in (1, 2, 3):
            for spec in standard_attacks(n):
                inst = instance(spec.kind, n)
                for msg in range(2**n):
                    for basis in ("Z", "X"):
                        for side in ("B", "E"):
                            rho = receiver_state(inst, msg, basis, side)
                            assert validate_state(rho.mat).passed


class TestGlobalState:
    def test_identity_attack_theta_is_epr_with_fixed_environment(self, instance):
        inst = instance("identity", 1)
        theta = global_state_theta(inst)
        expected = np.kron(ket_bra(epr_state(1)), ket_bra(encode(0, "Z", 1)))
        np.testing.assert_allclose(theta.mat, expected, atol=1e-12)

    def test_cnot_probe_gives_ghz(self, instance):
        theta = global_state_theta(instance("cnot_probe", 1))
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / np.sqrt(2)
        np.testing.assert_allclose(theta.mat, ket_bra(ghz), atol=1e-12)

    def test_sender_marginal_is_uniform_for_all_attacks(self, instance):
        for spec in standard_attacks(2):
            theta = global_state_theta(instance(spec.kind, 2))
            reduced = theta.ptrace([0, 1]).mat
            np.testing.assert_allclose(reduced, np.eye(4) / 4, atol=1e-10)

    def test_dense_cap(self, instance):
        with pytest.raises(CapacityError):
            global_state_theta(instance("identity", 3))


class TestAposteriori:
    def test_structured_probability_is_exactly_uniform(self, instance):
        inst = instance("depolarize", 2)
        probs = [aposteriori(inst, "Z", z)[0] for z in range(4)]
        assert probs == [0.25] * 4
        assert sum(probs) == 1.0

    def test_structured_state_is_channel_output(self, instance):
        inst = instance("universal_cloner", 1)
        _, state = aposteriori(inst, "Z", 1)
        ref = apply_channel_to_vector(inst.channel, encode(1, "Z", 1))
        np.testing.assert_array_equal(state.mat, ref.mat)

    def test_dense_path_agrees_with_structured(self, instance):
        for kind in ("identity", "measure_z", "universal_cloner"):
            inst = instance(kind, 2)
            for basis in ("Z", "X"):
                for msg in range(4):
                    p_dense, s_dense = aposteriori(inst, basis, msg, method="dense")
                    p_struct, s_struct = aposteriori(inst, basis, msg)
                    assert abs(p_dense - p_struct) < 1e-10
                    np.testing.assert_allclose(s_dense.mat, s_struct.mat, atol=1e-10)

    def test_x_restriction_is_eve_cache(self, instance):
        inst = instance("measure_z", 2)
        for x in range(4):
            _, state = aposteriori(inst, "X", x)
            np.testing.assert_allclose(
                state.ptrace([2, 3]).mat, inst.sigma_e[x].mat, atol=1e-12
            )


class TestMixtureIdentity:
    def test_basis_averages_agree(self, instance):
        # sum_z Lambda(|z><z|)/2^n equals sum_x Lambda(|x-bar><x-bar|)/2^n.
        for spec in standard_attacks(2):
            inst = instance(spec.kind, 2)
            avg_z = sum(joint_state(inst, z, "Z").mat for z in range(4)) / 4
            avg_x = sum(joint_state(inst, x, "X").mat for x in range(4)) / 4
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
                report = equivalence_check(instance(spec.kind, n), tol=1e-10)
                assert report.passed, (spec.label(), n)

    def test_corrupted_channel_fails_uniformity(self, channel):
        ch = channel("measure_z", 1)
        bad = QuantumChannel(
            kraus=(ch.kraus[0] * 1.1, ch.kraus[1]),
            in_dims=ch.in_dims,
            out_dims_b=ch.out_dims_b,
            out_dims_e=ch.out_dims_e,
        )
        report = equivalence_check(bad)
        assert not report.passed
        assert report.max_probability_deviation > 0.01


def test_theta_matrix_trace_one(channel):
    theta = theta_matrix(channel("intercept_resend_angle", 2))
    assert abs(np.trace(theta).real - 1.0) < 1e-12
