"""The product-state core against the dense Kraus oracle.

A library attack is the tensor power of a one-qubit channel, so every
receiver state is a Kronecker power of that channel's 2x2 marginals.
``ProtocolInstance.from_channel(product_attack(spec))`` builds them that
way; ``ProtocolInstance.from_channel(make_attack(spec))`` computes them
from the N-qubit Kraus stack.  Both must agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qid.attacks as attacks_mod
import qid.protocol as protocol
from qid.attacks import (
    KINDS,
    AttackSpec,
    dense_channel,
    make_attack,
    natural_povms,
    product_attack,
)
from qid.channels import ProductChannel, QuantumChannel, isometry_to_channel, kron_power
from qid.distinguishability import _overlap_table, support_projector
from qid.errors import CapacityError, DimensionError, ValidationError
from qid.protocol import (
    ProtocolInstance,
    aposteriori,
    equivalence_check,
    global_state_theta,
    receiver_state,
)
from qid.tradeoff import outcome_distribution, verify_tradeoff

from helpers import random_complex, random_unitary

ATOL = 1e-12


def assert_same_states(fast, dense):
    assert fast.n == dense.n
    for ours, ref in zip(fast.rho_b + fast.sigma_e, dense.rho_b + dense.sigma_e, strict=True):
        assert ours.dims == ref.dims
        np.testing.assert_allclose(ours.mat, ref.mat, rtol=0, atol=ATOL)


def assert_same_verdicts(fast, dense, spec):
    ours, ref = verify_tradeoff(fast, spec), verify_tradeoff(dense, spec)
    assert ours.profile_b == ref.profile_b
    assert ours.profile_e == ref.profile_e
    assert ours.grid == ref.grid
    assert ours.corollary1 == ref.corollary1
    assert ours.average == ref.average
    assert abs(ours.shannon.i_bz - ref.shannon.i_bz) <= ATOL
    assert abs(ours.shannon.i_ex - ref.shannon.i_ex) <= ATOL
    assert len(ours.lp_records) == len(ref.lp_records)
    for a, b in zip(ours.lp_records + ours.cross_norms, ref.lp_records + ref.cross_norms):
        assert a.holds == b.holds
    assert ours.all_hold == ref.all_hold
    return ours


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", KINDS)
def test_product_instance_matches_dense_oracle(kind, n, attack_spec, instance):
    spec = attack_spec(kind, n)
    fast = ProtocolInstance.from_channel(product_attack(spec))
    dense = instance(kind, n)
    assert_same_states(fast, dense)
    assert_same_verdicts(fast, dense, spec)


@pytest.mark.parametrize("kind", ["universal_cloner", "intercept_resend_angle"])
def test_off_diagonal_pairings_match_dense_oracle(kind, attack_spec, instance):
    spec = attack_spec(kind, 3)
    fast = ProtocolInstance.from_channel(product_attack(spec))
    for msg in range(8):
        for basis, side in (("Z", "E"), ("X", "B")):
            ours = receiver_state(fast, msg, basis, side)
            ref = receiver_state(instance(kind, 3), msg, basis, side)
            np.testing.assert_allclose(ours.mat, ref.mat, rtol=0, atol=ATOL)


@pytest.mark.parametrize("kind", KINDS)
def test_two_qubit_factor_squared_matches_four_qubit_attack(kind, attack_spec, instance):
    # A plain channel on two qubits, taken twice, is the same attack on four.
    fast = ProtocolInstance.from_channel(ProductChannel(make_attack(attack_spec(kind, 2)), 2))
    dense = instance(kind, 4)
    assert_same_states(fast, dense)
    for msg in range(16):
        for basis, side in (("Z", "E"), ("X", "B")):
            ours = receiver_state(fast, msg, basis, side)
            ref = receiver_state(dense, msg, basis, side)
            assert ours.dims == ref.dims
            np.testing.assert_allclose(ours.mat, ref.mat, rtol=0, atol=ATOL)


def test_dense_oracle_is_built_once_and_equals_make_attack(monkeypatch):
    spec = AttackSpec("depolarize", 2, {"p": 0.25})
    inst = ProtocolInstance.from_channel(product_attack(spec))
    real, calls = attacks_mod._tensor_power, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(attacks_mod, "_tensor_power", counting)
    assert inst.kraus_channel is inst.kraus_channel
    assert len(calls) == 1
    np.testing.assert_array_equal(inst.kraus_channel.kraus, make_attack(spec).kraus)


def test_kron_power_matches_kronecker_products():
    rng = np.random.default_rng(5)
    stack = random_complex(rng, (3, 2, 4))
    got = kron_power(stack, 3)
    assert got.shape == (27, 8, 64)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expected = np.kron(np.kron(stack[i], stack[j]), stack[k])
                np.testing.assert_array_equal(got[9 * i + 3 * j + k], expected)


class TestCapacity:
    def test_nine_qubits_refused_before_any_state_is_built(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("receiver states built before the capacity check")

        monkeypatch.setattr(protocol, "kron_power", no_build)
        with pytest.raises(CapacityError, match="MiB"):
            ProtocolInstance.from_channel(product_attack(AttackSpec("identity", 9)))

    def test_eight_qubits_fit_the_budget(self):
        # 2 * 2^8 states of 256 x 256 complex128: exactly 512 MiB.
        assert 2 * 2**8 * 256**2 * 16 <= protocol.MAX_STATE_BYTES < 2 * 2**9 * 512**2 * 16

    def test_state_byte_limit_is_inclusive(self, monkeypatch):
        # N = 2: 2 * 4 states of 4 x 4 complex128 = 2 KiB.
        monkeypatch.setattr(protocol, "MAX_STATE_BYTES", 2 * 4 * 16 * 16)
        ProtocolInstance.from_channel(product_attack(AttackSpec("measure_x", 2)))
        with pytest.raises(CapacityError):
            ProtocolInstance.from_channel(product_attack(AttackSpec("measure_x", 3)))

    def test_dense_checks_above_the_limit_refused_before_the_oracle(self, monkeypatch, attack_spec):
        def no_build(*args):
            raise AssertionError("dense oracle built before the dense-size check")

        monkeypatch.setattr(attacks_mod, "dense_channel", no_build)
        spec = attack_spec("depolarize", 3)
        inst = ProtocolInstance.from_channel(product_attack(spec))
        with pytest.raises(CapacityError, match="n <= 2"):
            verify_tradeoff(inst, spec, dense=True)
        for dense_check in (
            lambda: equivalence_check(inst),
            lambda: aposteriori(inst, "Z", 0, method="dense"),
            lambda: global_state_theta(inst),
        ):
            with pytest.raises(CapacityError, match="n <= 2"):
                dense_check()

    def test_oracle_keeps_the_kraus_limits(self):
        inst = ProtocolInstance.from_channel(
            product_attack(AttackSpec("depolarize", 6, {"p": 0.5}))
        )
        with pytest.raises(CapacityError):
            inst.kraus_channel


class TestValidation:
    def test_incomplete_factor_rejected(self):
        good = product_attack(AttackSpec("measure_z", 3)).factor
        broken = type(good)(
            kraus=good.kraus * 1.1, in_dims=(2,), out_dims_b=(2,), out_dims_e=(2,)
        )
        with pytest.raises(ValidationError, match="product factor"):
            ProtocolInstance.from_channel(ProductChannel(broken, 3))

    def test_factor_inputs_must_be_qubits(self):
        qutrit = QuantumChannel(
            kraus=[np.eye(9, 3)], in_dims=(3,), out_dims_b=(3,), out_dims_e=(3,)
        )
        with pytest.raises(DimensionError, match="qubits"):
            ProductChannel(qutrit, 2)
        with pytest.raises(DimensionError):
            ProductChannel(product_attack(AttackSpec("identity", 1)).factor, 0)

    def test_dimensions_match_the_kraus_form(self):
        product = product_attack(AttackSpec("universal_cloner", 3))
        dense = dense_channel(product)
        for attr in ("in_dims", "out_dims_b", "out_dims_e", "in_dim", "dim_b", "dim_e",
                     "out_dims", "out_dim"):
            assert getattr(product, attr) == getattr(dense, attr)


class TestTables:
    def test_outcome_table_is_the_trace_of_each_pair(self, instance, attack_spec):
        inst = instance("universal_cloner", 2)
        _, eve = natural_povms(attack_spec("universal_cloner", 2))
        table = outcome_distribution(inst, "X", "E", eve)
        for msg in range(4):
            rho = inst.sigma_e[msg].mat
            for k, m in enumerate(eve):
                assert abs(table[msg, k] - np.trace(rho @ m).real / 4) <= 1e-15

    def test_overlap_table_is_the_trace_of_each_pair(self, instance):
        states = instance("depolarize", 2).rho_b
        supports = [support_projector(s) for s in states]
        table = _overlap_table(states, supports)
        for i, rho in enumerate(states):
            for j, proj in enumerate(supports):
                assert abs(table[i, j] - np.trace(rho.mat @ proj.mat).real) <= 1e-15


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    env_dim=st.integers(1, 3),
    n=st.integers(1, 3),
    unentangled=st.booleans(),
)
def test_random_isometry_factors_match_dense_oracle(seed, env_dim, n, unentangled):
    # An unentangled factor U (x) |w> hands Bob orthogonal pure states, so
    # the partition has real classes; a generic isometry gives singletons.
    rng = np.random.default_rng(seed)
    if unentangled:
        w = random_complex(rng, (2 * env_dim, 1))
        v = np.kron(random_unitary(rng, 2), w / np.linalg.norm(w))
    else:
        v, _ = np.linalg.qr(random_complex(rng, (4 * env_dim, 2)))
    factor = isometry_to_channel(v, (2,), (2,), (2,), env_dim=env_dim)
    product = ProductChannel(factor, n, "random")
    fast = ProtocolInstance.from_channel(product)
    dense = ProtocolInstance.from_channel(dense_channel(product))
    assert_same_states(fast, dense)
    report = assert_same_verdicts(fast, dense, AttackSpec("identity", n))
    assert all(point.holds for point in report.grid)
    if unentangled:
        assert report.profile_b.max_length() == 1  # one class holds every message
