"""The product-state core against the dense Kraus oracle.

A library attack is the tensor power of a one-qubit channel, so every
receiver state is a Kronecker power of that channel's 2x2 marginals.
``ProtocolInstance.from_channel(product_attack(spec))`` builds them that
way; ``ProtocolInstance.from_channel(make_attack(spec))`` computes them
from the N-qubit Kraus stack.  Both must agree.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qid.channels as channels_mod
import qid.protocol as protocol
from qid.attacks import KINDS, AttackSpec, make_attack, product_attack
from qid.channels import (
    ProductChannel,
    QuantumChannel,
    dense_channel,
    isometry_to_channel,
    kron_power,
)
from qid.distinguishability import _overlap_table, support_projector
from qid.errors import CapacityError, DimensionError, ValidationError
from qid.operators import ket_bra
from qid.protocol import ProtocolInstance, encode, equivalence_check, global_state_theta
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


@pytest.mark.parametrize("kind", KINDS)
def test_two_qubit_factor_squared_matches_four_qubit_attack(kind, attack_spec, instance):
    # A plain channel on two qubits, taken twice, is the same attack on four.
    fast = ProtocolInstance.from_channel(ProductChannel(make_attack(attack_spec(kind, 2)), 2))
    assert_same_states(fast, instance(kind, 4))


def test_dense_oracle_is_built_once_and_equals_make_attack(monkeypatch):
    spec = AttackSpec("depolarize", 2, {"p": 0.25})
    inst = ProtocolInstance.from_channel(product_attack(spec))
    real, calls = channels_mod._tensor_power, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(channels_mod, "_tensor_power", counting)
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

        monkeypatch.setattr(protocol, "dense_channel", no_build)
        spec = attack_spec("depolarize", 3)
        inst = ProtocolInstance.from_channel(product_attack(spec))
        with pytest.raises(CapacityError, match="n <= 2"):
            verify_tradeoff(inst, spec, dense=True)
        for dense_check in (
            lambda: equivalence_check(inst),
            lambda: global_state_theta(inst),
        ):
            with pytest.raises(CapacityError, match="n <= 2"):
                dense_check()

    def test_mib_rounds_up_in_integer_arithmetic(self):
        assert channels_mod.mib(512 * 2**20) == "512 MiB"
        assert channels_mod.mib(2**20 + 1) == "2 MiB"
        assert channels_mod.mib(2**2000) == f"{2**1980} MiB"

    def test_oracle_keeps_the_kraus_limits(self):
        inst = ProtocolInstance.from_channel(
            product_attack(AttackSpec("depolarize", 6, {"p": 0.5}))
        )
        with pytest.raises(CapacityError):
            inst.kraus_channel


class TestMemory:
    def test_states_are_views_of_one_frozen_stack_per_side(self):
        inst = ProtocolInstance.from_channel(product_attack(AttackSpec("universal_cloner", 3)))
        for family in (inst.rho_b, inst.sigma_e):
            stack = family[0].mat.base
            assert stack.base is None and not stack.flags.writeable
            assert all(state.mat.base is stack for state in family)

    def test_instance_holds_its_states_once(self):
        # At N = 7 the states take 64 MiB; copying them out of the raw stacks peaked at 2x.
        spec = AttackSpec("universal_cloner", 7)
        product = product_attack(spec)
        tracemalloc.start()
        try:
            inst = ProtocolInstance.from_channel(product)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        states = sum(state.mat.nbytes for state in inst.rho_b + inst.sigma_e)
        assert states == 64 * 2**20
        assert peak <= 1.1 * states


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
    def test_outcome_table_is_the_trace_of_each_pair(self, instance):
        # Oracle: 2^-n tr(rho_m |k><k|), each projector built from an explicit ket,
        # for both state families read in both bases.
        for kind in KINDS:
            for n in (1, 2, 3):
                inst = instance(kind, n)
                for states in (inst.rho_b, inst.sigma_e):
                    for measured in ("Z", "X"):
                        table = outcome_distribution(states, measured)
                        assert table.shape == (2**n, 2**n)
                        for msg, rho in enumerate(states):
                            for k in range(2**n):
                                m = ket_bra(encode(k, measured, n))
                                expected = np.trace(rho.mat @ m).real / 2**n
                                assert abs(table[msg, k] - expected) <= 1e-15, (kind, n, k)

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
