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
import qid.distinguishability as distinguishability_mod
import qid.operators as operators_mod
import qid.protocol as protocol
import qid.tradeoff as tradeoff_mod
from qid.attacks import ATTACKS, AttackSpec, make_attack, product_attack, standard_attacks
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
from qid.protocol import ProtocolInstance, encode, equivalence_check, theta_matrix
from qid.tradeoff import (
    mutual_information,
    outcome_distribution,
    shannon_tradeoff_check,
    verify_tradeoff,
)

from helpers import random_complex, random_unitary

ATOL = 1e-12


def assert_same_states(fast, dense):
    assert fast.n == dense.n
    np.testing.assert_allclose(fast.rho_b, dense.rho_b, rtol=0, atol=ATOL)
    np.testing.assert_allclose(fast.sigma_e, dense.sigma_e, rtol=0, atol=ATOL)


def assert_same_verdicts(fast, dense, spec):
    eve_basis = ATTACKS[spec.kind].eve_basis
    ours, ref = verify_tradeoff(fast, eve_basis), verify_tradeoff(dense, eve_basis)
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
@pytest.mark.parametrize("kind", tuple(ATTACKS))
def test_product_instance_matches_dense_oracle(kind, n, attack_spec, instance):
    spec = attack_spec(kind, n)
    fast = ProtocolInstance.from_channel(product_attack(spec))
    dense = instance(kind, n)
    assert_same_states(fast, dense)
    assert_same_verdicts(fast, dense, spec)


@pytest.mark.parametrize("kind", tuple(ATTACKS))
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


def test_above_the_dense_limit_only_factor_marginals_are_eigensolved(monkeypatch):
    # Two marginals per side, each validated once and given its support once.
    real, shapes = distinguishability_mod.jacobi_eigh, []

    def counting(a):
        shapes.append(a.shape)
        return real(a)

    for mod in (operators_mod, distinguishability_mod):
        monkeypatch.setattr(mod, "jacobi_eigh", counting)
    spec = AttackSpec("depolarize", 5, {"p": 0.5})
    verify_tradeoff(ProtocolInstance.from_channel(product_attack(spec)), ATTACKS[spec.kind].eve_basis)
    assert shapes == [(2, 2)] * 8


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


def no_build(*args):
    raise AssertionError("built before the capacity check")


class TestCapacity:
    def test_twelve_qubits_refused_before_any_table_is_built(self, monkeypatch):
        for mod in (protocol, distinguishability_mod, tradeoff_mod):
            monkeypatch.setattr(mod, "kron_power", no_build)
        monkeypatch.setattr(protocol, "_factor_marginals", no_build)
        with pytest.raises(CapacityError, match="verdict tables need 1952 MiB"):
            ProtocolInstance.from_channel(product_attack(AttackSpec("identity", 12)))

    def test_eleven_qubits_fit_the_budget(self):
        # The 4^N-entry bool table at 10 bytes an entry and both sides'
        # 4^N-entry joint tables at 7 * 8 bytes: 488 MiB at N = 11, 1952 MiB at N = 12.
        assert (10 + 2 * 56) * 4**11 <= protocol.MAX_STATE_BYTES < (10 + 2 * 56) * 4**12
        for spec in standard_attacks(11):
            inst = ProtocolInstance.from_channel(product_attack(spec))
            assert "rho_b" not in vars(inst) and "sigma_e" not in vars(inst)
        for spec in standard_attacks(12):
            with pytest.raises(CapacityError):
                ProtocolInstance.from_channel(product_attack(spec))

    def test_nine_qubit_family_refused_before_it_is_built(self, monkeypatch):
        # One side's 2^9 states of 512 x 512 complex128 take 2 GiB; at N = 8 256 MiB.
        assert 2**8 * 256**2 * 16 <= protocol.MAX_STATE_BYTES < 2**9 * 512**2 * 16
        inst = ProtocolInstance.from_channel(product_attack(AttackSpec("identity", 9)))
        monkeypatch.setattr(protocol, "kron_power", no_build)
        for side in ("B", "E"):
            with pytest.raises(CapacityError, match="2048 MiB"):
                inst.family(side)

    def test_state_byte_limit_is_inclusive(self, monkeypatch):
        # N = 3: one side's 8 states of 8 x 8 complex128 = 8 KiB.
        inst = ProtocolInstance.from_channel(product_attack(AttackSpec("measure_x", 3)))
        monkeypatch.setattr(protocol, "MAX_STATE_BYTES", 8 * 8 * 8 * 16)
        assert inst.rho_b.nbytes == protocol.MAX_STATE_BYTES
        monkeypatch.setattr(protocol, "MAX_STATE_BYTES", 8 * 8 * 8 * 16 - 1)
        monkeypatch.setattr(protocol, "kron_power", no_build)
        with pytest.raises(CapacityError):
            inst.sigma_e

    def test_dense_checks_above_the_limit_refused_before_the_oracle(self, monkeypatch, attack_spec):
        monkeypatch.setattr(protocol, "dense_channel", no_build)
        spec = attack_spec("depolarize", 3)
        inst = ProtocolInstance.from_channel(product_attack(spec))
        with pytest.raises(CapacityError, match="n <= 2"):
            verify_tradeoff(inst, ATTACKS[spec.kind].eve_basis, dense=True)
        for dense_check in (
            lambda: equivalence_check(inst),
            lambda: theta_matrix(inst),
        ):
            with pytest.raises(CapacityError, match="n <= 2"):
                dense_check()

    def test_theta_side_over_dense_limit_refused_before_the_oracle(self, monkeypatch):
        # One qubit into B (42) and E (50) at n = 1: Θ would be 4200 x 4200
        # (269 MiB), over MAX_DIM = 4096 per side, though n is within the limit.
        factor = isometry_to_channel(np.eye(42 * 50, 2), (2,), (42,), (50,))
        inst = ProtocolInstance.from_channel(factor)

        monkeypatch.setattr(protocol, "dense_channel", no_build)
        with pytest.raises(CapacityError, match="4200"):
            theta_matrix(inst)

    def test_theta_side_limit_is_inclusive(self, monkeypatch):
        # identity at n = 1: Θ is 2 * 4 = 8 per side.
        spec = AttackSpec("identity", 1)
        monkeypatch.setattr(protocol, "MAX_DIM", 8)
        assert theta_matrix(ProtocolInstance.from_channel(product_attack(spec))).shape == (8, 8)
        monkeypatch.setattr(protocol, "MAX_DIM", 7)
        with pytest.raises(CapacityError):
            theta_matrix(ProtocolInstance.from_channel(product_attack(spec)))

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
    def test_each_family_is_one_read_only_array_owning_its_memory(self):
        # A product of three cloner factors and a plain three-qubit channel.
        spec = AttackSpec("universal_cloner", 3)
        for channel in (product_attack(spec), make_attack(spec)):
            inst = ProtocolInstance.from_channel(channel)
            for family in (inst.rho_b, inst.sigma_e):
                assert family.shape == (8, 8, 8) and family.dtype == np.complex128
                assert family.base is None and not family.flags.writeable

    def test_instance_holds_its_states_once(self):
        # At N = 7 the states take 64 MiB; copying them out of the raw stacks peaked at 2x.
        inst = ProtocolInstance.from_channel(product_attack(AttackSpec("universal_cloner", 7)))
        tracemalloc.start()
        try:
            states = inst.rho_b.nbytes + inst.sigma_e.nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states == 64 * 2**20
        assert peak <= 1.1 * states

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind", tuple(ATTACKS))
    def test_verdicts_above_the_dense_limit_build_no_family(self, kind, n, attack_spec):
        spec = attack_spec(kind, n)
        inst = ProtocolInstance.from_channel(product_attack(spec))
        verify_tradeoff(inst, ATTACKS[kind].eve_basis)
        assert "rho_b" not in vars(inst) and "sigma_e" not in vars(inst)

    def test_each_view_builds_only_its_side(self):
        inst = ProtocolInstance.from_channel(product_attack(AttackSpec("depolarize", 4, {"p": 0.5})))
        assert inst.family("E") is inst.sigma_e
        assert "sigma_e" in vars(inst) and "rho_b" not in vars(inst)

    def test_overlap_table_copies_no_state(self):
        # One side at N = 7 holds 32 MiB of states.  The product reads them
        # through a view of their stack, so the conjugated supports are its
        # only copy.
        inst = ProtocolInstance.from_channel(product_attack(AttackSpec("universal_cloner", 7)))
        states = inst.rho_b
        supports = [support_projector(s) for s in states]
        assert states.nbytes == 32 * 2**20
        tracemalloc.start()
        try:
            _overlap_table(states, supports)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * states.nbytes


class TestValidation:
    def test_incomplete_factor_rejected(self):
        good = product_attack(AttackSpec("measure_z", 3)).factor
        broken = type(good)(
            kraus=good.kraus * 1.1, in_dims=(2,), out_dims_b=(2,), out_dims_e=(2,)
        )
        with pytest.raises(ValidationError, match="product factor"):
            ProtocolInstance.from_channel(ProductChannel(broken, 3))

    def test_invalid_marginal_rejected(self, monkeypatch):
        # Unit trace but a negative eigenvalue, and so is every Kronecker power of it.
        bad = np.array([np.diag([1.5, -0.5])] * 2, dtype=complex)
        monkeypatch.setattr(protocol, "_factor_marginals", lambda factor, side: bad)
        with pytest.raises(ValidationError, match="invalid density operator"):
            ProtocolInstance.from_channel(product_attack(AttackSpec("identity", 3)))

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
        for attr in ("in_dims", "out_dims_b", "out_dims_e", "in_dim", "dim_b", "dim_e", "out_dim"):
            assert getattr(product, attr) == getattr(dense, attr)


class TestTables:
    def test_outcome_table_is_the_trace_of_each_pair(self, instance):
        # Oracle: 2^-n tr(rho_m |k><k|), each projector built from an explicit ket,
        # for both state families read in both bases.
        for kind in ATTACKS:
            for n in (1, 2, 3):
                inst = instance(kind, n)
                ch = inst.channel
                for states, dims in ((inst.rho_b, ch.out_dims_b), (inst.sigma_e, ch.out_dims_e)):
                    for measured in ("Z", "X"):
                        table = outcome_distribution(states, dims, measured)
                        assert table.shape == (2**n, 2**n)
                        for msg, rho in enumerate(states):
                            for k in range(2**n):
                                m = ket_bra(encode(k, measured, n))
                                expected = np.trace(rho @ m).real / 2**n
                                assert abs(table[msg, k] - expected) <= 1e-15, (kind, n, k)

    def test_overlap_table_is_the_trace_of_each_pair(self, instance):
        # 21 states against 19 supports of another family.
        states = instance("universal_cloner", 5).rho_b[:21]
        supports = [support_projector(s) for s in instance("depolarize", 5).rho_b[:19]]
        table = _overlap_table(states, supports)
        assert table.shape == (21, 19)
        for i, rho in enumerate(states):
            for j, proj in enumerate(supports):
                assert abs(table[i, j] - np.trace(rho @ proj.mat).real) <= 1e-15


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


def shannon_oracle(inst, eve_basis):
    """(i_bz, i_ex, sum) read off the N-qubit families in the bases of their whole register."""
    ch = inst.channel
    i_bz = mutual_information(outcome_distribution(inst.family("B"), ch.out_dims_b, "Z"))
    i_ex = mutual_information(outcome_distribution(inst.family("E"), ch.out_dims_e, eve_basis))
    return i_bz, i_ex, i_bz + i_ex


def assert_same_shannon(inst, eve_basis, same_text=True):
    """The factor read against the oracle: within 1e-12, and the same 12-digit report text."""
    check = shannon_tradeoff_check(inst, eve_basis)
    for got, want in zip((check.i_bz, check.i_ex, check.sum), shannon_oracle(inst, eve_basis)):
        assert abs(got - want) <= 1e-12
        if same_text:
            assert f"{got:.12g}" == f"{want:.12g}"


GRID_SPECS = [
    AttackSpec(kind, 1, {name: lo + (hi - lo) * i / 10})
    for kind, (name, lo, hi, _) in ((k, row.param) for k, row in ATTACKS.items() if row.param)
    for i in range(11)
]


class TestShannonOnTheFactor:
    # Each joint table is the Kronecker power of the factor's.  A Z read
    # takes the same products of the same diagonal entries as the oracle;
    # an X read sums in another order, so its table may differ by round-off,
    # and the library's and the split factor's reports must not move.

    @pytest.mark.parametrize("n", range(1, 7))
    def test_library_and_parameter_grids_match_the_oracle(self, n):
        specs = standard_attacks(n) + [AttackSpec(s.kind, n, s.params) for s in GRID_SPECS]
        for spec in specs:
            inst = ProtocolInstance.from_channel(product_attack(spec))
            assert_same_shannon(inst, ATTACKS[spec.kind].eve_basis)

    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_split_factor_matches_the_oracle(self, copies):
        split = isometry_to_channel(np.eye(4), (2, 2), (2,), (2,))
        assert_same_shannon(ProtocolInstance.from_channel(ProductChannel(split, copies)), "X")

    @pytest.mark.parametrize("qubits, copies", [(1, c) for c in range(1, 7)] + [(2, 1), (2, 2), (2, 3)])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_factors_match_the_oracle(self, qubits, copies, seed):
        rng = np.random.default_rng([seed, qubits, copies])
        dim, env_dim = 2**qubits, 2
        v, _ = np.linalg.qr(random_complex(rng, (dim * dim * env_dim, dim)))
        dims = (2,) * qubits
        factor = isometry_to_channel(v, dims, dims, dims, env_dim=env_dim)
        inst = ProtocolInstance.from_channel(ProductChannel(factor, copies))
        assert_same_shannon(inst, "Z")
        # A random factor's X-read values can lie within round-off of a
        # 12-digit rounding boundary, so only the 1e-12 bound is kept.
        assert_same_shannon(inst, "X", same_text=False)
