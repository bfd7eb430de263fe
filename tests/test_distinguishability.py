import math

import numpy as np
import pytest

from qid.attacks import ATTACKS, AttackSpec, product_attack, standard_attacks
from qid.channels import ProductChannel, isometry_to_channel
from qid.distinguishability import (
    DistinguishableClass,
    _overlap_table,
    distinguishable_partition,
    support_projector,
)
from qid.errors import DimensionError
from qid.operators import SPECTRAL_TOL, ket_bra
from qid.protocol import FAMILY_BASIS, ProtocolInstance
from qid.tradeoff import catalogues_for, verify_tradeoff

from helpers import near_threshold, random_complex, random_isometry_channel, random_unitary


XBAR0 = np.array([1, 1], dtype=complex) / np.sqrt(2)


class TestSupportProjector:
    def test_pure_state(self):
        rho = np.diag([1.0, 0.0])
        np.testing.assert_allclose(support_projector(rho).mat, rho, atol=1e-12)

    def test_full_rank_state(self):
        p = support_projector(np.eye(2) / 2)
        np.testing.assert_allclose(p.mat, np.eye(2), atol=1e-12)

    def test_rank_two_mixture(self):
        # eigen-decomposition oracle: the mixture of |0><0| and the
        # conjugate-basis |+><+| spans the whole qubit space
        mix = 0.5 * np.diag([1.0, 0.0]) + 0.5 * ket_bra(XBAR0)
        assert np.linalg.matrix_rank(mix, tol=1e-12) == 2
        np.testing.assert_allclose(support_projector(mix).mat, np.eye(2), atol=1e-10)

    def test_captures_all_state_weight(self):
        from helpers import random_density

        rng = np.random.default_rng(55)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            rank = int(rng.integers(1, dim + 1))
            rho = random_density(rng, dim, rank)
            p = support_projector(rho)
            weight = np.trace(rho @ p.mat).real
            assert weight >= 1.0 - dim * SPECTRAL_TOL


class TestPerfectlyDistinguishable:
    """A family is perfectly distinguishable exactly when its partition is one class."""

    def test_orthogonal_pure_states(self):
        part = distinguishable_partition(np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], complex))
        assert [c.members for c in part] == [(0, 1)]
        pvm = part[0].pvm
        np.testing.assert_allclose(pvm[0].mat, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(pvm[1].mat, np.diag([0.0, 1.0]), atol=1e-12)

    def test_conjugate_pair_is_not(self):
        part = distinguishable_partition(np.array([np.diag([1.0, 0.0]), ket_bra(XBAR0)]))
        assert [c.members for c in part] == [(0,), (1,)]
        assert all(c.pvm == () for c in part)

    def test_measure_z_bob_states_at_n2(self, instance):
        inst = instance("measure_z", 2)
        part = distinguishable_partition(inst.rho_b)
        assert [c.members for c in part] == [(0, 1, 2, 3)]
        for z, p in enumerate(part[0].pvm):
            assert np.trace(p.mat).real == pytest.approx(1)
            np.testing.assert_allclose(p.mat, ket_bra(np.eye(4)[z]), atol=1e-10)


class TestPartition:
    def test_identity_attack_single_class(self, instance):
        part = distinguishable_partition(instance("identity", 2).rho_b)
        assert len(part) == 1
        assert part[0].members == (0, 1, 2, 3)
        assert len(part[0].pvm) == 4

    def test_cloner_all_singletons(self, instance):
        part = distinguishable_partition(instance("universal_cloner", 1).rho_b)
        assert [c.members for c in part] == [(0,), (1,)]
        assert all(c.pvm == () for c in part)

    def test_measure_x_bob_all_singletons(self, instance):
        part = distinguishable_partition(instance("measure_x", 2).rho_b)
        assert len(part) == 4
        assert all(c.size == 1 for c in part)

    def test_partition_is_exact_cover(self, instance):
        for n in (1, 2, 3):
            for spec in standard_attacks(n):
                inst = instance(spec.kind, n)
                for family in (inst.rho_b, inst.sigma_e):
                    part = distinguishable_partition(family)
                    members = sorted(m for c in part for m in c.members)
                    assert members == list(range(2**n))

    def test_pvm_invariants_on_library(self, instance):
        for n in (1, 2, 3):
            for spec in standard_attacks(n):
                inst = instance(spec.kind, n)
                for family in (inst.rho_b, inst.sigma_e):
                    for cls in distinguishable_partition(family):
                        if not cls.pvm:
                            continue
                        mats = [p.mat for p in cls.pvm]
                        for i, a in enumerate(mats):
                            for j, b in enumerate(mats):
                                ref = a if i == j else 0.0 * a
                                np.testing.assert_allclose(a @ b, ref, atol=1e-8)
                        total = sum(mats)
                        assert np.max(np.linalg.eigvalsh(total)) <= 1.0 + 1e-8
                        for i, z in enumerate(cls.members):
                            for j, zp in enumerate(cls.members):
                                val = np.trace(family[z] @ mats[j]).real
                                assert abs(val - (1.0 if i == j else 0.0)) < 1e-7

    def test_determinism(self, instance):
        inst = instance("depolarize", 2)
        first = distinguishable_partition(inst.rho_b)
        second = distinguishable_partition(inst.rho_b)
        assert [c.members for c in first] == [c.members for c in second]

    def test_tightening_tolerance_only_refines(self, instance):
        for n in (1, 2):
            for spec in standard_attacks(n):
                inst = instance(spec.kind, n)
                for family in (inst.rho_b, inst.sigma_e):
                    coarse = distinguishable_partition(family, 1e-7)
                    fine = distinguishable_partition(family, 1e-8)
                    coarse_sets = [set(c.members) for c in coarse]
                    for cls in fine:
                        assert any(set(cls.members) <= s for s in coarse_sets)


def leaky_factor(overlap):
    """One qubit: Bob gets |psi_b> with <psi_0|psi_1> = overlap, Eve gets |b>."""
    psi = np.array([[1.0, 0.0], [overlap, np.sqrt(1.0 - overlap**2)]])
    v = np.stack([np.kron(psi[b], np.eye(2)[b]) for b in (0, 1)], axis=1)
    return isometry_to_channel(v, (2,), (2,), (2,))


@pytest.mark.parametrize(
    "n",
    [
        2,
        3,
        pytest.param(
            4,
            marks=pytest.mark.xfail(
                strict=True,
                reason="messages 0000 and 1111 overlap by 0.01^4 = 1e-8 < DECISION_TOL, "
                "so the partition groups them as orthogonal",
            ),
        ),
    ],
)
def test_leaky_factor_gives_bob_no_class(n):
    # No two of Bob's states are orthogonal: every overlap is 0.01^(Hamming distance) > 0.
    inst = ProtocolInstance.from_channel(ProductChannel(leaky_factor(0.1), n))
    part = distinguishable_partition(inst.rho_b)
    assert [c.members for c in part if c.size >= 2] == []


def test_factor_rule_gives_the_leaky_factor_no_class_at_n4():
    # The oracle's compounded overlap (the xfail above) never forms: the
    # factor pair overlaps by 0.01, far above DECISION_TOL.
    inst = ProtocolInstance.from_channel(ProductChannel(leaky_factor(0.1), 4))
    cat_b, cat_e = catalogues_for(inst)
    assert cat_b.classes == ()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_theta_pi_over_200_gives_bob_no_word_below_the_literal(n):
    # Each qubit's two Bob states are full rank, with smallest eigenvalue
    # sin^2(theta/2) = 6.2e-5, so no two N-qubit Bob states are orthogonal.
    # The N-qubit products of that eigenvalue fall below SPECTRAL_TOL from
    # N = 2 on, and the dense partition found classes at N = 3..7.
    spec = AttackSpec("intercept_resend_angle", n, {"theta": math.pi / 200})
    inst = ProtocolInstance.from_channel(product_attack(spec))
    report = verify_tradeoff(inst, ATTACKS[spec.kind].eve_basis)
    assert report.profile_b.lengths == (n + 1,) * 2**n


@pytest.mark.parametrize("copies", [1, 2, 3, 4])
def test_tol_reaches_the_factor_table(copies):
    # The factor's two Bob states overlap by 1e-8: orthogonal at tol = 1e-7,
    # not at 1e-9, at any number of copies, so a threshold moved by 10x
    # moves the factor decision too.
    states = ProtocolInstance.from_channel(leaky_factor(1e-4)).factor_b
    assert _overlap_table(states, [support_projector(s) for s in states])[0, 1] == pytest.approx(1e-8)
    loose = distinguishable_partition(states, tol=1e-7, copies=copies)
    tight = distinguishable_partition(states, tol=1e-9, copies=copies)
    assert [c.members for c in loose] == [tuple(range(2**copies))]
    assert [c.members for c in tight] == [(m,) for m in range(2**copies)]


def test_a_tighter_tol_keeps_overlapping_messages_apart():
    # At N = 4 each message and its complement overlap by 1e-8, which DECISION_TOL
    # takes for orthogonal (the xfail above); the partition's tol, the one place a
    # threshold moves, keeps them apart.
    inst = ProtocolInstance.from_channel(ProductChannel(leaky_factor(0.1), 4))
    part = distinguishable_partition(inst.rho_b, tol=1e-9)
    assert [c.members for c in part if c.size >= 2] == []


class TestDistinguishableClass:
    def test_members_must_be_sorted_unique(self):
        with pytest.raises(DimensionError):
            DistinguishableClass(members=(2, 1))
        with pytest.raises(DimensionError):
            DistinguishableClass(members=())

    def test_pvm_size_must_match(self):
        p = support_projector(np.diag([1.0, 0.0]))
        with pytest.raises(DimensionError):
            DistinguishableClass(members=(0, 1), pvm=(p,))


def library_factors():
    """Every library factor, a parametrized kind at 11 points spanning its range."""
    for kind, row in ATTACKS.items():
        values = [{}] if row.param is None else [
            {row.param[0]: float(v)} for v in np.linspace(row.param[1], row.param[2], 11)
        ]
        for params in values:
            yield product_attack(AttackSpec(kind, 1, params)).factor


def random_factors(in_qubits):
    """Seeded random isometry factors on ``in_qubits`` qubits: unentangled ones, which
    hand Bob orthogonal pure states, and generic ones with an environment."""
    rng = np.random.default_rng(in_qubits)
    d = 2**in_qubits
    for env_dim in (1, 2, 3):
        for _ in range(3):
            w = random_complex(rng, (2 * env_dim, 1))
            v = np.kron(random_unitary(rng, d), w / np.linalg.norm(w))
            yield isometry_to_channel(v, (2,) * in_qubits, (d,), (2,), env_dim=env_dim)
            if in_qubits == 1:
                v, _ = np.linalg.qr(random_complex(rng, (4 * env_dim, 2)))
                yield isometry_to_channel(v, (2,), (2,), (2,), env_dim=env_dim)
            else:
                yield random_isometry_channel(rng, env_dim)


FACTOR_GROUPS = {
    "library": library_factors,
    "random_one_qubit": lambda: random_factors(1),
    "random_two_qubit": lambda: random_factors(2),
    "split_factor": lambda: [isometry_to_channel(np.eye(4), (2, 2), (2,), (2,))],
}


@pytest.mark.parametrize("group", FACTOR_GROUPS)
def test_factor_partition_matches_the_dense_oracle(group, record_property):
    # At N = 3..5 (the multiples of the factor's qubit count) the factor rule
    # and the N-qubit greedy agree wherever no N-qubit decision is near its
    # threshold; the draws where one is are skipped and counted.
    checked = skipped = 0
    for factor in FACTOR_GROUPS[group]():
        k = len(factor.in_dims)
        for copies in range(-(-3 // k), 5 // k + 1):
            inst = ProtocolInstance.from_channel(ProductChannel(factor, copies))
            if any(near_threshold(inst.family(side)) for side in FAMILY_BASIS):
                skipped += 1
                continue
            for side in FAMILY_BASIS:
                fast = distinguishable_partition(inst.factor_family(side), copies=copies)
                dense = distinguishable_partition(inst.family(side))
                assert [c.members for c in fast] == [c.members for c in dense], (group, copies, side)
                assert all(c.pvm == () for c in fast)
            checked += 1
    record_property("near_threshold_skipped", skipped)
    assert checked > skipped
