import math
from fractions import Fraction

import numpy as np
import pytest

from qid.attacks import ATTACKS, standard_attacks
from qid.complexity import StructuredProjector, program_projector, proxy_complexity
from qid.errors import DimensionError, ValidationError
from qid.operators import ket_bra, operator_norm
from qid.protocol import ProtocolInstance, encode, theta_matrix
from qid.tradeoff import (
    LPRecord,
    average_complexity_check,
    catalogues_for,
    corollary_threshold,
    landau_pollak_check,
    max_complexity_corollary,
    mutual_information,
    outcome_distribution,
    shannon_tradeoff_check,
    tradeoff_bound,
    verify_tradeoff,
)

from helpers import (
    DENSE_CASES,
    dense_case_instance,
    random_density,
    random_isometry_channel,
    random_projector,
    split_factor_instance,
)


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestLandauPollak:
    def test_single_projector(self):
        rng = np.random.default_rng(41)
        p = random_projector(rng, 4, 2)
        lp = landau_pollak_check([p], random_density(rng, 4))
        assert lp.rhs == 1.0
        assert lp.lhs <= 1.0 + 1e-12
        assert lp.holds

    def test_bisecting_angle_closed_form(self):
        # 1-qubit trigonometry oracle: projectors on |0> and |+> probed
        # at the bisecting angle pi/8 give lhs 2cos^2(pi/8), rhs 2.
        p0 = ket_bra(encode(0, "Z", 1))
        pplus = ket_bra(encode(0, "X", 1))
        psi = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)], dtype=complex)
        lp = landau_pollak_check([p0, pplus], ket_bra(psi))
        assert abs(lp.lhs - 2 * math.cos(math.pi / 8) ** 2) < 1e-12
        assert abs(lp.rhs - 2.0) < 1e-12
        assert lp.holds

    def test_random_families_hold(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            count = int(rng.integers(1, 5))
            family = [
                random_projector(rng, dim, int(rng.integers(1, dim + 1)))
                for _ in range(count)
            ]
            lp = landau_pollak_check(family, random_density(rng, dim))
            assert lp.holds

    def test_program_projector_families_with_theta(self, instance):
        for n in (1, 2):
            for spec in standard_attacks(n):
                inst = instance(spec.kind, n)
                theta = theta_matrix(inst)
                cat_b, cat_e = catalogues_for(inst)
                db, de = inst.channel.dim_b, inst.channel.dim_e
                family = [
                    program_projector(cat_b, i, db, de).dense()
                    for i in range(len(cat_b.classes))
                ] + [
                    program_projector(cat_e, j, db, de).dense()
                    for j in range(len(cat_e.classes))
                ]
                assert landau_pollak_check(family, theta).holds

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            landau_pollak_check([np.eye(2)], np.eye(4) / 4)


class TestConjugateOverlap:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_two_to_minus_n(self, n):
        expected = 2.0**-n
        for x in range(2**n):
            xx = ket_bra(encode(x, "X", n))
            for z in range(2**n):
                norm = operator_norm(xx @ ket_bra(encode(z, "Z", n)) @ xx)
                assert abs(norm - expected) < 1e-12

    def test_consistent_with_squared_inner_product(self):
        for x in range(4):
            xx = ket_bra(encode(x, "X", 2))
            for z in range(4):
                ip = abs(np.vdot(encode(x, "X", 2), encode(z, "Z", 2))) ** 2
                assert abs(operator_norm(xx @ ket_bra(encode(z, "Z", 2)) @ xx) - ip) < 1e-12


class TestCrossNorm:
    def test_cross_attack_entry_pairs_stay_below_limit(self, instance):
        # P_t Q_s pairs built from different attacks share the total
        # space, and the norm bound only uses their block structure.
        for n in (1, 2):
            bob_projs, eve_projs = [], []
            for spec in standard_attacks(n):
                inst = instance(spec.kind, n)
                cat_b, cat_e = catalogues_for(inst)
                db, de = inst.channel.dim_b, inst.channel.dim_e
                bob_projs += [
                    program_projector(cat_b, i, db, de)
                    for i in range(len(cat_b.classes))
                ]
                eve_projs += [
                    program_projector(cat_e, j, db, de)
                    for j in range(len(cat_e.classes))
                ]
            assert bob_projs and eve_projs
            limit = 2.0 ** (-n / 2.0)
            for p in bob_projs:
                for q in eve_projs:
                    assert operator_norm(p.dense() @ q.dense()) <= limit + 1e-9

    def test_zero_blocks_give_zero_norm(self, instance):
        inst = instance("identity", 1)
        cat_b, _ = catalogues_for(inst)
        p = program_projector(cat_b, 0, 2, 2)
        q = StructuredProjector(
            n=1,
            side="E",
            dim_b=2,
            dim_e=2,
            terms=((0, np.zeros((2, 2), dtype=complex)),),
        )
        assert operator_norm(p.dense() @ q.dense()) == 0.0


class TestBound:
    def test_examples(self):
        assert tradeoff_bound(0, 0, 1) == 6.0
        assert tradeoff_bound(1, 1, 3) == 24.0
        assert tradeoff_bound(2, 2, 1) == 18.0

    def test_nontrivial_regime_boundary(self):
        for n in range(1, 7):
            for l in range(n + 2):
                for m in range(n + 2):
                    nontrivial = tradeoff_bound(l, m, n) <= 2.0 * 2**n + 1e-9
                    assert nontrivial == (l + m <= n - 3)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValidationError):
            tradeoff_bound(-1, 0, 2)

    def test_theorem_form_is_exact_for_even_exponent(self):
        # the theorem's final form 2^n (1 + 2^((l+m-n)/2 + c)) at c = 0 is
        # tradeoff_bound without its +3 pre-constant, and a rational when l+m-n
        # is even
        def theorem_form(l, m, n):
            return Fraction(2) ** n * (1 + Fraction(2) ** ((l + m - n) // 2))

        assert theorem_form(12, 8, 24) == Fraction(5 * 2**24, 4)
        for n in range(1, 9):
            for l in range(3, n + 5):
                for m in range(n + 2):
                    if (l + m - n) % 2 == 0:
                        assert theorem_form(l, m, n) == tradeoff_bound(l - 3, m, n)


class TestVerifyTradeoff:
    def test_measure_x_counts(self, instance):
        report = verify_tradeoff(instance("measure_x", 3), ATTACKS["measure_x"].eve_basis)
        assert all(report.profile_b.count(l) == 0 for l in range(4))
        assert report.profile_e.count(1) == 8
        assert all(g.holds for g in report.grid)

    def test_identity_counts(self, instance):
        report = verify_tradeoff(instance("identity", 2), ATTACKS["identity"].eve_basis)
        assert report.profile_b.count(1) == 4
        assert all(report.profile_e.count(m) == 0 for m in range(3))
        assert report.all_hold

    def test_cloner_literal_only(self, instance):
        report = verify_tradeoff(instance("universal_cloner", 1), ATTACKS["universal_cloner"].eve_basis)
        assert report.profile_b.count(1) == 0
        assert report.profile_b.count(2) == 2
        assert report.profile_e.count(2) == 2
        point = next(g for g in report.grid if (g.l, g.m) == (2, 2))
        assert point.count_b + point.count_e == 4
        assert point.bound == 18.0
        assert report.all_hold

    def test_dense_records_populated_at_small_n(self, instance):
        report = verify_tradeoff(instance("measure_z", 1), ATTACKS["measure_z"].eve_basis)
        assert len(report.lp_records) == 9
        assert all(r.holds for r in report.lp_records)

    @pytest.mark.parametrize("kind, n", DENSE_CASES)
    def test_dense_records_equal_the_per_family_checks(self, instance, kind, n):
        inst = dense_case_instance(instance, kind, n)
        report = verify_tradeoff(inst, "X")
        theta = theta_matrix(inst)
        cat_b, cat_e = catalogues_for(inst)
        db, de = inst.channel.dim_b, inst.channel.dim_e
        bob, eve = (
            [(w, program_projector(cat, i, db, de).dense()) for i, w in enumerate(cat.lengths)]
            for cat in (cat_b, cat_e)
        )
        assert len(report.cross_norms) == len(bob) * len(eve)
        for rec in report.cross_norms:
            assert rec.norm == operator_norm(bob[rec.entry_b][1] @ eve[rec.entry_e][1])
        assert len(report.lp_records) == (n + 2) ** 2
        for rec in report.lp_records:
            family = [p for w, p in bob if w <= rec.l] + [q for w, q in eve if w <= rec.m]
            assert rec == LPRecord(rec.l, rec.m, **landau_pollak_check(family, theta)._asdict())

    def test_split_factor_mixes_both_sides(self):
        report = verify_tradeoff(split_factor_instance(), "X")
        assert [(r.entry_b, r.entry_e) for r in report.cross_norms] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(abs(r.norm - 0.5) < 1e-12 and r.holds for r in report.cross_norms)
        mixed = [r for r in report.lp_records if r.l >= 2 and r.m >= 2]
        assert len(mixed) == 4 and all(r.lhs == pytest.approx(2.0) and r.holds for r in mixed)

    def test_structured_only_at_n3(self, instance):
        report = verify_tradeoff(instance("cnot_probe", 3), ATTACKS["cnot_probe"].eve_basis)
        assert report.lp_records == ()
        assert report.all_hold


class TestCorollaries:
    def test_max_complexity_examples(self, instance):
        cases = [
            ("cnot_probe", 3, 1, 4, 0),
            ("identity", 4, 1, 5, 1),
            ("measure_x", 4, 5, 1, 1),
        ]
        for kind, n, max_b, max_e, threshold in cases:
            cat_b, cat_e = catalogues_for(instance(kind, n))
            check = max_complexity_corollary(proxy_complexity(cat_b), proxy_complexity(cat_e))
            assert (check.max_b, check.max_e) == (max_b, max_e)
            assert check.threshold == threshold
            assert check.holds

    def test_no_cloning_report(self, instance):
        checks = {}
        for spec in standard_attacks(4):
            cat_b, cat_e = catalogues_for(instance(spec.kind, 4))
            checks[spec.kind] = max_complexity_corollary(
                proxy_complexity(cat_b), proxy_complexity(cat_e)
            )
        assert all(check.holds for check in checks.values())
        assert (checks["cnot_probe"].max_b, checks["cnot_probe"].max_e) == (1, 5)
        assert (checks["measure_x"].max_b, checks["measure_x"].max_e) == (5, 1)
        assert (checks["universal_cloner"].max_b, checks["universal_cloner"].max_e) == (5, 5)
        # a perfect cloner (both maxima 1) only contradicts the
        # corollary once the threshold n - 3 exceeds 2, i.e. from n = 6
        assert not 2 < corollary_threshold(4)
        assert corollary_threshold(6) > 2 >= corollary_threshold(5)


class TestOutcomeDistribution:
    def test_identity_diagonal_table(self, instance):
        table = outcome_distribution(instance("identity", 2).rho_b, (2, 2), "Z")
        np.testing.assert_allclose(table, np.eye(4) / 4, atol=1e-12)

    def test_blind_side_gives_product_table(self, instance):
        table = outcome_distribution(instance("measure_x", 2).rho_b, (2, 2), "Z")
        rows = table.sum(axis=1)
        cols = table.sum(axis=0)
        np.testing.assert_allclose(table, np.outer(rows, cols), atol=1e-12)

    def test_rows_sum_to_uniform_weight(self, instance):
        table = outcome_distribution(instance("universal_cloner", 2).sigma_e, (2, 2), "X")
        np.testing.assert_allclose(table.sum(axis=1), np.full(4, 0.25), atol=1e-12)

    def test_non_qubit_register_rejected(self):
        # Eve's side of the random isometry is one qutrit: no qubit basis to read.
        ch = random_isometry_channel(np.random.default_rng(44))
        inst = ProtocolInstance.from_channel(ch)
        assert inst.channel.out_dims_e == (3,)
        with pytest.raises(DimensionError, match="qubit"):
            shannon_tradeoff_check(inst, "Z")


class TestMutualInformation:
    def test_perfect_correlation(self):
        assert abs(mutual_information(np.eye(8) / 8) - 3.0) < 1e-12

    def test_independence(self):
        table = np.outer([0.3, 0.7], [0.25, 0.25, 0.5])
        assert mutual_information(table) == 0.0

    def test_binary_symmetric_channel(self):
        table = np.array([[0.375, 0.125], [0.125, 0.375]])
        expected = 1.0 - binary_entropy(0.25)
        assert abs(mutual_information(table) - expected) < 1e-12

    def test_nonnegative_and_bounded_by_marginals(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            table = rng.random((4, 5))
            table /= table.sum()
            mi = mutual_information(table)
            rows = table.sum(axis=1)
            cols = table.sum(axis=0)
            h_rows = -np.sum(rows * np.log2(rows))
            h_cols = -np.sum(cols * np.log2(cols))
            assert 0.0 <= mi <= min(h_rows, h_cols) + 1e-9

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            mutual_information(np.ones((2, 2)))


class TestShannon:
    def test_identity_saturates(self, instance):
        check = shannon_tradeoff_check(instance("identity", 2), ATTACKS["identity"].eve_basis)
        assert abs(check.i_bz - 2.0) < 1e-9
        assert abs(check.i_ex) < 1e-9
        assert abs(check.sum - 2.0) < 1e-9

    def test_measure_x_saturates_from_eve(self, instance):
        check = shannon_tradeoff_check(instance("measure_x", 2), ATTACKS["measure_x"].eve_basis)
        assert abs(check.i_bz) < 1e-9
        assert abs(check.i_ex - 2.0) < 1e-9

    def test_breidbart_single_qubit(self, instance):
        eve_basis = ATTACKS["intercept_resend_angle"].eve_basis
        check = shannon_tradeoff_check(instance("intercept_resend_angle", 1), eve_basis)
        # closed forms: Bob sees a BSC(1/4), Eve a BSC(sin^2(pi/8))
        assert abs(check.i_bz - (1.0 - binary_entropy(0.25))) < 1e-9
        assert abs(check.i_ex - (1.0 - binary_entropy(math.sin(math.pi / 8) ** 2))) < 1e-9
        assert check.sum < 1.0
        assert check.holds

    def test_all_attacks_hold_at_n2(self, instance):
        for spec in standard_attacks(2):
            check = shannon_tradeoff_check(instance(spec.kind, 2), ATTACKS[spec.kind].eve_basis)
            assert check.holds, spec.label()


class TestAverageAndSeparation:
    def test_identity_average(self, instance):
        cat_b, cat_e = catalogues_for(instance("identity", 2))
        check = average_complexity_check(proxy_complexity(cat_b), proxy_complexity(cat_e))
        assert check.avg_sum == 4.0
        assert check.reference == 2.0

    def test_synthetic_profile_at_n24(self):
        # 3/4 of the messages cost n/2 (Bob) and n/3 (Eve), the rest cost n,
        # so at l = n/2, m = n/3 both sides count the 3/4 share.
        def profile(n):
            l, m = n // 2, n // 3
            cheap, rest = 3 * 2**n // 4, 2**n // 4
            avg_sum = Fraction(cheap * l + rest * n, 2**n) + Fraction(cheap * m + rest * n, 2**n)
            return l, m, avg_sum, 2 * cheap

        l, m, avg_sum, count_sum = profile(24)
        assert avg_sum == Fraction(9 * 24, 8)
        assert avg_sum >= 24
        assert count_sum == 3 * 2**24 // 2
        # the theorem's final form 2^n (1 + 2^((l+m-n)/2)), exact at even l+m-n
        theorem_bound = Fraction(2) ** 24 * (1 + Fraction(2) ** ((l + m - 24) // 2))
        assert theorem_bound == Fraction(5 * 2**24, 4)
        assert count_sum > theorem_bound
        # the pre-constant comparator only separates for n > 30
        assert not count_sum > tradeoff_bound(l, m, 24)
        l, m, _, count_sum = profile(36)
        assert count_sum > tradeoff_bound(l, m, 36)
