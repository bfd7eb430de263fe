from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qid.complexity import (
    DecoderCatalogue,
    _huffman_lengths,
    StructuredProjector,
    build_catalogue,
    cumulative_projector,
    expectation_identity_check,
    program_projector,
    proxy_complexity,
)
from qid.distinguishability import DistinguishableClass, distinguishable_partition
from qid.errors import CapacityError, ValidationError
from qid.operators import ket_bra, tensor
from qid.protocol import theta_matrix
from qid.tradeoff import catalogues_for

from helpers import DENSE_CASES, dense_case_instance, expectation_at_level, kraft_sum


def classes_from_members(groups):
    return [DistinguishableClass(members=tuple(sorted(g))) for g in groups]


class TestBuildCatalogue:
    def test_single_class_gets_bare_prefix(self, instance):
        part = distinguishable_partition(instance("identity", 2).rho_b)
        cat = build_catalogue(part, 2, "B")
        assert len(cat.classes) == 1
        assert cat.lengths == (1,)
        assert proxy_complexity(cat).lengths == (1, 1, 1, 1)

    def test_all_singletons_give_empty_catalogue(self, instance):
        part = distinguishable_partition(instance("measure_x", 2).rho_b)
        cat = build_catalogue(part, 2, "B")
        assert cat.classes == () and cat.lengths == ()
        assert proxy_complexity(cat).lengths == (3, 3, 3, 3)

    def test_three_to_one_split_is_equal_depth(self):
        # sizes 6 and 2 out of 8 messages: two-symbol Huffman is one
        # bit each, so both classes sit at code length 2
        part = classes_from_members([range(6), (6, 7)])
        cat = build_catalogue(part, 3, "B")
        assert cat.lengths == (2, 2)

    def test_catalogue_is_deterministic(self):
        part = classes_from_members([(2, 3, 4, 5), (0, 1), (6, 7)])
        first = build_catalogue(part, 3, "B")
        second = build_catalogue(list(reversed(part)), 3, "B")
        assert [c.members for c in first.classes] == [(0, 1), (2, 3, 4, 5), (6, 7)]
        assert first == second
        assert first.lengths == (3, 2, 3)

    @pytest.mark.parametrize(
        "weights, lengths",
        [
            ([2, 2, 2, 2, 4], [3, 3, 2, 2, 2]),
            ([2, 2, 4], [2, 2, 1]),
            ([6, 2], [1, 1]),
            ([5], [0]),
            ([], []),
        ],
    )
    def test_huffman_ties_pop_in_push_order(self, weights, lengths):
        assert _huffman_lengths(weights) == lengths

    def test_partition_must_cover(self):
        with pytest.raises(ValidationError):
            build_catalogue(classes_from_members([(0, 1)]), 2, "B")

    def test_duplicate_membership_rejected(self):
        cls = DistinguishableClass(members=(0, 1))
        with pytest.raises(ValidationError):
            DecoderCatalogue(n=1, side="B", classes=(cls, cls), lengths=(2, 2))

    def test_prefix_collision_rejected(self):
        # Kraft: 2^-1 + 2^-2 of the decoders plus the literal half exceed 1.
        classes = tuple(classes_from_members([(0, 1), (2, 3)]))
        with pytest.raises(ValidationError, match="Kraft"):
            DecoderCatalogue(n=2, side="B", classes=classes, lengths=(1, 2))

    def test_literal_block_collision_rejected(self):
        # Two decoders of length 1 fill the code space the literal block needs.
        classes = tuple(classes_from_members([(0, 1), (2, 3)]))
        with pytest.raises(ValidationError, match="Kraft"):
            DecoderCatalogue(n=2, side="B", classes=classes, lengths=(1, 1))

    @pytest.mark.parametrize("lengths", [(0,), (-2,), (0, 5)])
    def test_nonpositive_length_rejected(self, lengths):
        classes = tuple(classes_from_members([(0, 1), (2, 3)])[: len(lengths)])
        with pytest.raises(ValidationError, match="Kraft"):
            DecoderCatalogue(n=2, side="B", classes=classes, lengths=lengths)

    @pytest.mark.parametrize("lengths", [(), (2, 2)])
    def test_one_length_per_class(self, lengths):
        cls = DistinguishableClass(members=(0, 1))
        with pytest.raises(ValidationError, match="classes but"):
            DecoderCatalogue(n=1, side="B", classes=(cls,), lengths=lengths)

    @pytest.mark.parametrize("length", [True, 1.5, 2.0])
    def test_non_integer_length_rejected(self, length):
        cls = DistinguishableClass(members=(0, 1))
        with pytest.raises(ValidationError, match="must be integers"):
            DecoderCatalogue(n=1, side="B", classes=(cls,), lengths=(length,))

    @pytest.mark.parametrize("members", [(-1, 0), (3, 4)])
    def test_members_out_of_range_rejected(self, members):
        cls = DistinguishableClass(members=members)
        with pytest.raises(ValidationError, match="leaves the messages"):
            DecoderCatalogue(n=2, side="B", classes=(cls,), lengths=(1,))


@st.composite
def random_partitions(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    messages = list(range(2**n))
    perm = draw(st.permutations(messages))
    groups = []
    current = [perm[0]]
    for msg in perm[1:]:
        if draw(st.booleans()):
            groups.append(current)
            current = [msg]
        else:
            current.append(msg)
    groups.append(current)
    return n, classes_from_members(groups)


class TestCatalogueProperties:
    @settings(max_examples=80, deadline=None)
    @given(random_partitions())
    def test_kraft_and_length_ceiling(self, case):
        n, part = case
        cat = build_catalogue(part, n, "B")
        assert kraft_sum(cat) == (1 if cat.classes else Fraction(1, 2))
        profile = proxy_complexity(cat)
        assert all(1 <= v <= n + 1 for v in profile.lengths)
        assert profile.count(n + 1) == 2**n

    @settings(max_examples=40, deadline=None)
    @given(random_partitions())
    def test_rebuild_is_identical(self, case):
        n, part = case
        a = build_catalogue(part, n, "B")
        b = build_catalogue(part, n, "B")
        assert a == b

    def test_kraft_is_exactly_one_for_complete_code(self, instance):
        part = distinguishable_partition(instance("identity", 2).rho_b)
        cat = build_catalogue(part, 2, "B")
        assert kraft_sum(cat) == Fraction(1)


class TestProxyComplexity:
    def test_lengths_hit_literal_ceiling_for_blind_side(self, instance):
        cat_b, cat_e = catalogues_for(instance("cnot_probe", 2))
        assert proxy_complexity(cat_b).lengths == (1, 1, 1, 1)
        assert proxy_complexity(cat_e).lengths == (3, 3, 3, 3)

    def test_counts(self, instance):
        cat_b, _ = catalogues_for(instance("identity", 2))
        profile = proxy_complexity(cat_b)
        assert profile.count(0) == 0
        assert profile.count(1) == 4
        cat_b_mx, _ = catalogues_for(instance("measure_x", 2))
        profile_mx = proxy_complexity(cat_b_mx)
        assert profile_mx.count(2) == 0
        assert profile_mx.count(3) == 4

    def test_adding_an_entry_never_lengthens(self):
        part = classes_from_members([(0, 1), (2, 3), (4, 5), (6, 7)])
        full = build_catalogue(part, 3, "B")
        reduced = DecoderCatalogue(
            n=3, side="B", classes=full.classes[1:], lengths=full.lengths[1:]
        )
        full_profile = proxy_complexity(full)
        reduced_profile = proxy_complexity(reduced)
        assert all(
            a <= b for a, b in zip(full_profile.lengths, reduced_profile.lengths)
        )


def mixed_basis_partition():
    """Two size-2 classes on a 2-qubit receiver space.

    Models an attack reading qubit 1 in Z and scrambling qubit 2: the
    four states |z1><z1| (x) 1/2 pair up by the first bit.
    """
    states = np.stack([tensor(ket_bra(np.eye(2)[b1]), np.eye(2) / 2) for b1 in (0, 0, 1, 1)])
    return distinguishable_partition(states)


class TestProgramProjectors:
    def test_dense_projector_is_projection(self, instance):
        inst = instance("identity", 1)
        cat_b, _ = catalogues_for(inst)
        proj = program_projector(cat_b, 0, 2, 2).dense()
        np.testing.assert_allclose(proj, proj.conj().T, atol=1e-12)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)

    def test_distinct_entries_are_orthogonal(self):
        part = mixed_basis_partition()
        assert [c.members for c in part] == [(0, 2), (1, 3)]
        cat = build_catalogue(part, 2, "B")
        p0 = program_projector(cat, 0, 4, 2).dense()
        p1 = program_projector(cat, 1, 4, 2).dense()
        np.testing.assert_allclose(p0 @ p1, np.zeros_like(p0), atol=1e-12)

    def test_trace_counts_ranks_times_environment(self):
        # tr(sum_z Z_z (x) E_z (x) 1_E) = dim_E * sum_z rank(E_z)
        part = mixed_basis_partition()
        cat = build_catalogue(part, 2, "B")
        proj = program_projector(cat, 0, 4, 2)
        ranks = sum(np.trace(m).real for _, m in proj.terms)
        assert abs(np.trace(proj.dense()).real - 2 * ranks) < 1e-10

    def test_dense_form_past_the_side_limit_refused(self):
        # 2^5 messages times 16 x 16 receiver dimensions: a side of 8192.
        proj = StructuredProjector(n=5, side="E", dim_b=16, dim_e=16, terms=())
        with pytest.raises(CapacityError, match="4096"):
            proj.dense()

    def test_entry_without_pvm_rejected(self, instance):
        cat_b, _ = catalogues_for(instance("universal_cloner", 1))
        assert cat_b.classes == ()
        with pytest.raises(ValidationError, match="no class 0 in a catalogue of 0 classes"):
            program_projector(cat_b, 0, 2, 2)

    def test_negative_index_rejected(self):
        cat = build_catalogue(mixed_basis_partition(), 2, "B")
        assert len(cat.classes) == 2
        with pytest.raises(ValidationError, match="no class -1 in a catalogue of 2 classes"):
            program_projector(cat, -1, 4, 2)


class TestCumulativeProjector:
    def test_zero_below_shortest_codeword(self, instance):
        inst = instance("identity", 1)
        cat_b, _ = catalogues_for(inst)
        assert cumulative_projector(cat_b, 0, 2, 2).terms == ()

    def test_saturates_to_full_sum(self, instance):
        inst = instance("identity", 2)
        cat_b, _ = catalogues_for(inst)
        low = cumulative_projector(cat_b, 1, 4, 4).dense()
        high = cumulative_projector(cat_b, 99, 4, 4).dense()
        np.testing.assert_array_equal(low, high)

    def test_entry_without_pvm_rejected(self):
        # Its messages would count toward the catalogue but carry no projector.
        cls = DistinguishableClass(members=(0, 1))
        cat = DecoderCatalogue(n=1, side="B", classes=(cls,), lengths=(1,))
        assert cumulative_projector(cat, 0, 2, 2).terms == ()
        with pytest.raises(ValidationError, match="PVM"):
            cumulative_projector(cat, 1, 2, 2)


class TestExpectationIdentity:
    def test_identity_attack_counts_everything(self, instance):
        inst = instance("identity", 1)
        cat_b, _ = catalogues_for(inst)
        chk = expectation_identity_check(inst, cat_b, theta_matrix(inst))[1]
        assert abs(chk.lhs - 1.0) < 1e-12
        assert abs(chk.lhs_dense - 1.0) < 1e-10
        assert chk.rhs == 0.5 * 2
        assert chk.agree

    def test_blind_side_counts_nothing(self, instance):
        inst = instance("measure_x", 2)
        cat_b, _ = catalogues_for(inst)
        checks = expectation_identity_check(inst, cat_b, theta_matrix(inst))
        assert [chk.l for chk in checks] == [0, 1, 2, 3]
        for chk in checks[:3]:
            assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.lhs_dense == 0.0

    def test_structured_and_dense_agree_for_library(self, instance):
        from qid.attacks import standard_attacks

        for n in (1, 2):
            for spec in standard_attacks(n):
                inst = instance(spec.kind, n)
                theta = theta_matrix(inst)
                for cat in catalogues_for(inst):
                    for chk in expectation_identity_check(inst, cat, theta):
                        assert abs(chk.lhs - chk.lhs_dense) < 1e-10
                        assert chk.agree

    @pytest.mark.parametrize("kind, n", DENSE_CASES)
    def test_records_equal_the_per_level_computation(self, instance, kind, n):
        inst = dense_case_instance(instance, kind, n)
        theta = theta_matrix(inst)
        for cat in catalogues_for(inst):
            expected = [expectation_at_level(inst, cat, l, theta) for l in range(n + 2)]
            assert expectation_identity_check(inst, cat, theta) == expected
