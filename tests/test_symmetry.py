"""Symmetry oracles: relations between two reports that need no stored reference.

Metamorphic testing (Chen et al., ACM Computing Surveys 51(1), 2018):
each test transforms a factor in a way the theorem cannot see and
checks that the verifier's report moves as the symmetry says.

(a) A unitary on Bob's output and one on Eve's, ``(U_B (x) U_E) K``,
    keep every orthogonality, trace and norm, so every count, decision,
    Landau-Pollak trace and cross norm stays.  The Shannon sum reads
    fixed bases, so it moves: that is its basis dependence.
(b) A Hadamard on each input qubit, followed by swapping B and E,
    ``SWAP_BE K H``, hands Bob Eve's X family and Eve Bob's Z family, so
    the two profiles swap and each record at (l, m) moves to (m, l).
"""

from functools import reduce
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qid.attacks import ATTACKS, product_attack, standard_attacks
from qid.channels import ProductChannel, QuantumChannel, isometry_to_channel
from qid.operators import VERDICT_TOL
from qid.protocol import DENSE_THETA_LIMIT, FAMILY_BASIS, ProtocolInstance
from qid.tradeoff import verify_tradeoff

from helpers import near_threshold, random_factor, random_unitary

DRAWS = 5
FLOAT_TOL = 1e-9
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
SWAP_BE = np.eye(4, dtype=np.complex128)[[0, 2, 1, 3]]
# Each factor with the basis Eve is read in.  No one-qubit factor gives
# both sides a class, so only the two-qubit identity split into one B
# and one E qubit has cross norms.
FACTORS = {
    spec.kind: (product_attack(spec).factor, ATTACKS[spec.kind].eve_basis)
    for spec in standard_attacks(1)
}
FACTORS["split_factor"] = (isometry_to_channel(np.eye(4), (2, 2), (2,), (2,)), "X")
# (factor, copies): every library factor at N = 1..6, the split factor at N = 2, 4 and 6.
# Up to N = 2 the reports carry the dense records; above it, counts and profiles.
CASES = [(kind, copies) for kind in ATTACKS for copies in range(1, 7)]
CASES += [("split_factor", copies) for copies in (1, 2, 3)]


def instance(factor, kraus, copies):
    """``copies`` copies of a factor with ``factor``'s dimensions and Kraus stack ``kraus``."""
    channel = QuantumChannel(kraus, factor.in_dims, factor.out_dims_b, factor.out_dims_e)
    return ProtocolInstance.from_channel(ProductChannel(channel, copies))


def report(kind, kraus, copies):
    """The report of ``copies`` copies of factor ``kind`` with Kraus stack ``kraus``,
    with the dense records exactly where the global state fits (N <= 2)."""
    factor, eve_basis = FACTORS[kind]
    return verify_tradeoff(instance(factor, kraus, copies), eve_basis)


def rotated_factors(kind, copies):
    """The factor's Kraus stack under ``DRAWS`` seeded Haar pairs (U_B, U_E)."""
    rng = np.random.default_rng([list(FACTORS).index(kind), copies])
    kraus = FACTORS[kind][0].kraus
    return [np.kron(random_unitary(rng, 2), random_unitary(rng, 2)) @ kraus for _ in range(DRAWS)]


def assert_same_records(got, want):
    """Equal records field by field, with floats equal within ``FLOAT_TOL``."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for key, value in b._asdict().items():
            if isinstance(value, float):
                assert abs(getattr(a, key) - value) <= FLOAT_TOL, key
            else:
                assert getattr(a, key) == value, key


def assert_rotation_keeps_every_record(got, base):
    """Relation (a): everything but the Shannon sum is unchanged."""
    assert got.grid == base.grid
    assert (got.profile_b, got.profile_e) == (base.profile_b, base.profile_e)
    assert got.corollary1 == base.corollary1
    assert_same_records(got.lp_records, base.lp_records)
    assert_same_records(got.cross_norms, base.cross_norms)


def assert_families_exchanged(got, base):
    """Relation (b): the profiles swap and each record at (l, m) moves to (m, l)."""
    at_lm, at_entries = attrgetter("l", "m"), attrgetter("entry_b", "entry_e")
    assert got.profile_b.lengths == base.profile_e.lengths
    assert got.profile_e.lengths == base.profile_b.lengths
    grid = [g._replace(l=g.m, m=g.l, count_b=g.count_e, count_e=g.count_b) for g in base.grid]
    assert got.grid == tuple(sorted(grid, key=at_lm))
    lp = [r._replace(l=r.m, m=r.l) for r in base.lp_records]
    assert_same_records(got.lp_records, sorted(lp, key=at_lm))
    norms = [r._replace(entry_b=r.entry_e, entry_e=r.entry_b) for r in base.cross_norms]
    assert_same_records(got.cross_norms, sorted(norms, key=at_entries))


@pytest.mark.parametrize("kind, copies", CASES)
def test_output_unitaries_keep_every_record(kind, copies):
    base = report(kind, FACTORS[kind][0].kraus, copies)
    assert bool(base.lp_records) == (base.n <= DENSE_THETA_LIMIT)
    shannon_moves = []
    for kraus in rotated_factors(kind, copies):
        got = report(kind, kraus, copies)
        assert_rotation_keeps_every_record(got, base)
        shannon_moves.append(abs(got.shannon.sum - base.shannon.sum))
    # Exempt until the information check is basis-free, but it must move.
    assert max(shannon_moves) > 1e-6


@pytest.mark.parametrize("kind, copies", CASES)
def test_hadamard_and_swap_exchange_the_families(kind, copies):
    factor = FACTORS[kind][0]
    hadamards = reduce(np.kron, [HADAMARD] * len(factor.in_dims))
    for kraus in [factor.kraus, *rotated_factors(kind, copies)]:
        base = report(kind, kraus, copies)
        assert_families_exchanged(report(kind, SWAP_BE @ kraus @ hadamards, copies), base)


# Random one-qubit factors (``helpers.random_factor``), each drawn from a seed.
RANDOM_DRAWS = 200


def near_a_threshold(inst, rep):
    """Whether a decision behind ``rep`` lies within 10x of its threshold: an
    eigenvalue or overlap of a family the partition reads, or an LP or
    cross-norm margin against ``VERDICT_TOL``."""
    families = [inst.family(s).decided for s in FAMILY_BASIS]
    margins = np.array(
        [r.lhs - r.rhs for r in rep.lp_records] + [r.norm - r.limit for r in rep.cross_norms]
    )
    near_margin = ((margins >= VERDICT_TOL / 10) & (margins <= 10 * VERDICT_TOL)).any()
    return near_margin or any(near_threshold(f) for f in families)


def test_random_factors_keep_both_relations(request):
    # Relation (a) under one Haar pair, and relation (b) on the rotated factor,
    # for RANDOM_DRAWS draws at N <= 6.  Draws near a threshold are skipped,
    # counted, and replaced by new draws.
    checked, skipped = [], []

    @settings(max_examples=RANDOM_DRAWS, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        copies=st.integers(1, 6),
        env_dim=st.integers(1, 3),
        shape=st.sampled_from(["product", "generic", "leaky"]),
        leak=st.floats(-9.0, -1.0),
        aligned=st.booleans(),
    )
    def draw(seed, copies, env_dim, shape, leak, aligned):
        rng = np.random.default_rng(seed)
        factor = random_factor(rng, shape, env_dim, leak, aligned)
        inst = instance(factor, factor.kraus, copies)
        base = verify_tradeoff(inst, "X")
        if near_a_threshold(inst, base):
            skipped.append(seed)
            assume(False)
        rotated = np.kron(random_unitary(rng, 2), random_unitary(rng, 2)) @ factor.kraus
        got = verify_tradeoff(instance(factor, rotated, copies), "X")
        assert_rotation_keeps_every_record(got, base)
        swapped = verify_tradeoff(instance(factor, SWAP_BE @ rotated @ HADAMARD, copies), "X")
        assert_families_exchanged(swapped, got)
        checked.append(seed)

    draw()
    request.node.user_properties.append(("near_threshold_skipped", len(skipped)))
    assert len(checked) >= RANDOM_DRAWS
