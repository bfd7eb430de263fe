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

from dataclasses import replace
from functools import reduce
from operator import attrgetter

import numpy as np
import pytest

from qid.attacks import ATTACKS, product_attack, standard_attacks
from qid.channels import ProductChannel, QuantumChannel, isometry_to_channel
from qid.protocol import DENSE_THETA_LIMIT, ProtocolInstance
from qid.tradeoff import verify_tradeoff

from helpers import random_unitary

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


def report(kind, kraus, copies):
    """The report of ``copies`` copies of factor ``kind`` with Kraus stack ``kraus``,
    with the dense records exactly where the global state fits (N <= 2)."""
    factor, eve_basis = FACTORS[kind]
    channel = QuantumChannel(kraus, factor.in_dims, factor.out_dims_b, factor.out_dims_e)
    inst = ProtocolInstance.from_channel(ProductChannel(channel, copies))
    return verify_tradeoff(inst, eve_basis)


def rotated_factors(kind, copies):
    """The factor's Kraus stack under ``DRAWS`` seeded Haar pairs (U_B, U_E)."""
    rng = np.random.default_rng([list(FACTORS).index(kind), copies])
    kraus = FACTORS[kind][0].kraus
    return [np.kron(random_unitary(rng, 2), random_unitary(rng, 2)) @ kraus for _ in range(DRAWS)]


def assert_same_records(got, want):
    """Equal records field by field, with floats equal within ``FLOAT_TOL``."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for key, value in vars(b).items():
            if isinstance(value, float):
                assert abs(getattr(a, key) - value) <= FLOAT_TOL, key
            else:
                assert getattr(a, key) == value, key


@pytest.mark.parametrize("kind, copies", CASES)
def test_output_unitaries_keep_every_record(kind, copies):
    base = report(kind, FACTORS[kind][0].kraus, copies)
    assert bool(base.lp_records) == (base.n <= DENSE_THETA_LIMIT)
    shannon_moves = []
    for kraus in rotated_factors(kind, copies):
        got = report(kind, kraus, copies)
        assert got.grid == base.grid
        assert (got.profile_b, got.profile_e) == (base.profile_b, base.profile_e)
        assert got.corollary1 == base.corollary1
        assert_same_records(got.lp_records, base.lp_records)
        assert_same_records(got.cross_norms, base.cross_norms)
        shannon_moves.append(abs(got.shannon.sum - base.shannon.sum))
    # Exempt until the information check is basis-free, but it must move.
    assert max(shannon_moves) > 1e-6


@pytest.mark.parametrize("kind, copies", CASES)
def test_hadamard_and_swap_exchange_the_families(kind, copies):
    factor = FACTORS[kind][0]
    hadamards = reduce(np.kron, [HADAMARD] * len(factor.in_dims))
    at_lm, at_entries = attrgetter("l", "m"), attrgetter("entry_b", "entry_e")
    for kraus in [factor.kraus, *rotated_factors(kind, copies)]:
        base = report(kind, kraus, copies)
        got = report(kind, SWAP_BE @ kraus @ hadamards, copies)
        assert got.profile_b.lengths == base.profile_e.lengths
        assert got.profile_e.lengths == base.profile_b.lengths
        grid = [replace(g, l=g.m, m=g.l, count_b=g.count_e, count_e=g.count_b) for g in base.grid]
        assert got.grid == tuple(sorted(grid, key=at_lm))
        lp = [replace(r, l=r.m, m=r.l) for r in base.lp_records]
        assert_same_records(got.lp_records, sorted(lp, key=at_lm))
        norms = [replace(r, entry_b=r.entry_e, entry_e=r.entry_b) for r in base.cross_norms]
        assert_same_records(got.cross_norms, sorted(norms, key=at_entries))
