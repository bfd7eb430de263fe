import math

import numpy as np
import pytest

import qid.attacks as attacks_mod
import qid.channels as channels_mod
from qid.attacks import ATTACKS, AttackSpec, make_attack, product_attack, standard_attacks
from qid.channels import validate_channel, vector_marginals
from qid.errors import CapacityError, ValidationError
from qid.operators import tensor
from qid.protocol import basis_table

from helpers import permutation_matrix


def marginals(channel, msg, basis, n):
    return vector_marginals(channel, basis_table(basis, n)[msg])


class TestAttackSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            AttackSpec("teleport", 1)

    def test_rejects_bad_params(self):
        with pytest.raises(ValidationError):
            AttackSpec("depolarize", 1, {"p": 1.5})
        with pytest.raises(ValidationError):
            AttackSpec("intercept_resend_angle", 1, {"theta": 2.0})
        with pytest.raises(ValidationError):
            AttackSpec("identity", 1, {"p": 0.1})
        with pytest.raises(ValidationError):
            AttackSpec("depolarize", 1, {})

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_fewer_than_one_qubit(self, n):
        with pytest.raises(ValidationError, match="n >= 1"):
            AttackSpec("identity", n)

    def test_label_is_deterministic(self):
        a = AttackSpec("depolarize", 2, {"p": 0.25})
        assert a.label() == "depolarize_p0.25"
        assert AttackSpec("identity", 3).label() == "identity"


class TestSingleQubitOracles:
    def test_measure_x_erases_z_and_records_x(self, channel):
        ch = channel("measure_x", 1)
        for z in (0, 1):
            b, _ = marginals(ch, z, "Z", 1)
            np.testing.assert_allclose(b, np.eye(2) / 2, atol=1e-12)
        # Eve's record is the message itself, perfectly distinguishable.
        for x in (0, 1):
            _, e = marginals(ch, x, "X", 1)
            np.testing.assert_allclose(e, np.diag([1.0 - x, float(x)]), atol=1e-12)

    def test_cnot_copies_z_and_blinds_eve_in_x(self, channel):
        ch = channel("cnot_probe", 1)
        for z in (0, 1):
            b, _ = marginals(ch, z, "Z", 1)
            np.testing.assert_allclose(b, np.diag([1.0 - z, float(z)]), atol=1e-12)
        for x in (0, 1):
            _, e = marginals(ch, x, "X", 1)
            np.testing.assert_allclose(e, np.eye(2) / 2, atol=1e-12)

    def test_cloner_fidelity_five_sixths(self, channel):
        ch = channel("universal_cloner", 1)
        for z in (0, 1):
            b, e = marginals(ch, z, "Z", 1)
            ket = basis_table("Z", 1)[z]
            assert abs(ket.conj() @ b @ ket - 5.0 / 6.0) < 1e-12
            np.testing.assert_allclose(b, e, atol=1e-12)
        for x in (0, 1):
            b, e = marginals(ch, x, "X", 1)
            ket = basis_table("X", 1)[x]
            assert abs(ket.conj() @ e @ ket - 5.0 / 6.0) < 1e-12

    def test_cloner_sides_symmetric_in_trace_distance(self, channel):
        ch = channel("universal_cloner", 2)
        for msg in range(4):
            b, e = marginals(ch, msg, "Z", 2)
            diff_eigs = np.linalg.eigvalsh(b - e)
            assert 0.5 * np.sum(np.abs(diff_eigs)) <= 1e-9


class TestParameterLimits:
    def test_intercept_at_zero_matches_measure_z(self, channel):
        zero = make_attack(AttackSpec("intercept_resend_angle", 2, {"theta": 0.0}))
        mz = channel("measure_z", 2)
        for msg in range(4):
            for basis in ("Z", "X"):
                ba, ea = marginals(zero, msg, basis, 2)
                bb, eb = marginals(mz, msg, basis, 2)
                np.testing.assert_allclose(ba, bb, atol=1e-10)
                np.testing.assert_allclose(ea, eb, atol=1e-10)

    def test_intercept_at_right_angle_matches_measure_x_marginals(self):
        ninety = make_attack(AttackSpec("intercept_resend_angle", 1, {"theta": math.pi / 2}))
        mx = make_attack(AttackSpec("measure_x", 1))
        for msg in (0, 1):
            for basis in ("Z", "X"):
                ba, ea = marginals(ninety, msg, basis, 1)
                bb, eb = marginals(mx, msg, basis, 1)
                np.testing.assert_allclose(ba, bb, atol=1e-10)
                np.testing.assert_allclose(ea, eb, atol=1e-10)

    def test_depolarize_at_zero_matches_identity(self, channel):
        none = make_attack(AttackSpec("depolarize", 2, {"p": 0.0}))
        ident = channel("identity", 2)
        for msg in range(4):
            for basis in ("Z", "X"):
                ba, ea = marginals(none, msg, basis, 2)
                bb, eb = marginals(ident, msg, basis, 2)
                np.testing.assert_allclose(ba, bb, atol=1e-10)
                np.testing.assert_allclose(ea, eb, atol=1e-10)


def test_every_attack_validates_up_to_three_qubits(channel):
    for n in (1, 2, 3):
        for spec in standard_attacks(n):
            validate_channel(channel(spec.kind, n), spec.label())


def test_depolarize_at_six_qubits_raises_before_allocating():
    # 4^6 Kraus operators of 4^6 x 2^6 complex entries would be 16 GiB.
    with pytest.raises(CapacityError):
        make_attack(AttackSpec("depolarize", 6, {"p": 0.5}))


@pytest.mark.parametrize("kind", ["identity", "cnot_probe"])
def test_output_side_over_dense_limit_raises_before_allocating(kind, monkeypatch):
    # At N = 7 the Kraus set is only 32 MiB, but its 4^7 output rows exceed
    # MAX_DIM = 4096; N = 6 sits exactly at the limit and still builds.
    assert make_attack(AttackSpec(kind, 6)).out_dim == 4096

    def no_build(*args):
        raise AssertionError("Kraus tensor power built before the capacity check")

    monkeypatch.setattr(channels_mod, "_tensor_power", no_build)
    with pytest.raises(CapacityError):
        make_attack(AttackSpec(kind, 7))


def test_huge_n_raises_capacity_error_from_integer_sizes():
    # 16 * 8^2000 bytes: far too large for a float, so the message is integer arithmetic.
    with pytest.raises(CapacityError, match="MiB"):
        make_attack(AttackSpec("identity", 2000))


def kron_then_regroup(spec):
    """Reference Kraus set: tensor power by Kronecker products, then a permutation.

    Kronecker products interleave the per-qubit outputs as (b1, e1, b2, e2, ...);
    a permutation matrix regroups them as (b1..bn, e1..en).
    """
    single = attacks_mod.ATTACKS[spec.kind].kraus(**spec.params)
    ops = single
    for _ in range(spec.n - 1):
        ops = [tensor(a, b) for a in ops for b in single]
    if spec.n > 1:
        perm = [2 * i for i in range(spec.n)] + [2 * i + 1 for i in range(spec.n)]
        p = permutation_matrix((2,) * (2 * spec.n), perm)
        ops = [p @ k for k in ops]
    return np.array(ops)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", tuple(ATTACKS))
def test_broadcast_tensor_power_matches_kron_then_regroup(kind, n, attack_spec, channel):
    expected = kron_then_regroup(attack_spec(kind, n))
    got = channel(kind, n).kraus
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


def literal_kraus(kind, p=None, theta=None):
    """A kind's one-qubit Kraus stack from literals; row 2b + e is Bob's b and Eve's e."""
    if kind == "identity":
        return [[[1, 0], [0, 0], [0, 1], [0, 0]]]
    if kind == "measure_z":
        return [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [0, 1]]]
    if kind == "measure_x":
        r = 1 / math.sqrt(2)  # basis_table's X amplitude; r * r is 0.4999999999999999
        h = r * r
        return [[[h, h], [0, 0], [h, h], [0, 0]], [[0, 0], [h, -h], [0, 0], [-h, h]]]
    if kind == "cnot_probe":
        return [[[1, 0], [0, 0], [0, 0], [0, 1]]]
    if kind == "universal_cloner":
        a, b = math.sqrt(2 / 3), math.sqrt(1 / 6)
        return [[[a, 0], [0, b], [0, b], [0, 0]], [[0, 0], [b, 0], [b, 0], [0, a]]]
    if kind == "depolarize":
        w0, w = math.sqrt(1 - 3 * p / 4), math.sqrt(p / 4)
        return [
            [[w0, 0], [0, 0], [0, w0], [0, 0]],
            [[0, w], [0, 0], [w, 0], [0, 0]],
            [[0, -1j * w], [0, 0], [1j * w, 0], [0, 0]],
            [[w, 0], [0, 0], [0, -w], [0, 0]],
        ]
    assert kind == "intercept_resend_angle"
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return [
        [[c * c, c * s], [0, 0], [s * c, s * s], [0, 0]],
        [[0, 0], [s * s, -s * c], [0, 0], [-c * s, c * c]],
    ]


# Every kind at its library value, and a parametrised kind at both endpoints too.
KRAUS_CASES = [(kind, {}) for kind, row in ATTACKS.items() if row.param is None] + [
    (kind, {row.param[0]: value}) for kind, row in ATTACKS.items() if row.param for value in row.param[1:]
]


@pytest.mark.parametrize(
    "kind, params", KRAUS_CASES, ids=[AttackSpec(kind, 1, params).label() for kind, params in KRAUS_CASES]
)
def test_factor_kraus_bits_match_the_literal_stack(kind, params):
    got = product_attack(AttackSpec(kind, 1, params)).factor.kraus
    expected = np.array(literal_kraus(kind, **params), dtype=np.complex128)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got.view(np.float64), expected.view(np.float64))


def test_standard_library_covers_all_kinds():
    assert tuple(s.kind for s in standard_attacks(1)) == tuple(ATTACKS)


@pytest.mark.parametrize("kind", tuple(ATTACKS))
def test_table_row_is_the_attack_check(kind):
    row = attacks_mod.ATTACKS[kind]
    library = next(spec for spec in standard_attacks(1) if spec.kind == kind)
    validate_channel(make_attack(library), kind)
    name = row.param[0] if row.param else "p"
    if row.param is None:
        assert dict(library.params) == {}
        with pytest.raises(ValidationError):
            AttackSpec(kind, 1, {"p": 0.5})
    else:
        _, least, greatest, value = row.param
        assert dict(library.params) == {name: value}
        for endpoint in (least, greatest):
            validate_channel(make_attack(AttackSpec(kind, 1, {name: endpoint})), kind)
        for outside in (math.nextafter(least, -math.inf), math.nextafter(greatest, math.inf)):
            with pytest.raises(ValidationError, match=f"{kind} takes parameter {name}"):
                AttackSpec(kind, 1, {name: outside})
        for wrong_names in ({}, {name: value, "q": 0.0}):
            with pytest.raises(ValidationError):
                AttackSpec(kind, 1, wrong_names)
    # A bool, a string or a list of pairs is refused by the spec itself, not coerced.
    for bad in ({name: True}, {name: "0.5"}, [(name, 0.5)]):
        with pytest.raises(ValidationError, match="real numbers"):
            AttackSpec(kind, 1, bad)
    assert row.eve_basis == ("X" if kind == "universal_cloner" else "Z")
