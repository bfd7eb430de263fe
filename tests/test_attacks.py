import math

import numpy as np
import pytest

import qid.attacks as attacks_mod
from qid.attacks import (
    KINDS,
    AttackSpec,
    make_attack,
    natural_povms,
    standard_attacks,
)
from qid.channels import validate_channel, vector_marginals
from qid.errors import CapacityError, ValidationError
from qid.protocol import encode


def marginals(channel, msg, basis, n):
    return vector_marginals(channel, encode(msg, basis, n))


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
            ket = encode(z, "Z", 1)
            assert abs(ket.conj() @ b @ ket - 5.0 / 6.0) < 1e-12
            np.testing.assert_allclose(b, e, atol=1e-12)
        for x in (0, 1):
            b, e = marginals(ch, x, "X", 1)
            ket = encode(x, "X", 1)
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
            report = validate_channel(channel(spec.kind, n), 1e-9)
            assert report.passed, (spec.label(), report.completeness_violation)


def test_depolarize_at_six_qubits_raises_before_allocating():
    # 4^6 Kraus operators of 4^6 x 2^6 complex entries would be 16 GiB.
    with pytest.raises(CapacityError):
        make_attack(AttackSpec("depolarize", 6, {"p": 0.5}))


def test_kraus_byte_limit_is_inclusive(monkeypatch):
    # depolarize at N = 2: 16 operators of 16 x 4 complex128 = 16 KiB.
    monkeypatch.setattr(attacks_mod, "MAX_KRAUS_BYTES", 16 * 1024)
    make_attack(AttackSpec("depolarize", 2, {"p": 0.5}))
    with pytest.raises(CapacityError):
        make_attack(AttackSpec("depolarize", 3, {"p": 0.5}))


def test_standard_library_covers_all_kinds():
    assert tuple(s.kind for s in standard_attacks(1)) == KINDS


def test_natural_povms_are_complete(attack_spec):
    for kind in KINDS:
        bob, eve = natural_povms(attack_spec(kind, 2))
        for povm in (bob, eve):
            acc = sum(povm)
            np.testing.assert_allclose(acc, np.eye(4), atol=1e-12)
