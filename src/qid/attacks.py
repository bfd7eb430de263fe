"""Library of eavesdropping channels acting qubit by qubit.

Each attack interacts with every transmitted qubit independently and
splits the result between Bob (B) and Eve (E), so an N-qubit attack is
the N-fold tensor power of a single-qubit channel, its outputs grouped
as (B1..BN, E1..EN).  The seven kinds cover both extremes of the
information-disturbance trade-off plus tunable interpolations; each is
one row of ``ATTACKS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .channels import (
    ProductChannel, QuantumChannel, dense_channel, isometry_to_channel, validate_channel,
)
from .errors import ValidationError
from .operators import basis_ket, ket_bra

_I2 = np.eye(2, dtype=np.complex128)
_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_E0 = basis_ket(0, 2).reshape(2, 1)  # Eve's blank register


def _ket(bit: int) -> np.ndarray:
    return basis_ket(bit, 2)


def _xbar(bit: int) -> np.ndarray:
    return np.array([1.0, 1.0 - 2.0 * bit], dtype=np.complex128) / np.sqrt(2.0)


def _rotated(bit: int, theta: float) -> np.ndarray:
    # Bloch-sphere rotation by theta in the X-Z plane; theta=0 is the Z
    # basis and theta=pi/2 the X basis (up to sign).
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([c, s] if bit == 0 else [-s, c], dtype=np.complex128)


def _measure_resend(ket: Callable[[int], np.ndarray]) -> list[np.ndarray]:
    """Measure in the basis ``ket``, resend the outcome to Bob and record it for Eve."""
    return [ket_bra(np.kron(ket(b), _ket(b)), ket(b)) for b in (0, 1)]


def _cloner_kraus() -> list[np.ndarray]:
    """Symmetric universal 1->2 cloner; anti-clone environment traced out."""
    a, b = math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 6.0)
    v = np.zeros((8, 2), dtype=np.complex128)  # rows indexed (b, e, anc)
    v[0b000, 0] = a
    v[0b011, 0] = b
    v[0b101, 0] = b
    v[0b111, 1] = a
    v[0b010, 1] = b
    v[0b100, 1] = b
    return list(isometry_to_channel(v, (2,), (2,), (2,), env_dim=2).kraus)


def _depolarize_kraus(p: float) -> list[np.ndarray]:
    weights = [math.sqrt(1.0 - 3.0 * p / 4.0)] + [math.sqrt(p / 4.0)] * 3
    return [w * np.kron(m, _E0) for w, m in zip(weights, [_I2, _SX, _SY, _SZ])]


class AttackKind(NamedTuple):
    """One attack kind; ``kraus`` builds its one-qubit Kraus operators, output (B, E)."""

    param: tuple[str, float, float, float] | None  # (name, least, greatest, library value)
    eve_basis: str  # the basis Eve reads for the Shannon check
    kraus: Callable[..., list[np.ndarray]]  # takes the parameter by its name


# The library, in the order of ``standard_attacks``.
ATTACKS = {
    "identity": AttackKind(None, "Z", lambda: [np.kron(_I2, _E0)]),
    "measure_z": AttackKind(None, "Z", lambda: _measure_resend(_ket)),
    "measure_x": AttackKind(None, "Z", lambda: _measure_resend(_xbar)),
    "cnot_probe": AttackKind(None, "Z", lambda: [sum(_measure_resend(_ket))]),  # coherent measure_z
    # Eve's clone carries conjugate-basis information.
    "universal_cloner": AttackKind(None, "X", _cloner_kraus),
    "depolarize": AttackKind(("p", 0.0, 1.0, 0.5), "Z", _depolarize_kraus),
    "intercept_resend_angle": AttackKind(
        ("theta", 0.0, math.pi / 2, math.pi / 4),
        "Z",
        lambda theta: _measure_resend(lambda b: _rotated(b, theta)),
    ),
}


@dataclass(frozen=True)
class AttackSpec:
    """Named attack with its qubit count and real parameters, checked against its row.

    ``params`` must map the row's parameter name to a real number (not a
    bool or a string) in its range; anything else raises ``ValidationError``.
    """

    kind: str
    n: int
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ATTACKS:
            raise ValidationError(f"unknown attack kind {self.kind!r}")
        if self.n < 1:
            raise ValidationError("attack needs n >= 1 qubits")
        if not isinstance(self.params, Mapping) or any(
            isinstance(v, bool) or not isinstance(v, Real) for v in self.params.values()
        ):
            raise ValidationError(f"attack params must map names to real numbers, got {self.params!r}")
        param = ATTACKS[self.kind].param
        names = [param[0]] if param else []
        in_range = not param or param[1] <= self.params.get(param[0], math.nan) <= param[2]
        if list(self.params) != names or not in_range:
            takes = f"parameter {param[0]} in [{param[1]:g}, {param[2]:g}]" if param else "no parameters"
            raise ValidationError(f"{self.kind} takes {takes}, got {dict(self.params)}")
        object.__setattr__(
            self, "params", MappingProxyType({k: float(v) for k, v in self.params.items()})
        )

    def label(self) -> str:
        """Deterministic slug for file names and report keys."""
        extra = "".join(f"_{k}{v:g}" for k, v in sorted(self.params.items()))
        return f"{self.kind}{extra}"


def product_attack(spec: AttackSpec) -> ProductChannel:
    """The attack as its one-qubit channel and qubit count; no N-qubit Kraus stack is built."""
    kraus = ATTACKS[spec.kind].kraus(**spec.params)
    factor = QuantumChannel(kraus, (2,), (2,), (2,), spec.label())
    return ProductChannel(factor, spec.n, spec.label())


def make_attack(spec: AttackSpec) -> QuantumChannel:
    """Build and validate the N-qubit Kraus form of an attack spec."""
    ch = dense_channel(product_attack(spec))
    validate_channel(ch, f"attack {spec.label()}")
    return ch


def standard_attacks(n: int) -> list[AttackSpec]:
    """The seven library attacks, each at its row's library parameter value."""
    return [
        AttackSpec(kind, n, {row.param[0]: row.param[3]} if row.param else {})
        for kind, row in ATTACKS.items()
    ]
