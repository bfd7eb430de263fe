"""Library of eavesdropping channels acting qubit by qubit.

Each attack interacts with every transmitted qubit independently and
splits the result between Bob (B) and Eve (E), so an N-qubit attack is
the N-fold tensor power of a single-qubit channel, its outputs grouped
as (B1..BN, E1..EN).  The seven kinds cover both extremes of the
information-disturbance trade-off plus tunable interpolations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .channels import (
    ProductChannel,
    QuantumChannel,
    dense_channel,
    isometry_to_channel,
    validate_channel,
)
from .errors import ValidationError
from .operators import basis_ket, ket_bra

KINDS = (
    "identity",
    "measure_z",
    "measure_x",
    "cnot_probe",
    "universal_cloner",
    "depolarize",
    "intercept_resend_angle",
)

_I2 = np.eye(2, dtype=np.complex128)
_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@dataclass(frozen=True)
class AttackSpec:
    """Named attack with its qubit count and real parameters."""

    kind: str
    n: int
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown attack kind {self.kind!r}")
        if self.n < 1:
            raise ValidationError("attack needs n >= 1 qubits")
        params = dict(self.params)
        if self.kind == "depolarize":
            p = params.pop("p", None)
            if p is None or not 0.0 <= float(p) <= 1.0:
                raise ValidationError("depolarize needs parameter p in [0, 1]")
        elif self.kind == "intercept_resend_angle":
            theta = params.pop("theta", None)
            if theta is None or not 0.0 <= float(theta) <= math.pi / 2:
                raise ValidationError(
                    "intercept_resend_angle needs theta in [0, pi/2]"
                )
        if params:
            raise ValidationError(
                f"unexpected parameters for {self.kind}: {sorted(params)}"
            )
        object.__setattr__(
            self, "params", MappingProxyType({k: float(v) for k, v in self.params.items()})
        )

    def label(self) -> str:
        """Deterministic slug for file names and report keys."""
        extra = "".join(f"_{k}{v:g}" for k, v in sorted(self.params.items()))
        return f"{self.kind}{extra}"


def _ket(bit: int) -> np.ndarray:
    return basis_ket(bit, 2)


def _xbar(bit: int) -> np.ndarray:
    return np.array([1.0, 1.0 - 2.0 * bit], dtype=np.complex128) / np.sqrt(2.0)


def _rotated(bit: int, theta: float) -> np.ndarray:
    # Bloch-sphere rotation by theta in the X-Z plane; theta=0 is the Z
    # basis and theta=pi/2 the X basis (up to sign).
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if bit == 0:
        return np.array([c, s], dtype=np.complex128)
    return np.array([-s, c], dtype=np.complex128)


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


def _single_qubit_kraus(kind: str, params: Mapping[str, float]) -> list[np.ndarray]:
    """Kraus operators C^2 -> C^2 (x) C^2 with output ordered (B, E)."""
    e0 = _ket(0).reshape(2, 1)
    if kind == "identity":
        return [np.kron(_I2, e0)]
    if kind == "measure_z":
        return [ket_bra(np.kron(_ket(b), _ket(b)), _ket(b)) for b in (0, 1)]
    if kind == "measure_x":
        return [ket_bra(np.kron(_xbar(b), _ket(b)), _xbar(b)) for b in (0, 1)]
    if kind == "cnot_probe":
        return [sum(ket_bra(np.kron(_ket(b), _ket(b)), _ket(b)) for b in (0, 1))]
    if kind == "universal_cloner":
        return _cloner_kraus()
    if kind == "depolarize":
        p = params["p"]
        weights = [math.sqrt(1.0 - 3.0 * p / 4.0)] + [math.sqrt(p / 4.0)] * 3
        paulis = [_I2, _SX, _SY, _SZ]
        return [w * np.kron(m, e0) for w, m in zip(weights, paulis)]
    if kind == "intercept_resend_angle":
        theta = params["theta"]
        return [
            ket_bra(np.kron(_rotated(b, theta), _ket(b)), _rotated(b, theta))
            for b in (0, 1)
        ]
    raise ValidationError(f"unknown attack kind {kind!r}")


def product_attack(spec: AttackSpec) -> ProductChannel:
    """The attack as its one-qubit channel and qubit count; no N-qubit Kraus stack is built."""
    factor = QuantumChannel(
        kraus=_single_qubit_kraus(spec.kind, spec.params),
        in_dims=(2,),
        out_dims_b=(2,),
        out_dims_e=(2,),
        name=spec.label(),
    )
    return ProductChannel(factor, spec.n, spec.label())


def make_attack(spec: AttackSpec) -> QuantumChannel:
    """Build and validate the N-qubit Kraus form of an attack spec."""
    ch = dense_channel(product_attack(spec))
    validate_channel(ch, f"attack {spec.label()}")
    return ch


def standard_attacks(n: int) -> list[AttackSpec]:
    """The seven library attacks with canonical parameter choices."""
    return [
        AttackSpec("identity", n),
        AttackSpec("measure_z", n),
        AttackSpec("measure_x", n),
        AttackSpec("cnot_probe", n),
        AttackSpec("universal_cloner", n),
        AttackSpec("depolarize", n, {"p": 0.5}),
        AttackSpec("intercept_resend_angle", n, {"theta": math.pi / 4}),
    ]


def natural_bases(spec: AttackSpec) -> tuple[str, str]:
    """Bob's and Eve's measurement bases for the Shannon cross-check.

    Bob always reads the computational basis.  Eve reads her classical
    record (computational basis) except for the universal cloner, where
    her clone carries conjugate-basis information.
    """
    return "Z", "X" if spec.kind == "universal_cloner" else "Z"
