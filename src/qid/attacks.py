"""Library of eavesdropping channels acting qubit by qubit.

Each attack interacts with every transmitted qubit independently and
splits the result between Bob (B) and Eve (E), so an N-qubit attack is
the N-fold tensor power of a single-qubit channel with the B and E
factors regrouped afterwards.  The seven kinds cover both extremes of
the information-disturbance trade-off plus tunable interpolations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .channels import QuantumChannel, validate_channel
from .errors import CapacityError, ValidationError
from .operators import basis_ket, ket_bra, permutation_matrix, tensor

KINDS = (
    "identity",
    "measure_z",
    "measure_x",
    "cnot_probe",
    "universal_cloner",
    "depolarize",
    "intercept_resend_angle",
)

# Largest complex128 Kraus set make_attack will build (depolarize at
# N = 5 needs 512 MiB; at N = 6 it would need 16 GiB).
MAX_KRAUS_BYTES = 1 << 30

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
    blocks = v.reshape(4, 2, 2)
    return [np.ascontiguousarray(blocks[:, k, :]) for k in range(2)]


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


def make_attack(spec: AttackSpec) -> QuantumChannel:
    """Build and validate the N-qubit channel for an attack spec."""
    single = _single_qubit_kraus(spec.kind, spec.params)
    out_dim, in_dim = single[0].shape
    nbytes = len(single) ** spec.n * out_dim**spec.n * in_dim**spec.n * 16
    if nbytes > MAX_KRAUS_BYTES:
        raise CapacityError(
            f"attack {spec.label()} at n={spec.n} needs {nbytes / 2**20:.0f} MiB "
            f"of Kraus operators, over the {MAX_KRAUS_BYTES / 2**20:.0f} MiB limit"
        )
    ops = single
    for _ in range(spec.n - 1):
        ops = [tensor(a, b) for a in ops for b in single]
    if spec.n > 1:
        # Tensor powers interleave the per-qubit outputs as
        # (b1, e1, b2, e2, ...); regroup them as (b1..bn, e1..en).
        perm = [2 * i for i in range(spec.n)] + [2 * i + 1 for i in range(spec.n)]
        p = permutation_matrix((2,) * (2 * spec.n), perm)
        ops = [p @ k for k in ops]
    ch = QuantumChannel(
        kraus=tuple(ops),
        in_dims=(2,) * spec.n,
        out_dims_b=(2,) * spec.n,
        out_dims_e=(2,) * spec.n,
        name=spec.label(),
    )
    report = validate_channel(ch, 1e-9)
    if not report.passed:
        raise ValidationError(
            f"attack {spec.label()} fails Kraus completeness by "
            f"{report.completeness_violation:.3e}"
        )
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


def _basis_pvm(n: int, conjugate: bool) -> list[np.ndarray]:
    kets = [_xbar(0), _xbar(1)] if conjugate else [_ket(0), _ket(1)]
    out = []
    for idx in range(2**n):
        v = np.ones(1, dtype=np.complex128)
        for pos in range(n):
            bit = (idx >> (n - 1 - pos)) & 1
            v = np.kron(v, kets[bit])
        out.append(ket_bra(v))
    return out


def natural_povms(spec: AttackSpec):
    """Per-attack measurement choices for the Shannon cross-check.

    Bob always reads the computational basis.  Eve reads her classical
    record (computational basis) except for the universal cloner, where
    her clone carries conjugate-basis information.
    """
    bob = _basis_pvm(spec.n, conjugate=False)
    eve = _basis_pvm(spec.n, conjugate=spec.kind == "universal_cloner")
    return bob, eve
