"""The toy prepare-and-send protocol and its entanglement-based twin.

Alice encodes an N-bit message in either the computational (Z) or the
conjugate (X) basis and sends it through an eavesdropping channel; the
equivalent picture distributes halves of EPR pairs and measures the
retained qubits afterwards.  Tensor factors are ordered A' (x) B (x) E
throughout, with message qubit 1 leftmost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Literal

import numpy as np

from .channels import (
    ProductChannel,
    QuantumChannel,
    apply_channel_to_vector,
    apply_channel_to_vector_raw,
    kron_power,
    validate_channel,
    vector_marginals,
)
from .errors import CapacityError, ValidationError
from .operators import MAX_DIM, DensityOperator

BASES = ("Z", "X")
SIDES = ("B", "E")

# Dense A' (x) B (x) E states scale as 2^(6N) in memory; above this the
# structured identities must be used instead.
DENSE_THETA_LIMIT = 2

# Largest set of dense complex128 receiver states (2^N on each side) the
# product path builds: N = 8 needs 512 MiB for qubit outputs, N = 9 4 GiB.
MAX_STATE_BYTES = 1 << 30

Basis = Literal["Z", "X"]
Side = Literal["B", "E"]


def _check_message(msg: int, n: int) -> int:
    msg = int(msg)
    if not 0 <= msg < 2**n:
        raise ValidationError(f"message {msg} out of range for n={n}")
    return msg


def _check_basis(basis: str) -> str:
    if basis not in BASES:
        raise ValidationError(f"basis must be one of {BASES}, got {basis!r}")
    return basis


def encode(msg: int, basis: Basis, n: int) -> np.ndarray:
    """Pure state vector |msg> (Z) or the conjugate-basis |msg-bar> (X)."""
    msg = _check_message(msg, n)
    _check_basis(basis)
    dim = 2**n
    if basis == "Z":
        v = np.zeros(dim, dtype=np.complex128)
        v[msg] = 1.0
        return v
    signs = np.array([(-1) ** ((msg & z).bit_count()) for z in range(dim)], dtype=np.float64)
    return (signs / math.sqrt(dim)).astype(np.complex128)


def epr_state(n: int) -> np.ndarray:
    """N EPR pairs with all A' factors first, then all A factors."""
    if n < 1:
        raise ValidationError("need n >= 1")
    if 4**n > MAX_DIM:
        raise CapacityError(f"EPR register of {2 * n} qubits exceeds the dense limit")
    dim = 2**n
    return np.eye(dim, dtype=np.complex128).ravel() / math.sqrt(dim)


def _check_channel(channel: QuantumChannel, what: str) -> None:
    report = validate_channel(channel, 1e-9)
    if not report.passed:
        raise ValidationError(
            f"{what} fails completeness by {report.completeness_violation:.3e}"
        )


def _as_product(channel: QuantumChannel | ProductChannel) -> ProductChannel:
    """A plain channel is its own factor, taken once."""
    if isinstance(channel, ProductChannel):
        return channel
    return ProductChannel(channel, 1)


def _factor_marginals(
    factor: QuantumChannel, basis: Basis, side: Side, messages: Iterable[int]
) -> np.ndarray:
    """One side's marginals of a factor for the given encoded messages of its register."""
    pick = SIDES.index(side)
    k = len(factor.in_dims)
    return np.stack([vector_marginals(factor, encode(msg, basis, k))[pick] for msg in messages])


@dataclass(frozen=True)
class ProtocolInstance:
    """A fixed (n, channel) pair with Bob's and Eve's reduced states cached.

    ``rho_b[z]`` is Bob's state for the Z-encoded message z and
    ``sigma_e[x]`` Eve's state for the X-encoded message x; both caches
    cover all 2^n messages and are immutable after construction.  The
    channel is a ``QuantumChannel`` on all n qubits or a
    ``ProductChannel``; either way each state is the Kronecker product
    of its factor's marginals, one per factor.
    """

    n: int
    channel: QuantumChannel | ProductChannel
    rho_b: tuple[DensityOperator, ...]
    sigma_e: tuple[DensityOperator, ...]

    @classmethod
    def from_channel(cls, channel: QuantumChannel | ProductChannel) -> "ProtocolInstance":
        product = _as_product(channel)
        n = len(product.in_dims)
        nbytes = 2**n * (product.dim_b**2 + product.dim_e**2) * 16
        if nbytes > MAX_STATE_BYTES:
            raise CapacityError(
                f"{channel.name or 'channel'} at n={n}: receiver states need "
                f"{nbytes / 2**20:.0f} MiB, over the {MAX_STATE_BYTES / 2**20:.0f} MiB limit"
            )
        factor = product.factor
        _check_channel(factor, "product factor")
        every = range(factor.in_dim)
        rho_b = kron_power(_factor_marginals(factor, "Z", "B", every), product.n)
        sigma_e = kron_power(_factor_marginals(factor, "X", "E", every), product.n)
        return cls(
            n=n,
            channel=channel,
            rho_b=tuple(DensityOperator(m, product.out_dims_b) for m in rho_b),
            sigma_e=tuple(DensityOperator(m, product.out_dims_e) for m in sigma_e),
        )

    @cached_property
    def kraus_channel(self) -> QuantumChannel:
        """The channel in N-qubit Kraus form, for the dense checks.

        A product channel's stack is built on first use, once per
        instance, through ``attacks.dense_channel`` and its capacity
        limits.
        """
        if isinstance(self.channel, QuantumChannel):
            return self.channel
        from .attacks import dense_channel  # attacks imports this module

        return dense_channel(self.channel)


def joint_state(inst: ProtocolInstance, msg: int, basis: Basis) -> DensityOperator:
    """Channel output on H_B (x) H_E for one encoded message."""
    return apply_channel_to_vector(inst.kraus_channel, encode(msg, basis, inst.n))


def receiver_state(inst: ProtocolInstance, msg: int, basis: Basis, side: Side) -> DensityOperator:
    """Reduced state of one side for one encoded message.

    The theorem consumes (Z, B) and (X, E), which are served from the
    instance cache; the other two pairings are computed on demand, as
    the Kronecker product of the factor's marginals, one per digit of
    the message.
    """
    msg = _check_message(msg, inst.n)
    _check_basis(basis)
    if side not in SIDES:
        raise ValidationError(f"side must be one of {SIDES}, got {side!r}")
    if basis == "Z" and side == "B":
        return inst.rho_b[msg]
    if basis == "X" and side == "E":
        return inst.sigma_e[msg]
    product = _as_product(inst.channel)
    digits = np.unravel_index(msg, (product.factor.in_dim,) * product.n)
    mat = reduce(np.kron, _factor_marginals(product.factor, basis, side, digits))
    dims = product.out_dims_b if side == "B" else product.out_dims_e
    return DensityOperator(mat, dims)


def theta_matrix(target: ProtocolInstance | QuantumChannel) -> np.ndarray:
    """Raw dense matrix of (id (x) channel) applied to the EPR register.

    The size is checked before an instance's Kraus form is built.
    """
    is_inst = isinstance(target, ProtocolInstance)
    n = target.n if is_inst else len(target.in_dims)
    if n > DENSE_THETA_LIMIT:
        raise CapacityError(f"dense global state needs n <= {DENSE_THETA_LIMIT} (got {n})")
    channel = target.kraus_channel if is_inst else target
    dim_a = 2**n
    phi = epr_state(n).reshape(dim_a, dim_a)
    # Row k of w is the vector (1 (x) K_k)|phi>, so theta = sum_k w_k w_k^dag.
    images = phi @ channel.kraus.transpose(0, 2, 1)
    w = images.reshape(len(channel.kraus), dim_a * channel.out_dim)
    return w.T @ w.conj()


def global_state_theta(inst: ProtocolInstance) -> DensityOperator:
    """Whole state on H_A' (x) H_B (x) H_E in the entanglement picture."""
    mat = theta_matrix(inst)
    dims = (2,) * inst.n + inst.channel.out_dims
    return DensityOperator(mat, dims)


def _project_aposteriori(theta: np.ndarray, probe: np.ndarray, d_rest: int):
    """Probability and conditional block for a rank-1 probe on A'."""
    d_a = probe.size
    t4 = theta.reshape(d_a, d_rest, d_a, d_rest)
    block = np.einsum("a,abcd,c->bd", np.conj(probe), t4, probe)
    prob = float(np.trace(block).real)
    return prob, block


def aposteriori(
    inst: ProtocolInstance,
    basis: Basis,
    msg: int,
    method: str = "structured",
):
    """Outcome probability and conditional state on H_B (x) H_E.

    The structured path uses the closed form: probability 2^-n and
    state equal to the channel output for the encoded message.  The
    dense path extracts both from the materialized global state and is
    what the equivalence check compares against.
    """
    msg = _check_message(msg, inst.n)
    _check_basis(basis)
    if method == "structured":
        return 2.0 ** (-inst.n), joint_state(inst, msg, basis)
    if method != "dense":
        raise ValidationError(f"unknown method {method!r}")
    theta = theta_matrix(inst)
    probe = encode(msg, basis, inst.n)
    prob, block = _project_aposteriori(theta, probe, inst.channel.out_dim)
    if prob <= 0.0:
        raise ValidationError(f"zero-probability branch for ({basis}, {msg})")
    return prob, DensityOperator(block / prob, inst.channel.out_dims)


@dataclass(frozen=True)
class EquivalenceReport:
    """Dense-vs-structured comparison of the two protocol pictures."""

    n: int
    max_probability_deviation: float
    max_state_deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.max_probability_deviation <= self.tol
            and self.max_state_deviation <= self.tol
        )


def equivalence_check(
    target: ProtocolInstance | QuantumChannel,
    tol: float = 1e-10,
) -> EquivalenceReport:
    """Verify the entanglement-based picture reproduces prepare-and-send.

    Accepts a raw channel as well, so deliberately corrupted (non
    trace-preserving) channels can be shown to fail the uniformity of
    the outcome probabilities.
    """
    theta = theta_matrix(target)
    channel = target.kraus_channel if isinstance(target, ProtocolInstance) else target
    n = len(channel.in_dims)
    uniform = 2.0 ** (-n)
    max_prob = 0.0
    max_state = 0.0
    for basis in BASES:
        for msg in range(2**n):
            probe = encode(msg, basis, n)
            prob, block = _project_aposteriori(theta, probe, channel.out_dim)
            max_prob = max(max_prob, abs(prob - uniform))
            ref = apply_channel_to_vector_raw(channel, probe)
            if prob > 0.0:
                max_state = max(max_state, float(np.max(np.abs(block / prob - ref))))
            else:
                max_state = float("inf")
    return EquivalenceReport(
        n=n,
        max_probability_deviation=max_prob,
        max_state_deviation=max_state,
        tol=tol,
    )
