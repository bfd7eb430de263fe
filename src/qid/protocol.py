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
from functools import cached_property
from typing import Literal

import numpy as np

from .channels import (
    ProductChannel,
    QuantumChannel,
    apply_channel_to_vector,
    apply_channel_to_vector_raw,
    dense_channel,
    kron_power,
    require_complete,
    vector_marginals,
)
from .errors import CapacityError, ValidationError
from .operators import MAX_DIM, STRUCTURAL_TOL, DensityOperator

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


def encode(msg: int, basis: Basis, n: int) -> np.ndarray:
    """Pure state vector |msg> (Z) or the conjugate-basis |msg-bar> (X)."""
    msg = int(msg)
    if not 0 <= msg < 2**n:
        raise ValidationError(f"message {msg} out of range for n={n}")
    if basis not in BASES:
        raise ValidationError(f"basis must be one of {BASES}, got {basis!r}")
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


def _factor_marginals(factor: QuantumChannel, basis: Basis, side: Side) -> np.ndarray:
    """One side's marginals of a factor for every encoded message of its register."""
    pick = SIDES.index(side)
    k = len(factor.in_dims)
    return np.stack(
        [vector_marginals(factor, encode(msg, basis, k))[pick] for msg in range(factor.in_dim)]
    )


@dataclass(frozen=True)
class ProtocolInstance:
    """A fixed (n, channel) pair with Bob's and Eve's reduced states cached.

    ``rho_b[z]`` is Bob's state for the Z-encoded message z and
    ``sigma_e[x]`` Eve's state for the X-encoded message x; both caches
    cover all 2^n messages and are immutable after construction.  The
    channel is a ``ProductChannel`` (a plain channel is its own factor,
    taken once), so each state is the Kronecker product of its factor's
    marginals, one per factor.
    """

    n: int
    channel: ProductChannel
    rho_b: tuple[DensityOperator, ...]
    sigma_e: tuple[DensityOperator, ...]

    @classmethod
    def from_channel(cls, channel: QuantumChannel | ProductChannel) -> "ProtocolInstance":
        product = (
            channel
            if isinstance(channel, ProductChannel)
            else ProductChannel(channel, 1, channel.name)
        )
        n = len(product.in_dims)
        nbytes = 2**n * (product.dim_b**2 + product.dim_e**2) * 16
        if nbytes > MAX_STATE_BYTES:
            raise CapacityError(
                f"{channel.name or 'channel'} at n={n}: receiver states need "
                f"{nbytes / 2**20:.0f} MiB, over the {MAX_STATE_BYTES / 2**20:.0f} MiB limit"
            )
        factor = product.factor
        require_complete(factor, "product factor")
        rho_b = kron_power(_factor_marginals(factor, "Z", "B"), product.n)
        sigma_e = kron_power(_factor_marginals(factor, "X", "E"), product.n)
        return cls(
            n=n,
            channel=product,
            rho_b=tuple(DensityOperator(m, product.out_dims_b) for m in rho_b),
            sigma_e=tuple(DensityOperator(m, product.out_dims_e) for m in sigma_e),
        )

    @cached_property
    def kraus_channel(self) -> QuantumChannel:
        """The channel in N-qubit Kraus form, for the dense checks.

        The stack is built on first use, once per instance, through
        ``dense_channel`` and its capacity limits.
        """
        return dense_channel(self.channel)


def joint_state(inst: ProtocolInstance, msg: int, basis: Basis) -> DensityOperator:
    """Channel output on H_B (x) H_E for one encoded message."""
    return apply_channel_to_vector(inst.kraus_channel, encode(msg, basis, inst.n))


def theta_matrix(inst: ProtocolInstance) -> np.ndarray:
    """Raw dense matrix of (id (x) channel) applied to the EPR register.

    The size is checked before the instance's Kraus form is built.
    """
    n = inst.n
    if n > DENSE_THETA_LIMIT:
        raise CapacityError(f"dense global state needs n <= {DENSE_THETA_LIMIT} (got {n})")
    channel = inst.kraus_channel
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


@dataclass(frozen=True)
class EquivalenceReport:
    """Dense-vs-structured comparison of the two protocol pictures."""

    n: int
    max_probability_deviation: float
    max_state_deviation: float

    @property
    def passed(self) -> bool:
        return (
            self.max_probability_deviation <= STRUCTURAL_TOL
            and self.max_state_deviation <= STRUCTURAL_TOL
        )


def equivalence_check(inst: ProtocolInstance) -> EquivalenceReport:
    """Verify the entanglement-based picture reproduces prepare-and-send."""
    theta = theta_matrix(inst)
    channel = inst.kraus_channel
    n = inst.n
    uniform = 2.0 ** (-n)
    t4 = theta.reshape(2**n, channel.out_dim, 2**n, channel.out_dim)
    max_prob = 0.0
    max_state = 0.0
    for basis in BASES:
        for msg in range(2**n):
            probe = encode(msg, basis, n)
            # Projecting A' on the probe leaves the a-posteriori block on B (x) E.
            block = np.einsum("a,abcd,c->bd", np.conj(probe), t4, probe)
            prob = float(np.trace(block).real)
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
    )
