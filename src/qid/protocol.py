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
from functools import cached_property, lru_cache
from typing import Literal, NamedTuple

import numpy as np

from .channels import (
    ProductChannel,
    QuantumChannel,
    apply_channel_to_vector_raw,
    check_bytes,
    dense_channel,
    kron_power,
    validate_channel,
    vector_marginals,
)
from .errors import CapacityError, ValidationError
from .operators import MAX_DIM, STRUCTURAL_TOL, validate_state

BASES = ("Z", "X")

# The theorem's two state families: Bob's side holds the Z-encoded
# messages, Eve's side the X-encoded ones.  A side names its family.
FAMILY_BASIS = {"B": "Z", "E": "X"}

# Dense A' (x) B (x) E states scale as 2^(6N) in memory; above this the
# structured identities must be used instead.  ``ProtocolInstance.dense``
# is the one place that states this rule.
DENSE_THETA_LIMIT = 2

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


@lru_cache(maxsize=None)
def basis_table(basis: Basis, n: int) -> np.ndarray:
    """Read-only (2^n, 2^n) table whose row k is ``encode(k, basis, n)``, built once per (basis, n)."""
    table = np.stack([encode(k, basis, n) for k in range(2**n)])
    table.setflags(write=False)
    return table


def epr_state(n: int) -> np.ndarray:
    """N EPR pairs with all A' factors first, then all A factors."""
    if n < 1:
        raise ValidationError("need n >= 1")
    if 4**n > MAX_DIM:
        raise CapacityError(f"EPR register of {2 * n} qubits exceeds the dense limit")
    dim = 2**n
    return np.eye(dim, dtype=np.complex128).ravel() / math.sqrt(dim)


def _factor_marginals(factor: QuantumChannel, side: Side) -> np.ndarray:
    """One side's marginals of a factor for every message of its register, in the side's basis, read-only."""
    pick = list(FAMILY_BASIS).index(side)
    table = basis_table(FAMILY_BASIS[side], len(factor.in_dims))
    marginals = np.stack([vector_marginals(factor, psi)[pick] for psi in table])
    marginals.setflags(write=False)
    return marginals


def _verdict_bytes(factor: QuantumChannel, copies: int) -> int:
    """Bytes the verdict path allocates for ``copies`` copies of ``factor``, in integers.

    ``distinguishable_partition`` over the copies holds the 2^N x 2^N
    table of overlapping messages, its negation and the Python lists of
    its rows: 10 bytes an entry.  Each side's Shannon read holds its
    float64 joint table (2^N messages by the side's outcomes) and
    ``mutual_information``'s temporaries, about 6.2 tables at its peak:
    7 are counted.  The partition and both reads are counted together,
    so the sum bounds the peak of the three.
    """
    messages = factor.in_dim**copies
    entries = messages * (factor.dim_b**copies + factor.dim_e**copies)
    return 10 * messages**2 + 7 * 8 * entries


@dataclass(frozen=True)
class ProtocolInstance:
    """A fixed (n, channel) pair with Bob's and Eve's reduced states.

    The channel is a ``ProductChannel`` (a plain channel is its own
    factor, taken once), so each receiver state is the Kronecker product
    of its factor's marginals, one per factor.  The instance holds those
    marginals only: ``factor_b`` and ``factor_e``, read-only stacks over
    the messages of the factor's register.  ``rho_b[z]`` is Bob's state
    for the Z-encoded message z and ``sigma_e[x]`` Eve's state for the
    X-encoded message x; each family is a read-only (2^n, d, d) array
    over all 2^n messages, built from its side's marginals on first use
    and cached, like ``theta``.  Within the dense limit (``dense``)
    ``from_channel`` reads both families to validate every state; above
    it the verdicts read the marginals only, and no N-qubit state is built.
    """

    n: int
    channel: ProductChannel
    factor_b: np.ndarray
    factor_e: np.ndarray

    @classmethod
    def from_channel(cls, channel: QuantumChannel | ProductChannel) -> "ProtocolInstance":
        product = (
            channel
            if isinstance(channel, ProductChannel)
            else ProductChannel(channel, 1, channel.name)
        )
        factor = product.factor
        n = len(factor.in_dims) * product.n
        check_bytes(
            f"{channel.name or 'channel'} at n={n}: the verdict tables",
            product.n,
            lambda k: _verdict_bytes(factor, k),
        )
        validate_channel(factor, "product factor")
        inst = cls(n, product, _factor_marginals(factor, "B"), _factor_marginals(factor, "E"))
        # A Kronecker product of states is a state, so above the dense
        # limit each factor marginal is checked, not each of its products.
        for side in FAMILY_BASIS:
            for rho in inst.family(side) if inst.dense else inst.factor_family(side):
                validate_state(rho)
        return inst

    @property
    def dense(self) -> bool:
        """Whether the dense records run: the N-qubit states, Θ and its checks."""
        return self.n <= DENSE_THETA_LIMIT

    def _kron_family(self, side: Side) -> np.ndarray:
        """One side's N-qubit family, refused before it is built when over ``MAX_BYTES``."""
        factor, copies = self.channel.factor, self.channel.n
        dim = factor.dim_b if side == "B" else factor.dim_e
        check_bytes(
            f"{self.channel.name or 'channel'} at n={self.n}: side {side}'s receiver states",
            copies,
            lambda k: 16 * (factor.in_dim * dim**2) ** k,
        )
        family = kron_power(self.factor_family(side), copies)
        family.setflags(write=False)
        return family

    @cached_property
    def rho_b(self) -> np.ndarray:
        """Bob's states of the Z-encoded messages, built on first use."""
        return self._kron_family("B")

    @cached_property
    def sigma_e(self) -> np.ndarray:
        """Eve's states of the X-encoded messages, built on first use."""
        return self._kron_family("E")

    def family(self, side: Side) -> np.ndarray:
        """The receiver states of one side: ``rho_b`` for B, ``sigma_e`` for E."""
        return getattr(self, {"B": "rho_b", "E": "sigma_e"}[side])

    def factor_family(self, side: Side) -> np.ndarray:
        """One side's factor marginals: ``factor_b`` for B, ``factor_e`` for E."""
        return {"B": self.factor_b, "E": self.factor_e}[side]

    @cached_property
    def kraus_channel(self) -> QuantumChannel:
        """The channel in N-qubit Kraus form, for the dense checks.

        The stack is built on first use, once per instance, through
        ``dense_channel`` and its capacity limits.
        """
        return dense_channel(self.channel)

    @cached_property
    def theta(self) -> np.ndarray:
        """Read-only dense matrix of (id (x) channel) applied to the EPR register.

        Built on first use, once per instance.  The size is checked
        before the instance's Kraus form is built.
        """
        n = self.n
        if not self.dense:
            raise CapacityError(f"dense global state needs n <= {DENSE_THETA_LIMIT} (got {n})")
        if 2**n * self.channel.out_dim > MAX_DIM:
            raise CapacityError(f"dense global state side {2**n * self.channel.out_dim} > {MAX_DIM}")
        channel = self.kraus_channel
        dim_a = 2**n
        phi = epr_state(n).reshape(dim_a, dim_a)
        # Row k of w is the vector (1 (x) K_k)|phi>, so theta = sum_k w_k w_k^dag.
        images = phi @ channel.kraus.transpose(0, 2, 1)
        w = images.reshape(len(channel.kraus), dim_a * channel.out_dim)
        theta = w.T @ w.conj()
        theta.setflags(write=False)
        return theta


def theta_matrix(inst: ProtocolInstance) -> np.ndarray:
    """The instance's dense global state ``inst.theta``, read-only.

    Every dense check reads Θ through this name, which
    ``perfbench/tracer.py`` times and counts.
    """
    return inst.theta


class EquivalenceReport(NamedTuple):
    """Dense-vs-structured comparison of the two protocol pictures."""

    max_probability_deviation: float
    max_state_deviation: float
    passed: bool


def equivalence_check(inst: ProtocolInstance) -> EquivalenceReport:
    """Verify the entanglement-based picture reproduces prepare-and-send."""
    theta = theta_matrix(inst)
    channel = inst.kraus_channel
    n = inst.n
    uniform = 2.0 ** (-n)
    t4 = theta.reshape(2**n, channel.out_dim, 2**n, channel.out_dim)
    probes = np.concatenate([basis_table(basis, n) for basis in BASES])
    # Projecting A' on a probe leaves its a-posteriori block on B (x) E.
    blocks = np.einsum("pa,abcd,pc->pbd", probes.conj(), t4, probes)
    probs = np.trace(blocks, axis1=1, axis2=2).real
    refs = np.stack([apply_channel_to_vector_raw(channel, probe) for probe in probes])
    max_prob = float(abs(probs - uniform).max())
    if (probs > 0.0).all():
        max_state = float(abs(blocks / probs[:, None, None] - refs).max())
    else:
        max_state = float("inf")
    passed = max_prob <= STRUCTURAL_TOL and max_state <= STRUCTURAL_TOL
    return EquivalenceReport(max_prob, max_state, passed)
