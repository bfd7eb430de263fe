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
from .distinguishability import DistinguishableClass, distinguishable_partition
from .errors import CapacityError, ValidationError
from .operators import MAX_DIM, STRUCTURAL_TOL, validate_state

BASES = ("Z", "X")

# The theorem's two state families: Bob's side holds the Z-encoded
# messages, Eve's side the X-encoded ones.  A side names its family.
FAMILY_BASIS = {"B": "Z", "E": "X"}

# Dense A' (x) B (x) E states scale as 2^(6N) in memory; above this the
# structured identities must be used instead.  ``ProductFamily.dense``
# is the one place that states this rule.
DENSE_THETA_LIMIT = 2

Basis = Literal["Z", "X"]
Side = Literal["B", "E"]


@lru_cache(maxsize=None)
def basis_table(basis: Basis, n: int) -> np.ndarray:
    """Read-only (2^n, 2^n) table of the messages' states in ``basis``, built once per (basis, n).

    Row k is |k> for Z and, for X, |k-bar> with entry z (-1)^popcount(k & z) / sqrt(2^n).
    """
    if basis not in BASES:
        raise ValidationError(f"basis must be one of {BASES}, got {basis!r}")
    dim = 2**n
    if basis == "Z":
        table = np.eye(dim, dtype=np.complex128)
    else:
        signs = [[(-1) ** ((k & z).bit_count()) for z in range(dim)] for k in range(dim)]
        table = (np.array(signs, dtype=np.float64) / math.sqrt(dim)).astype(np.complex128)
    table.setflags(write=False)
    return table


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


@dataclass(frozen=True, eq=False)
class ProductFamily:
    """One side's receiver states, the Kronecker products of ``copies`` factor states.

    ``factor`` is the read-only (k, d, d) stack of the side's marginals of
    the channel's factor, one per message of its register in the side's
    basis, and ``dims`` the side's output dims for one factor.  Message
    i1..i_copies has the product of factor states i1..i_copies, first
    factor slowest; only this type knows that structure.
    """

    factor: np.ndarray
    side: Side
    dims: tuple[int, ...]
    copies: int
    n: int
    label: str

    @classmethod
    def of(cls, product: ProductChannel, side: Side) -> "ProductFamily":
        """``side``'s family of ``product``, from its factor's marginals for every message."""
        factor, pick = product.factor, list(FAMILY_BASIS).index(side)
        table = basis_table(FAMILY_BASIS[side], len(factor.in_dims))
        marginals = np.stack([vector_marginals(factor, psi)[pick] for psi in table])
        marginals.setflags(write=False)
        dims = factor.out_dims_b if side == "B" else factor.out_dims_e
        return cls(marginals, side, dims, product.copies, len(product.in_dims), product.label)

    @property
    def dense(self) -> bool:
        """Whether the N-qubit states are decided on and the dense records run: the one density rule."""
        return self.n <= DENSE_THETA_LIMIT

    @cached_property
    def states(self) -> np.ndarray:
        """The read-only (2^n, D, D) N-qubit states, built on first use; refused first when over ``MAX_BYTES``."""
        what = f"{self.label}: side {self.side}'s receiver states"
        check_bytes(what, self.copies, lambda k: 16 * self.factor.size**k)
        states = kron_power(self.factor, self.copies)
        states.setflags(write=False)
        return states

    @property
    def decided(self) -> np.ndarray:
        """What validation and the partition decide on: ``states`` when ``dense``, else ``factor``.

        Products of states are states, orthogonal iff some factor pair is.
        """
        return self.states if self.dense else self.factor

    def partition(self) -> list[DistinguishableClass]:
        """The messages' distinguishable classes; when ``dense`` each class of size >= 2 carries its PVM."""
        if self.dense:
            return distinguishable_partition(self.states)
        return distinguishable_partition(self.factor, copies=self.copies)

    def power(self, table: np.ndarray) -> np.ndarray:
        """The Kronecker power over the copies of a per-factor table whose rows are the factor's messages."""
        return kron_power(table, self.copies)


@dataclass(frozen=True, eq=False)
class ProtocolInstance:
    """A product channel (a plain channel is its own factor, taken once) and its two families.

    ``b`` holds Bob's states of the Z-encoded messages and ``e`` Eve's of
    the X-encoded ones; ``rho_b[z]`` and ``sigma_e[x]`` read them.
    """

    channel: ProductChannel
    b: ProductFamily
    e: ProductFamily

    @classmethod
    def from_channel(cls, channel: QuantumChannel | ProductChannel) -> "ProtocolInstance":
        product = channel if isinstance(channel, ProductChannel) else ProductChannel(channel, 1, channel.name)
        what = f"{product.label}: the verdict tables"
        check_bytes(what, product.copies, lambda k: _verdict_bytes(product.factor, k))
        validate_channel(product.factor, "product factor")
        inst = cls(product, *(ProductFamily.of(product, side) for side in FAMILY_BASIS))
        for family in (inst.b, inst.e):
            for rho in family.decided:
                validate_state(rho)
        return inst

    @property
    def n(self) -> int:
        return self.b.n

    @property
    def dense(self) -> bool:
        """Whether the dense records run: the N-qubit states, Θ and its checks."""
        return self.b.dense

    @property
    def rho_b(self) -> np.ndarray:
        """Bob's states of the Z-encoded messages."""
        return self.b.states

    @property
    def sigma_e(self) -> np.ndarray:
        """Eve's states of the X-encoded messages."""
        return self.e.states

    def family(self, side: Side) -> ProductFamily:
        """One side's family: ``b`` for B, ``e`` for E."""
        return self.b if side == "B" else self.e

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
        phi = np.eye(dim_a, dtype=np.complex128) / math.sqrt(dim_a)  # the EPR pairs, A' factors first
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
