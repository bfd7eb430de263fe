"""Computable complexity proxy: decoder code lengths that satisfy Kraft's inequality.

Each distinguishable class of size >= 2 gets a decoder word "0" + a
Huffman word (weighted by class size); every message also has the
literal escape "1" + its n bits.  Only the word lengths are kept.  A
message's proxy complexity is the shortest applicable length, capped by
the literal n + 1.  The catalogue also realizes the program projectors
whose expectations count low-complexity messages in the entanglement picture.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .distinguishability import DistinguishableClass
from .errors import CapacityError, DimensionError, ValidationError
from .operators import MAX_DIM, VERDICT_TOL, ket_bra
from .protocol import FAMILY_BASIS, ProtocolInstance, basis_table


@dataclass(frozen=True)
class DecoderCatalogue:
    """Decoder code for one side's state family (see ``FAMILY_BASIS``).

    ``classes`` are disjoint size->=2 classes of messages in
    ``range(2^n)``, and ``lengths[i]`` is the length of class i's
    decoder word.  With the 2^n literal words the code must satisfy
    Kraft's inequality, checked exactly in integers.
    """

    n: int
    side: str
    classes: tuple[DistinguishableClass, ...]
    lengths: tuple[int, ...]

    def __post_init__(self):
        if self.side not in FAMILY_BASIS:
            raise ValidationError(f"side must be one of {tuple(FAMILY_BASIS)}, got {self.side!r}")
        classes, lengths = tuple(self.classes), tuple(self.lengths)
        if len(classes) != len(lengths):
            raise ValidationError(f"{len(classes)} classes but {len(lengths)} code lengths")
        if any(isinstance(v, bool) or not isinstance(v, int) for v in lengths):
            raise ValidationError(f"code lengths {lengths} must be integers (not floats or bools)")
        seen: set[int] = set()
        for cls in classes:
            if cls.size < 2:
                raise ValidationError("catalogue classes must have size >= 2")
            if cls.smallest < 0 or cls.members[-1] >= 2**self.n:
                raise ValidationError(f"class {cls.members} leaves the messages 0..{2**self.n - 1}")
            overlap = seen.intersection(cls.members)
            if overlap:
                raise ValidationError(f"messages {sorted(overlap)} appear in two classes")
            seen.update(cls.members)
        # The literal words fill half the code space, so sum 2^-len <= 1/2;
        # a length of 0 or below alone breaks it.
        top = max((1, *lengths))
        if sum(1 << (top - v) for v in lengths) > 1 << (top - 1):
            raise ValidationError(f"code lengths {lengths} break Kraft's inequality")
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "lengths", lengths)


@dataclass(frozen=True)
class ComplexityProfile:
    """Per-message proxy complexity for one side's state family."""

    n: int
    side: str
    lengths: tuple[int, ...]

    def __post_init__(self):
        if len(self.lengths) != 2**self.n:
            raise DimensionError("profile must cover all 2^n messages")
        object.__setattr__(self, "lengths", tuple(int(v) for v in self.lengths))

    def count(self, l: int) -> int:
        """Number of messages whose proxy complexity is at most l."""
        return sum(1 for v in self.lengths if v <= l)

    def max_length(self) -> int:
        return max(self.lengths)

    def average(self) -> float:
        return float(sum(self.lengths)) / len(self.lengths)


def _huffman_lengths(weights: Sequence[int]) -> list[int]:
    """Deterministic Huffman code lengths; ties pop in push order.

    Each heap item carries its leaves, and every merge makes them one
    level deeper.
    """
    lengths = [0] * len(weights)
    heap = [(int(w), i, [i]) for i, w in enumerate(weights)]
    heapq.heapify(heap)
    counter = len(weights)
    while len(heap) > 1:
        w1, _, a = heapq.heappop(heap)
        w2, _, b = heapq.heappop(heap)
        for leaf in a + b:
            lengths[leaf] += 1
        heapq.heappush(heap, (w1 + w2, counter, a + b))
        counter += 1
    return lengths


def build_catalogue(partition: Iterable[DistinguishableClass], n: int, side: str) -> DecoderCatalogue:
    """Huffman-code the size->=2 classes of a partition into a catalogue.

    Classes are weighted by size and ordered by smallest member, and
    Huffman ties break in that order, so the catalogue is a pure
    function of the partition.
    """
    partition = list(partition)
    all_members = sorted(m for c in partition for m in c.members)
    if all_members != list(range(2**n)):
        raise ValidationError("partition does not cover the message set exactly")
    classes = sorted((c for c in partition if c.size >= 2), key=lambda c: c.smallest)
    lengths = tuple(1 + v for v in _huffman_lengths([c.size for c in classes]))
    return DecoderCatalogue(n=n, side=side, classes=tuple(classes), lengths=lengths)


def proxy_complexity(cat: DecoderCatalogue) -> ComplexityProfile:
    """Shortest decoder word length per message, capped by the literal n+1."""
    lengths = [cat.n + 1] * (2**cat.n)
    for cls, code_len in zip(cat.classes, cat.lengths):
        for msg in cls.members:
            lengths[msg] = min(lengths[msg], code_len)
    return ComplexityProfile(n=cat.n, side=cat.side, lengths=tuple(lengths))


@dataclass(frozen=True)
class StructuredProjector:
    """Sum of (message projector on A') (x) (receiver projector) (x) 1.

    Stored as (message, receiver projector) terms plus a side tag; the
    dense form on H_A' (x) H_B (x) H_E is only built up to ``MAX_DIM`` per side.
    """

    n: int
    side: str
    dim_b: int
    dim_e: int
    terms: tuple[tuple[int, np.ndarray], ...]

    def dense(self) -> np.ndarray:
        total = 2**self.n * self.dim_b * self.dim_e
        if total > MAX_DIM:
            raise CapacityError(f"dense projector side {total} exceeds the limit of {MAX_DIM}")
        out = np.zeros((total, total), dtype=np.complex128)
        table = basis_table(FAMILY_BASIS[self.side], self.n)
        for msg, proj in self.terms:
            probe = ket_bra(table[msg])
            if self.side == "B":
                out += np.kron(np.kron(probe, proj), np.eye(self.dim_e))
            else:
                out += np.kron(np.kron(probe, np.eye(self.dim_b)), proj)
        return out


def _projector(
    cat: DecoderCatalogue, indices: Iterable[int], dim_b: int, dim_e: int
) -> StructuredProjector:
    """Structured projector with the PVM terms of the given catalogue classes."""
    terms: list[tuple[int, np.ndarray]] = []
    for i in indices:
        cls = cat.classes[i]
        if not cls.pvm:
            raise ValidationError("catalogue class carries no PVM")
        terms.extend((msg, proj.mat) for msg, proj in zip(cls.members, cls.pvm))
    return StructuredProjector(n=cat.n, side=cat.side, dim_b=dim_b, dim_e=dim_e, terms=tuple(terms))


def program_projector(cat: DecoderCatalogue, index: int, dim_b: int, dim_e: int) -> StructuredProjector:
    """Projector attached to one catalogue class's decoder."""
    if index not in range(len(cat.classes)):
        raise ValidationError(f"no class {index} in a catalogue of {len(cat.classes)} classes")
    return _projector(cat, [index], dim_b, dim_e)


def cumulative_projector(cat: DecoderCatalogue, l: int, dim_b: int, dim_e: int) -> StructuredProjector:
    """Sum of class projectors with decoder word length <= l.

    Literal decoders ignore the quantum input and are excluded here;
    their contribution to counts is purely combinatorial.
    """
    return _projector(cat, [i for i, v in enumerate(cat.lengths) if v <= l], dim_b, dim_e)


class ExpectationCheck(NamedTuple):
    """Structured and dense expectation vs catalogue count, for one side at one l."""

    side: str
    l: int
    lhs: float
    lhs_dense: float
    rhs: float
    agree: bool


def expectation_identity_check(
    inst: ProtocolInstance,
    cat: DecoderCatalogue,
    theta: np.ndarray,
) -> list[ExpectationCheck]:
    """Verify tr(Theta P-hat_l) equals 2^-n times the covered-message count, for l in [0, n+1].

    The structured path reduces the trace to sums of tr(rho_msg E_msg)
    over the terms of the cumulative projector; the literal trace
    against the dense global state ``theta`` (``theta_matrix(inst)``,
    which only exists for n within the dense limit) is compared too.
    Each term's trace is taken once, and each distinct cumulative
    projector is made dense once.
    """
    n = inst.n
    states = inst.family(cat.side).states
    cums = [cumulative_projector(cat, l, inst.channel.dim_b, inst.channel.dim_e) for l in range(n + 2)]
    # Classes are disjoint, so a message names its term and a tuple of
    # messages names the set of classes a cumulative projector holds.
    traces = {msg: float((states[msg] @ proj).trace().real) for msg, proj in cums[-1].terms}
    dense: dict[tuple[int, ...], float] = {}
    checks = []
    for l, cum in enumerate(cums):
        msgs = tuple(msg for msg, _ in cum.terms)
        if msgs not in dense:
            dense[msgs] = float((theta @ cum.dense()).trace().real)
        lhs = 2.0 ** (-n) * sum(traces[msg] for msg in msgs)
        rhs = 2.0 ** (-n) * len(msgs)
        lhs_dense = dense[msgs]
        agree = abs(lhs - rhs) <= VERDICT_TOL and abs(lhs_dense - rhs) <= VERDICT_TOL
        checks.append(ExpectationCheck(cat.side, l, lhs, lhs_dense, rhs, agree))
    return checks
