"""Computable complexity proxy: a prefix-free decoder catalogue.

Each distinguishable class of size >= 2 gets a codeword "0" + Huffman
word (weighted by class size); every message also has the literal
escape "1" + its n bits.  A message's proxy complexity is the shortest
applicable codeword length, capped by the literal ceiling n + 1.  The
catalogue also realizes the program projectors whose expectations
count low-complexity messages in the entanglement picture.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .distinguishability import DistinguishableClass
from .errors import CapacityError, DimensionError, ValidationError
from .operators import MAX_DIM, VERDICT_TOL, ket_bra
from .protocol import FAMILY_BASIS, ProtocolInstance, encode

CATALOGUE_PREFIX = "0"


@dataclass(frozen=True)
class CatalogueEntry:
    codeword: str
    cls: DistinguishableClass


@dataclass(frozen=True)
class DecoderCatalogue:
    """Prefix-free decoder set for one side's state family (see ``FAMILY_BASIS``)."""

    n: int
    side: str
    entries: tuple[CatalogueEntry, ...]

    def __post_init__(self):
        if self.side not in FAMILY_BASIS:
            raise ValidationError(f"side must be one of {tuple(FAMILY_BASIS)}, got {self.side!r}")
        seen: set[int] = set()
        words = []
        for entry in self.entries:
            if entry.cls.size < 2:
                raise ValidationError("catalogue entries must have class size >= 2")
            if not entry.codeword.startswith(CATALOGUE_PREFIX):
                raise ValidationError(
                    f"entry codeword {entry.codeword!r} collides with the literal block"
                )
            overlap = seen.intersection(entry.cls.members)
            if overlap:
                raise ValidationError(f"messages {sorted(overlap)} appear in two entries")
            seen.update(entry.cls.members)
            words.append(entry.codeword)
        words.sort()
        for a, b in zip(words, words[1:]):
            if b.startswith(a):
                raise ValidationError(f"codewords {a!r} and {b!r} are not prefix-free")
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def literal_length(self) -> int:
        return self.n + 1

    def kraft_sum(self) -> Fraction:
        """Exact Kraft sum of the full code (entries plus literal block)."""
        total = Fraction(2**self.n, 2**self.literal_length)
        for entry in self.entries:
            total += Fraction(1, 2 ** len(entry.codeword))
        return total


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

    def to_csv_rows(self) -> list[tuple[str, str, str, int]]:
        return [
            (format(msg, f"0{self.n}b"), self.side, FAMILY_BASIS[self.side], v)
            for msg, v in enumerate(self.lengths)
        ]


def _huffman_lengths(weights: Sequence[int]) -> list[int]:
    """Deterministic Huffman code lengths (FIFO tie-breaking by heap order)."""
    k = len(weights)
    if k == 0:
        return []
    if k == 1:
        return [0]
    counter = k
    heap: list[tuple[int, int, object]] = []
    for i, w in enumerate(weights):
        heapq.heappush(heap, (int(w), i, i))
    while len(heap) > 1:
        w1, _, n1 = heapq.heappop(heap)
        w2, _, n2 = heapq.heappop(heap)
        heapq.heappush(heap, (w1 + w2, counter, (n1, n2)))
        counter += 1
    lengths = [0] * k
    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, int):
            lengths[node] = depth
        else:
            stack.append((node[0], depth + 1))
            stack.append((node[1], depth + 1))
    return lengths


def _canonical_codewords(lengths: Sequence[int], tiebreak: Sequence[int]) -> list[str]:
    """Canonical code assignment ordered by (length, tiebreak key)."""
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], tiebreak[i]))
    words = [""] * len(lengths)
    code = 0
    prev = 0
    for i in order:
        length = lengths[i]
        code <<= length - prev
        words[i] = format(code, f"0{length}b") if length else ""
        code += 1
        prev = length
    return words


def build_catalogue(
    partition: Iterable[DistinguishableClass],
    n: int,
    side: str,
) -> DecoderCatalogue:
    """Huffman-code the size->=2 classes of a partition into a catalogue.

    Classes are weighted by size; ties break on the smallest member and
    codewords are assigned canonically, so the catalogue is a pure
    function of the partition.
    """
    partition = list(partition)
    all_members = sorted(m for c in partition for m in c.members)
    if all_members != list(range(2**n)):
        raise ValidationError("partition does not cover the message set exactly")
    classes = [c for c in partition if c.size >= 2]
    classes.sort(key=lambda c: c.smallest)
    lengths = _huffman_lengths([c.size for c in classes])
    words = _canonical_codewords(lengths, [c.smallest for c in classes])
    entries = tuple(
        CatalogueEntry(codeword=CATALOGUE_PREFIX + w, cls=c)
        for w, c in zip(words, classes)
    )
    return DecoderCatalogue(n=n, side=side, entries=entries)


def proxy_complexity(cat: DecoderCatalogue) -> ComplexityProfile:
    """Shortest codeword length per message, capped by the literal n+1."""
    lengths = [cat.literal_length] * (2**cat.n)
    for entry in cat.entries:
        code_len = len(entry.codeword)
        for msg in entry.cls.members:
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
        for msg, proj in self.terms:
            probe = ket_bra(encode(msg, FAMILY_BASIS[self.side], self.n))
            if self.side == "B":
                out += np.kron(np.kron(probe, proj), np.eye(self.dim_e))
            else:
                out += np.kron(np.kron(probe, np.eye(self.dim_b)), proj)
        return out


def _projector(
    cat: DecoderCatalogue, entries: Iterable[CatalogueEntry], dim_b: int, dim_e: int
) -> StructuredProjector:
    """Structured projector with the PVM terms of the given catalogue entries."""
    terms: list[tuple[int, np.ndarray]] = []
    for entry in entries:
        if not entry.cls.pvm:
            raise ValidationError("catalogue entry carries no PVM")
        terms.extend((msg, proj.mat) for msg, proj in zip(entry.cls.members, entry.cls.pvm))
    return StructuredProjector(n=cat.n, side=cat.side, dim_b=dim_b, dim_e=dim_e, terms=tuple(terms))


def program_projector(cat: DecoderCatalogue, index: int, dim_b: int, dim_e: int) -> StructuredProjector:
    """Projector attached to one catalogue entry's decoder."""
    return _projector(cat, [cat.entries[index]], dim_b, dim_e)


def cumulative_projector(cat: DecoderCatalogue, l: int, dim_b: int, dim_e: int) -> StructuredProjector:
    """Sum of entry projectors with codeword length <= l.

    Literal decoders ignore the quantum input and are excluded here;
    their contribution to counts is purely combinatorial.
    """
    return _projector(cat, [e for e in cat.entries if len(e.codeword) <= l], dim_b, dim_e)


@dataclass(frozen=True)
class ExpectationCheck:
    """Structured and dense expectation vs catalogue count."""

    l: int
    lhs: float
    lhs_dense: float
    rhs: float

    @property
    def agree(self) -> bool:
        return (
            abs(self.lhs - self.rhs) <= VERDICT_TOL
            and abs(self.lhs_dense - self.rhs) <= VERDICT_TOL
        )


def expectation_identity_check(
    inst: ProtocolInstance,
    cat: DecoderCatalogue,
    l: int,
    theta: np.ndarray,
) -> ExpectationCheck:
    """Verify tr(Theta P-hat_l) equals 2^-n times the covered-message count.

    The structured path reduces the trace to sums of tr(rho_msg E_msg)
    over the terms of the cumulative projector; the literal trace
    against the dense global state ``theta`` (``theta_matrix(inst)``,
    which only exists for n within the dense limit) is compared too.
    """
    n = inst.n
    states = inst.family(cat.side)
    cum = cumulative_projector(cat, l, inst.channel.dim_b, inst.channel.dim_e)
    traces = (float(np.trace(states[msg].mat @ proj).real) for msg, proj in cum.terms)
    lhs = 2.0 ** (-n) * sum(traces)
    rhs = 2.0 ** (-n) * len(cum.terms)
    lhs_dense = float(np.trace(theta @ cum.dense()).real)
    return ExpectationCheck(l=l, lhs=lhs, lhs_dense=lhs_dense, rhs=rhs)
