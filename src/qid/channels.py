"""Completely-positive trace-preserving maps in Kraus form.

A channel maps states on the sender space H_A to states on the split
receiver space H_B (x) H_E; the B/E split is fixed at construction so
marginals are unambiguous downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError, ValidationError
from .operators import COMPLETENESS_TOL, MAX_DIM, as_matrix

# The one byte budget: the Kraus oracle (depolarize at N = 5 needs
# 512 MiB, at N = 6 16 GiB), one receiver family (N = 8 needs 256 MiB
# for qubit outputs, N = 9 2 GiB) and the verdict path's tables (every
# library attack fits at N = 11 and none at N = 12).
MAX_BYTES = 1 << 30


def mib(nbytes: int) -> str:
    """A byte count in whole MiB, rounded up, with integer arithmetic only."""
    return f"{-(-nbytes // 2**20)} MiB"


def check_bytes(what: str, copies: int, nbytes) -> None:
    """Raise ``CapacityError`` when ``nbytes(copies)`` bytes exceed ``MAX_BYTES``; allocate nothing.

    ``nbytes(k)`` counts the bytes of k copies and at least doubles with
    each copy, so past the budget's bit length the count is over it:
    k stops there, which keeps the integers small.
    """
    k = min(copies, MAX_BYTES.bit_length())
    need = nbytes(k)
    if need > MAX_BYTES:
        more = "more than " if k < copies else ""
        raise CapacityError(f"{what} need {more}{mib(need)}; the limit is {mib(MAX_BYTES)}")


class _SplitSizes:
    """Sizes derived from a channel's ``in_dims``, ``out_dims_b`` and ``out_dims_e``."""

    @property
    def in_dim(self) -> int:
        return math.prod(self.in_dims)

    @property
    def dim_b(self) -> int:
        return math.prod(self.out_dims_b)

    @property
    def dim_e(self) -> int:
        return math.prod(self.out_dims_e)

    @property
    def out_dim(self) -> int:
        return self.dim_b * self.dim_e


@dataclass(frozen=True, eq=False)
class QuantumChannel(_SplitSizes):
    """Kraus-form channel with labeled output splitting H_B (x) H_E.

    ``kraus`` is one read-only complex128 array of shape (K, out, in),
    stacked on construction from any sequence of Kraus matrices.
    Construction checks shape coherence only; Kraus completeness is
    checked separately, by ``validate_channel``, so that deliberately
    broken channels can be built for negative tests.  Equality and
    hashing are by identity, here and in the types built on it.
    """

    kraus: np.ndarray
    in_dims: tuple[int, ...]
    out_dims_b: tuple[int, ...]
    out_dims_e: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        in_dims = tuple(int(d) for d in self.in_dims)
        out_b = tuple(int(d) for d in self.out_dims_b)
        out_e = tuple(int(d) for d in self.out_dims_e)
        if any(d < 2 for d in in_dims + out_b + out_e):
            raise DimensionError("subsystem dimensions must be >= 2")
        shape = (math.prod(out_b) * math.prod(out_e), math.prod(in_dims))
        try:
            finite = np.isfinite(self.kraus).all()  # before the copy: less peak memory
            ops = np.array(self.kraus, dtype=np.complex128)
        except ValueError as exc:
            raise DimensionError(f"Kraus operators differ in shape: {exc}") from exc
        if ops.size == 0:
            ops = ops.reshape((0,) + shape)  # an empty sequence stacks to shape (0,)
        if ops.ndim != 3 or ops.shape[1:] != shape:
            raise DimensionError(f"Kraus stack shape {ops.shape} != (K, {shape[0]}, {shape[1]})")
        if not finite:
            raise ValidationError("Kraus operators have non-finite entries")
        ops.setflags(write=False)
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "in_dims", in_dims)
        object.__setattr__(self, "out_dims_b", out_b)
        object.__setattr__(self, "out_dims_e", out_e)


@dataclass(frozen=True, eq=False)
class ProductChannel(_SplitSizes):
    """The ``copies``-fold tensor power of a channel ``factor`` on qubit inputs.

    Only the factor is stored; a plain channel is its own factor, taken
    once.  Outputs are grouped (B1..Bn, E1..En) like the Kraus form of
    the whole channel, whose stack grows as K^copies (out*in)^copies and
    is only materialized as the dense oracle (``dense_channel``).
    """

    factor: QuantumChannel
    copies: int
    name: str = ""

    def __post_init__(self):
        if set(self.factor.in_dims) != {2}:
            raise DimensionError(f"product factor inputs must be qubits, got {self.factor.in_dims}")
        if self.copies < 1:
            raise DimensionError("product channel needs copies >= 1")

    @property
    def in_dims(self) -> tuple[int, ...]:
        return self.factor.in_dims * self.copies

    @property
    def out_dims_b(self) -> tuple[int, ...]:
        return self.factor.out_dims_b * self.copies

    @property
    def out_dims_e(self) -> tuple[int, ...]:
        return self.factor.out_dims_e * self.copies

    @property
    def label(self) -> str:
        """The name and qubit count that capacity messages print."""
        return f"{self.name or 'channel'} at n={len(self.in_dims)}"


def kron_power(stack: np.ndarray, n: int) -> np.ndarray:
    """Every n-fold Kronecker product of the members of ``stack``, in one broadcast.

    ``stack`` has shape (k, d1, .., dm); the result has shape
    (k^n, d1^n, .., dm^n) and entry i1..in (first factor slowest) is the
    Kronecker product of members i1..in taken axis by axis.
    """
    out = stack
    for _ in range(n - 1):
        # Multiply into an interleaved view of the result, so the result owns its memory.
        shape = [a * b for a, b in zip(out.shape, stack.shape)]
        grown = np.empty(shape, np.result_type(out, stack))
        np.multiply(
            out.reshape([x for d in out.shape for x in (d, 1)]),
            stack.reshape([x for d in stack.shape for x in (1, d)]),
            out=grown.reshape([x for a, b in zip(out.shape, stack.shape) for x in (a, b)]),
        )
        out = grown
    return out


def _tensor_power(factor: QuantumChannel, n: int) -> np.ndarray:
    """N-fold tensor power of a factor's Kraus stack, outputs ordered (B1..BN, E1..EN).

    Broadcasting axes (kraus, b, e, a) keeps them grouped (k1..kN, b1..bN, e1..eN, a1..aN),
    first factor slowest.  No caller keeps the result, so it is freed once the channel copies it.
    """
    out = kron_power(factor.kraus.reshape(-1, factor.dim_b, factor.dim_e, factor.in_dim), n)
    return out.reshape(len(out), -1, out.shape[-1])


def dense_channel(product: ProductChannel) -> QuantumChannel:
    """Kraus form of a product channel on all its qubits: the dense oracle.

    Raises ``CapacityError`` before allocating when the stack would
    exceed ``MAX_BYTES`` or an output side would exceed ``MAX_DIM``.
    """
    factor, copies = product.factor, product.copies
    per_copy = len(factor.kraus) * factor.out_dim * factor.in_dim
    check_bytes(f"{product.label}: the Kraus operators", copies, lambda k: 16 * per_copy**k)
    # Within the byte budget the copies are few, so the side is a small integer.
    side = factor.out_dim**copies
    if side > MAX_DIM:
        raise CapacityError(f"{product.label}: output side {side} > {MAX_DIM}")
    return QuantumChannel(
        kraus=_tensor_power(factor, copies),
        in_dims=product.in_dims,
        out_dims_b=product.out_dims_b,
        out_dims_e=product.out_dims_e,
        name=product.name,
    )


def validate_channel(ch: QuantumChannel, what: str) -> None:
    """Raise ``ValidationError`` naming ``what`` unless sum(K^dag K) = 1 within ``COMPLETENESS_TOL``."""
    m = ch.kraus.reshape(-1, ch.in_dim)  # stacked vertically: sum(K^dag K) = m^dag m
    dev = float(abs(m.conj().T @ m - np.eye(ch.in_dim)).max())
    if dev > COMPLETENESS_TOL:
        raise ValidationError(f"{what} fails Kraus completeness by {dev:.3e}")


def _kraus_images(ch: QuantumChannel, psi: np.ndarray) -> np.ndarray:
    """The vectors K_k |psi> as the rows of a (K, out_dim) array."""
    psi = np.asarray(psi, dtype=np.complex128).ravel()
    if psi.size != ch.in_dim:
        raise DimensionError(f"vector dim {psi.size} != channel input dim {ch.in_dim}")
    return (ch.kraus.reshape(-1, ch.in_dim) @ psi).reshape(len(ch.kraus), ch.out_dim)


def apply_channel_to_vector_raw(ch: QuantumChannel, psi: np.ndarray) -> np.ndarray:
    """Raw output matrix sum_k K_k |psi><psi| K_k^dag, without validation."""
    w = _kraus_images(ch, psi)
    return w.T @ w.conj()


def vector_marginals(ch: QuantumChannel, psi: np.ndarray):
    """B and E marginals of the channel output for a pure input vector.

    Avoids materializing the full B (x) E output: each Kraus image is
    reshaped to a (dim_B, dim_E) amplitude block W_k, for which
    tr_E = sum_k W_k W_k^dag and tr_B = sum_k W_k^T conj(W_k).
    """
    w = _kraus_images(ch, psi).reshape(-1, ch.dim_b, ch.dim_e)
    wc = w.conj()
    rho_b = np.tensordot(w, wc, axes=([0, 2], [0, 2]))
    rho_e = np.tensordot(w, wc, axes=([0, 1], [0, 1]))
    return rho_b, rho_e


def isometry_to_channel(
    v,
    in_dims,
    out_dims_b,
    out_dims_e,
    env_dim: int = 1,
) -> QuantumChannel:
    """Channel from an isometry V: H_A -> H_B (x) H_E (x) H_env.

    The environment (last tensor factor) is traced out: the Kraus
    operators are the environment-basis slices <e_k| V, so ``env_dim``
    of 1 gives the single-Kraus channel V.
    """
    v = as_matrix(v)
    in_dims = tuple(int(d) for d in in_dims)
    in_dim = math.prod(in_dims)
    out_dim = math.prod(out_dims_b) * math.prod(out_dims_e)
    if v.shape != (out_dim * env_dim, in_dim):
        raise DimensionError(
            f"isometry shape {v.shape} != ({out_dim * env_dim}, {in_dim})"
        )
    ch = QuantumChannel(
        kraus=v.reshape(out_dim, env_dim, in_dim).transpose(1, 0, 2),
        in_dims=in_dims,
        out_dims_b=tuple(out_dims_b),
        out_dims_e=tuple(out_dims_e),
    )
    validate_channel(ch, "isometry")  # the Kraus operators are V's row slices, so sum K^dag K = V^dag V
    return ch


def matrix_from_pairs(rows) -> np.ndarray:
    """Matrix from nested [re, im] pairs; unused in qid, kept for ROADMAP item 8's factor files."""
    try:
        arr = np.asarray(rows, dtype=np.float64)
    except ValueError as exc:  # ragged grids and non-numeric entries
        raise ValidationError(f"matrix encoding is not a grid of numbers: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValidationError("matrix encoding must be a 2-D grid of [re, im] pairs")
    entries = [x for row in rows for pair in row for x in pair]  # float64 would take "1" and true
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in entries):
        raise ValidationError("matrix entries must be numbers, not strings or bools")
    return np.ascontiguousarray(arr[..., 0] + 1j * arr[..., 1])
