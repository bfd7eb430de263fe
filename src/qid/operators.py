"""Dense complex operator algebra underpinning the simulator.

Matrices are plain complex128 numpy arrays in row-major layout;
subsystem 0 is always the leftmost tensor factor (most significant
index block).  Density operators and projectors are thin immutable
wrappers that validate their defining invariants on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import jacobi_eigh
from .errors import CapacityError, DimensionError, ValidationError

# Every threshold the package compares against.  Three tiers come first:
# representation-level checks, eigenvalues computed by the Hermitian
# eigensolver, and distinguishability decisions built on top of those.
# Only one is settable, through the config's tolerances block:
# ``decision`` is passed to ``distinguishability.distinguishable_partition``.
STRUCTURAL_TOL = 1e-10  # hermiticity, unit trace, positivity; protocol equivalence
SPECTRAL_TOL = 1e-8  # eigenvalues at or below this lie outside a state's support
DECISION_TOL = 1e-7  # support overlaps at or below this count as orthogonal
COMPLETENESS_TOL = 1e-9  # max |sum K^dag K - 1| of a channel, |V^dag V - 1| of an isometry
IDEMPOTENCE_TOL = 1e-9  # max |P^2 - P| of a projector
PROBABILITY_TOL = 1e-12  # joint tables: negative entries, total, negative information residue
VERDICT_TOL = 1e-9  # slack on every inequality a report says holds or agrees
OVERLAP_TOL = 1e-10  # conjugate-basis overlap norms against 2^-n

# Dense operators beyond this side length are out of scope.
MAX_DIM = 4096


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError("matrix has non-finite entries")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(a)).T


def basis_ket(index: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


def ket_bra(v: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Outer product |v><w| (|v><v| when w is omitted)."""
    v = np.asarray(v, dtype=np.complex128).ravel()
    w = v if w is None else np.asarray(w, dtype=np.complex128).ravel()
    return np.outer(v, np.conj(w))


def tensor(*factors) -> np.ndarray:
    """Kronecker product of matrices (or column/row vectors)."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = as_matrix(np.atleast_2d(factors[0]))
    for f in factors[1:]:
        f = as_matrix(np.atleast_2d(f))
        if out.shape[0] * f.shape[0] > MAX_DIM or out.shape[1] * f.shape[1] > MAX_DIM:
            raise CapacityError(
                f"tensor product exceeds the dense limit of {MAX_DIM} per side"
            )
        out = np.kron(out, f)
    return out


def _check_dims(dims, side: int) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 2 for d in dims):
        raise DimensionError(f"subsystem dimensions must be >= 2, got {dims}")
    if math.prod(dims) != side:
        raise DimensionError(f"dims {dims} do not multiply to matrix side {side}")
    return dims


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``dims`` lists the subsystem dimensions of the square matrix ``m``;
    ``keep`` is a set of subsystem indices to retain (in their original
    order).  The trace of the result equals the trace of the input.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError("partial_trace needs a square matrix")
    dims = _check_dims(dims, m.shape[0])
    k = len(dims)
    keep = tuple(sorted(set(int(i) for i in keep)))
    if not keep or any(i < 0 or i >= k for i in keep):
        raise DimensionError(f"keep={keep} is not a nonempty subset of range({k})")
    t = m.reshape(dims + dims)
    row_labels = list(range(k))
    col_labels = [i + k if i in keep else i for i in range(k)]
    out_labels = [i for i in keep] + [i + k for i in keep]
    out = np.einsum(t, row_labels + col_labels, out_labels)
    d = math.prod(dims[i] for i in keep)
    return np.ascontiguousarray(out.reshape(d, d))


def permutation_matrix(dims, perm) -> np.ndarray:
    """Unitary that reorders tensor factors: new factor j is old factor perm[j]."""
    dims = tuple(int(d) for d in dims)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(len(dims))):
        raise DimensionError(f"perm {perm} is not a permutation of range({len(dims)})")
    d = math.prod(dims)
    src = np.arange(d)
    digits = np.array(np.unravel_index(src, dims))
    new_dims = tuple(dims[p] for p in perm)
    dst = np.ravel_multi_index(tuple(digits[list(perm)]), new_dims)
    out = np.zeros((d, d), dtype=np.complex128)
    out[dst, src] = 1.0
    return out


def operator_norm(a) -> float:
    """Largest singular value (computed by LAPACK's SVD)."""
    a = as_matrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def hermitian_eigensystem(a):
    """Descending eigenvalues and orthonormal eigenvector columns.

    Uses LAPACK through ``numpy.linalg.eigh``; raises ``ValidationError``
    when the input is not Hermitian within ``STRUCTURAL_TOL``.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("eigensystem needs a square matrix")
    dev = float(np.max(np.abs(a - dagger(a)))) if a.size else 0.0
    if dev > STRUCTURAL_TOL:
        raise ValidationError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    h = (a + dagger(a)) / 2.0
    return jacobi_eigh(h)


@dataclass(frozen=True)
class StateReport:
    """Outcome of validate_state: per-property pass flags and violations."""

    hermitian_ok: bool
    trace_ok: bool
    psd_ok: bool
    hermitian_violation: float
    trace_violation: float
    psd_violation: float

    @property
    def passed(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.psd_ok


def validate_state(rho) -> StateReport:
    """Check hermiticity, unit trace and positivity within ``STRUCTURAL_TOL``."""
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise DimensionError("validate_state needs a square matrix")
    herm_dev = float(np.max(np.abs(rho - dagger(rho))))
    trace_dev = float(abs(np.trace(rho) - 1.0))
    vals, _ = jacobi_eigh((rho + dagger(rho)) / 2.0)
    psd_dev = float(max(0.0, -vals.min())) if vals.size else 0.0
    return StateReport(
        hermitian_ok=herm_dev <= STRUCTURAL_TOL,
        trace_ok=trace_dev <= STRUCTURAL_TOL,
        psd_ok=psd_dev <= STRUCTURAL_TOL,
        hermitian_violation=herm_dev,
        trace_violation=trace_dev,
        psd_violation=psd_dev,
    )


def _freeze(m: np.ndarray) -> np.ndarray:
    """Read-only complex128 ``m``: taken over if read-only down to its owner, else copied."""
    owner = m
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    if owner is None and m.dtype == np.complex128:
        return m
    m = np.array(m, dtype=np.complex128)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class DensityOperator:
    """Unit-trace positive Hermitian matrix with a subsystem dimension list."""

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = as_matrix(self.mat)
        if m.shape[0] != m.shape[1]:
            raise DimensionError("density operator must be square")
        dims = _check_dims(self.dims, m.shape[0])
        report = validate_state(m)
        if not report.passed:
            raise ValidationError(
                "invalid density operator: "
                f"hermitian dev {report.hermitian_violation:.3e}, "
                f"trace dev {report.trace_violation:.3e}, "
                f"negative part {report.psd_violation:.3e}"
            )
        object.__setattr__(self, "mat", _freeze(m))
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def ptrace(self, keep) -> "DensityOperator":
        keep = tuple(sorted(set(int(i) for i in keep)))
        out = partial_trace(self.mat, self.dims, keep)
        return DensityOperator(out, tuple(self.dims[i] for i in keep))


@dataclass(frozen=True)
class Projector:
    """Hermitian idempotent matrix with a subsystem dimension list."""

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = as_matrix(self.mat)
        if m.shape[0] != m.shape[1]:
            raise DimensionError("projector must be square")
        dims = _check_dims(self.dims, m.shape[0])
        herm_dev = float(np.max(np.abs(m - dagger(m))))
        if herm_dev > STRUCTURAL_TOL:
            raise ValidationError(f"projector not Hermitian: deviation {herm_dev:.3e}")
        idem_dev = float(np.max(np.abs(m @ m - m)))
        if idem_dev > IDEMPOTENCE_TOL:
            raise ValidationError(f"projector not idempotent: deviation {idem_dev:.3e}")
        object.__setattr__(self, "mat", _freeze(m))
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.mat).real)))
