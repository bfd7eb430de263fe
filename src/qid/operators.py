"""Dense complex operator algebra underpinning the simulator.

Matrices are plain complex128 numpy arrays in row-major layout;
subsystem 0 is always the leftmost tensor factor (most significant
index block).  A state is a plain matrix checked by ``validate_state``;
a projector is a thin immutable wrapper that validates its defining
invariants on construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import jacobi_eigh
from .errors import CapacityError, DimensionError, ValidationError

# Every threshold the package compares against.  Three tiers come first:
# representation-level checks, eigenvalues computed by the Hermitian
# eigensolver, and distinguishability decisions built on top of those.
# No config sets any of them; ``DECISION_TOL`` is the default ``tol`` of
# ``distinguishability.distinguishable_partition``, which compares it
# with the factor table at any number of copies.
STRUCTURAL_TOL = 1e-10  # hermiticity, unit trace, positivity; protocol equivalence
SPECTRAL_TOL = 1e-8  # eigenvalues at or below this lie outside a state's support
DECISION_TOL = 1e-7  # support overlaps at or below this count as orthogonal
COMPLETENESS_TOL = 1e-9  # max |sum K^dag K - 1| of a channel, |V^dag V - 1| of an isometry
IDEMPOTENCE_TOL = 1e-9  # max |P^2 - P| of a projector
PROBABILITY_TOL = 1e-12  # joint tables: negative entries, total, negative information residue
VERDICT_TOL = 1e-9  # slack on every inequality a report says holds or agrees

# Dense operators beyond this side length are out of scope.
MAX_DIM = 4096


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix has non-finite entries")
    return m


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


def operator_norm(a) -> float:
    """Largest singular value (computed by LAPACK's SVD)."""
    a = as_matrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def validate_state(rho) -> None:
    """Raise ``ValidationError`` unless ``rho`` is a density operator within ``STRUCTURAL_TOL``."""
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise DimensionError("validate_state needs a square matrix")
    rho_dag = rho.conj().T
    herm_dev = float(abs(rho - rho_dag).max())
    trace_dev = float(abs(rho.trace() - 1.0))
    vals, _ = jacobi_eigh((rho + rho_dag) / 2.0)
    psd_dev = float(max(0.0, -vals.min())) if vals.size else 0.0
    if max(herm_dev, trace_dev, psd_dev) > STRUCTURAL_TOL:
        raise ValidationError(
            f"invalid density operator: hermitian dev {herm_dev:.3e}, "
            f"trace dev {trace_dev:.3e}, negative part {psd_dev:.3e}"
        )


@dataclass(frozen=True)
class Projector:
    """Hermitian idempotent matrix, held as a read-only copy."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(as_matrix(self.mat))
        if m.shape[0] != m.shape[1]:
            raise DimensionError("projector must be square")
        herm_dev = float(abs(m - m.conj().T).max())
        if herm_dev > STRUCTURAL_TOL:
            raise ValidationError(f"projector not Hermitian: deviation {herm_dev:.3e}")
        idem_dev = float(abs(m @ m - m).max())
        if idem_dev > IDEMPOTENCE_TOL:
            raise ValidationError(f"projector not idempotent: deviation {idem_dev:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)
