"""Perfect-distinguishability decisions and message-set partitioning.

A family of states is perfectly distinguishable exactly when the
supports are pairwise orthogonal; the support projectors then form a
sub-PVM that identifies each member with certainty.  Both partition
routines group all 2^n messages greedily into such classes: one from
the N-qubit states (the dense oracle), one from the factor states of a
product family, where two messages are orthogonal iff some factor pair is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import kron_power
from .errors import DimensionError
from ._kernels import jacobi_eigh
from .operators import DECISION_TOL, SPECTRAL_TOL, Projector


@dataclass(frozen=True)
class DistinguishableClass:
    """Messages whose receiver states are jointly perfectly distinguishable.

    Classes of size >= 2 from ``distinguishable_partition`` carry the
    identifying sub-PVM (one support projector per member, in member
    order), which the dense records need; those of ``product_partition``
    (n > 2, where no N-qubit support is built) and singletons carry none.
    Singletons are handled by the literal fallback code downstream.
    """

    members: tuple[int, ...]
    pvm: tuple[Projector, ...] = ()

    def __post_init__(self):
        members = tuple(int(m) for m in self.members)
        if not members or list(members) != sorted(set(members)):
            raise DimensionError("members must be nonempty, sorted and unique")
        if self.pvm and len(self.pvm) != len(members):
            raise DimensionError("pvm must have one projector per member")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "pvm", tuple(self.pvm))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def smallest(self) -> int:
        return self.members[0]


def support_projector(rho: np.ndarray) -> Projector:
    """Projector onto the span of eigenvectors with eigenvalue > ``SPECTRAL_TOL``.

    ``rho`` is a state that passed ``validate_state``, so its Hermitian
    part goes to the eigensolver directly.
    """
    vals, vecs = jacobi_eigh((rho + rho.conj().T) / 2.0)
    cols = vecs[:, vals > SPECTRAL_TOL]
    return Projector(cols @ cols.conj().T)


def _overlap_table(states: np.ndarray, supports: list[Projector]) -> np.ndarray:
    # ov[i, j] = tr(rho_i P_j) = sum(rho_i * conj(P_j)) for Hermitian P_j: one
    # product of the flattened states, a view of the stack, with the
    # conjugated supports, stacked once.
    proj = np.stack([p.mat for p in supports]).reshape(len(supports), -1)
    np.conj(proj, out=proj)
    return (states.reshape(len(states), -1) @ proj.T).real


def _greedy(orthogonal: np.ndarray) -> list[tuple[int, ...]]:
    """Messages in lexicographic order; each joins the first class it is orthogonal to all of."""
    # Python bools: the loop reads the table one entry at a time.
    classes: list[list[int]] = []
    for msg, row in enumerate(orthogonal.tolist()):
        for cls in classes:
            if all(row[w] for w in cls):
                cls.append(msg)
                break
        else:
            classes.append([msg])
    return [tuple(cls) for cls in classes]


def distinguishable_partition(
    states: np.ndarray,
    tol: float = DECISION_TOL,
) -> list[DistinguishableClass]:
    """Greedy partition of the message set into distinguishable classes.

    Messages are visited in lexicographic order; each joins the first
    existing class all of whose members have supports orthogonal to its
    own (both directions at most ``tol``), otherwise it opens a new class.
    The rule is deterministic, so identical inputs give identical
    partitions.  A family is perfectly distinguishable exactly when its
    partition is one class.  ``states`` is a (k, d, d) stack of states.
    """
    supports = [support_projector(s) for s in states]
    ov = _overlap_table(states, supports)
    return [
        DistinguishableClass(cls, tuple(supports[m] for m in cls) if len(cls) >= 2 else ())
        for cls in _greedy(np.maximum(ov, ov.T) <= tol)
    ]


def product_partition(factor_states: np.ndarray, copies: int) -> list[DistinguishableClass]:
    """The same greedy partition of a product family, decided on its factor.

    Message i1..i_copies is the Kronecker product of ``factor_states``
    i1..i_copies (first factor slowest, as ``kron_power``), and two such
    products are orthogonal iff some factor pair is.  So the factor
    supports and one factor table at ``DECISION_TOL`` decide every pair:
    no N-qubit support is built, no overlap compounds past the threshold,
    and the classes carry no PVM.
    """
    supports = [support_projector(s) for s in factor_states]
    ov = _overlap_table(factor_states, supports)
    overlapping = np.maximum(ov, ov.T) > DECISION_TOL
    return [
        DistinguishableClass(cls)
        for cls in _greedy(~kron_power(overlapping[None], copies)[0])
    ]
