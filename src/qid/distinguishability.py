"""Perfect-distinguishability decisions and message-set partitioning.

A family of states is perfectly distinguishable exactly when the
supports are pairwise orthogonal; the support projectors then form a
sub-PVM that identifies each member with certainty.  One partition
routine groups all messages of a product family greedily into such
classes, deciding each pair on the factor states: two messages are
orthogonal iff some factor pair is.
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

    Classes of size >= 2 of a one-copy ``distinguishable_partition``
    carry the identifying sub-PVM (one support projector per member, in
    member order), which the dense records need; those over several
    copies and singletons (left to the literal words) carry none.
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
    copies: int = 1,
) -> list[DistinguishableClass]:
    """Greedy partition of the messages of ``copies`` copies of ``states`` into distinguishable classes.

    ``states`` is a (k, d, d) stack of states.  Message i1..i_copies is
    the Kronecker product of states i1..i_copies (first factor slowest,
    as ``kron_power``), and two such products are orthogonal iff some
    factor pair is: supports orthogonal in both directions up to ``tol``.
    So one factor table decides every pair, and no overlap compounds
    past the threshold.  Messages are visited in lexicographic order;
    each joins the first class all of whose members it is orthogonal
    to, else opens one.  A family is perfectly distinguishable exactly
    when its partition is one class.
    """
    supports = [support_projector(s) for s in states]
    ov = _overlap_table(states, supports)
    overlapping = np.maximum(ov, ov.T) > tol
    return [
        DistinguishableClass(
            cls, tuple(supports[m] for m in cls) if copies == 1 and len(cls) >= 2 else ()
        )
        for cls in _greedy(~kron_power(overlapping[None], copies)[0])
    ]
