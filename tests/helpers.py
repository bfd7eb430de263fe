"""Seeded random generators and dense oracles shared by the test modules."""

import math
from fractions import Fraction
from functools import reduce

import numpy as np

from qid.attacks import standard_attacks
from qid.channels import isometry_to_channel
from qid.complexity import ExpectationCheck, cumulative_projector
from qid.distinguishability import _overlap_table, support_projector
from qid.operators import DECISION_TOL, SPECTRAL_TOL, VERDICT_TOL, validate_state
from qid.protocol import ProtocolInstance


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_hermitian(rng, dim):
    g = random_complex(rng, (dim, dim))
    return (g + g.conj().T) / 2.0


def random_density(rng, dim, rank=None):
    g = random_complex(rng, (dim, rank or dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(rng, dim):
    q, r = np.linalg.qr(random_complex(rng, (dim, dim)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_projector(rng, dim, rank):
    cols = random_unitary(rng, dim)[:, :rank]
    return cols @ cols.conj().T


def random_isometry_channel(rng, env_dim=3):
    """Two qubits -> B (dim 2) (x) E (dim 3) with an env_dim environment traced out.

    Unequal B and E dimensions and a non-square Kraus shape (6 x 4) make
    any mixed-up axis in a Kraus contraction show.
    """
    v, _ = np.linalg.qr(random_complex(rng, (6 * env_dim, 4)))
    return isometry_to_channel(v, (2, 2), (2,), (3,))


def random_factor(rng, shape, env_dim, leak, aligned=False, qubits=1):
    """A random factor V: A -> B (x) E (x) env on one or two input qubits, one B and one E qubit.

    A product hands Bob orthogonal pure states, so he has classes: on one
    qubit U (x) |w>, with |w> on E (x) env; on two, U_B (x) U_E (x) |w>,
    the split factor rotated, which gives Eve classes too.  A generic
    isometry gives singletons; a product mixed with a generic isometry at
    weight 10^leak has overlaps of about 10^(2 leak), which sweep through
    the decision thresholds.  Each U is Haar, or with ``aligned`` a
    permutation with random phases, whose outputs a rotation moves off
    the computational basis.
    """
    w = random_complex(rng, (2 ** (2 - qubits) * env_dim, 1))
    u = np.eye(1)
    for _ in range(qubits):
        if aligned:
            u = np.kron(u, np.eye(2)[rng.permutation(2)] * np.exp(2j * np.pi * rng.random(2)))
        else:
            u = np.kron(u, random_unitary(rng, 2))
    v = np.kron(u, w / np.linalg.norm(w))
    if shape != "product":
        generic = random_complex(rng, (4 * env_dim, 2**qubits))
        v, _ = np.linalg.qr(v + 10.0**leak * generic if shape == "leaky" else generic)
    return isometry_to_channel(v, (2,) * qubits, (2,), (2,))


def near_threshold(states):
    """Whether an eigenvalue or support overlap of ``states`` lies within 10x of the threshold deciding it."""
    vals = np.linalg.eigvalsh(states)
    ov = _overlap_table(states, [support_projector(s) for s in states])
    return any(
        ((v >= tol / 10) & (v <= 10 * tol)).any()
        for v, tol in ((vals, SPECTRAL_TOL), (ov, DECISION_TOL))
    )


def partial_trace(m, dims, keep):
    """Trace out every subsystem of ``m`` not listed in ``keep``; kept ones stay in order."""
    dims, keep, k = tuple(dims), sorted(keep), len(dims)
    cols = [i + k if i in keep else i for i in range(k)]
    out = np.einsum(np.reshape(m, dims + dims), [*range(k), *cols], keep + [i + k for i in keep])
    d = math.prod(dims[i] for i in keep)
    return out.reshape(d, d)


def permutation_matrix(dims, perm):
    """Unitary that reorders tensor factors: new factor j is old factor perm[j]."""
    d = math.prod(dims)
    digits = np.array(np.unravel_index(np.arange(d), dims))
    dst = np.ravel_multi_index(tuple(digits[list(perm)]), tuple(dims[p] for p in perm))
    out = np.zeros((d, d), dtype=complex)
    out[dst, np.arange(d)] = 1.0
    return out


def apply_kraus(ch, rho):
    """The output sum_k K_k rho K_k^dag of a channel on a mixed state, a checked state on B (x) E."""
    out = np.tensordot(ch.kraus @ rho, ch.kraus.conj(), axes=([0, 2], [0, 2]))
    validate_state(out)
    return out


def pairs(m):
    """[re, im] encoding of a matrix for the JSON interfaces, or a hand-written encoding as it is."""
    if isinstance(m, list):
        return m
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def kraft_sum(cat):
    """Exact Kraft sum of a catalogue's full code: its classes plus the 2^n literal words."""
    return Fraction(2**cat.n, 2 ** (cat.n + 1)) + sum(Fraction(1, 2**v) for v in cat.lengths)


def split_factor_instance():
    """The two-qubit identity split into one B and one E qubit, taken once (N = 2).

    Both sides get two catalogue classes of length 2, so the dense
    records hold four cross norms of 1/2 and Landau-Pollak families that
    mix Bob's and Eve's projectors at l, m >= 2.
    """
    return ProtocolInstance.from_channel(isometry_to_channel(np.eye(4), (2, 2), (2,), (2,)))


# Every library attack at N = 1, 2 and the split factor: the dense cases.
DENSE_CASES = [(spec.kind, n) for n in (1, 2) for spec in standard_attacks(n)] + [("split_factor", 2)]


def dense_case_instance(instance, kind, n):
    """The instance of a ``DENSE_CASES`` entry, built by the ``instance`` fixture's factory."""
    return split_factor_instance() if kind == "split_factor" else instance(kind, n)


def expectation_at_level(inst, cat, l, theta):
    """One side's expectation record at one l, computed on its own from the cumulative projector."""
    n = inst.n
    states = inst.family(cat.side).states
    cum = cumulative_projector(cat, l, inst.channel.dim_b, inst.channel.dim_e)
    lhs = 2.0 ** (-n) * sum(float(np.trace(states[msg] @ proj).real) for msg, proj in cum.terms)
    rhs = 2.0 ** (-n) * len(cum.terms)
    lhs_dense = float(np.trace(theta @ cum.dense()).real)
    agree = abs(lhs - rhs) <= VERDICT_TOL and abs(lhs_dense - rhs) <= VERDICT_TOL
    return ExpectationCheck(cat.side, l, lhs, lhs_dense, rhs, agree)


def epr_register(n):
    """N Bell pairs (|00> + |11>) / sqrt(2), Kronecker-multiplied, with the A' qubits then gathered first."""
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
    pairs = reduce(np.kron, [bell] * n).reshape((2,) * (2 * n))  # qubits A'1 A1 A'2 A2 ...
    return pairs.transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2)).ravel()


def theta_oracle(inst):
    """The dense global state sum_k w_k w_k^dag, where w_k = (1 (x) K_k)|phi> on A' (x) B (x) E."""
    n = inst.n
    phi = epr_register(n)
    theta = 0
    for kraus in inst.kraus_channel.kraus:
        w = np.kron(np.eye(2**n), kraus) @ phi
        theta = theta + np.outer(w, w.conj())
    return theta
