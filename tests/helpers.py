"""Seeded random generators shared by the test modules."""

import numpy as np

from qid.channels import isometry_to_channel


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
    return isometry_to_channel(v, (2, 2), (2,), (3,), env_dim=env_dim)
