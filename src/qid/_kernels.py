"""Hermitian eigendecomposition through LAPACK (``numpy.linalg.eigh``)."""

import numpy as np


# The name is historical: ``perfbench/tracer.py`` wraps
# ``qid._kernels.jacobi_eigh`` by name and ``perfbench/test_perfbench.py``
# pins its calls at 3 per receiver state, so module and name stay.
def jacobi_eigh(a: np.ndarray):
    """Descending eigenvalues and matching orthonormal eigenvector columns.

    Ties keep LAPACK's order (stable sort), so diagonal input maps to
    permuted identity columns.  The caller ensures ``a`` is Hermitian.
    """
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]
