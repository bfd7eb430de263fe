"""Hermitian eigendecomposition through LAPACK (``numpy.linalg.eigh``)."""

import numpy as np


# The name is historical: ``perfbench/tracer.py`` wraps
# ``qid._kernels.jacobi_eigh`` by name and ``perfbench/test_perfbench.py``
# pins its calls at 3 per receiver state on its N = 2 workload, so module
# and name stay.  Above the dense limit (N > 2) no N-qubit state is
# eigensolved: each factor marginal is, once to validate it and once for
# its support.
def jacobi_eigh(a: np.ndarray):
    """Descending eigenvalues and matching orthonormal eigenvector columns.

    Ties keep LAPACK's order (stable sort), so diagonal input maps to
    permuted identity columns.  The caller ensures ``a`` is Hermitian.
    """
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]
