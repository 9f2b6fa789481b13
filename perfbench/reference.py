"""Matrix-free reference for the lowest eigenvalue of a Kronecker sum.

Beyond the package's dense oracle (4,096 dimensions) the benchmark checks
results against ``eigsh`` on a ``LinearOperator`` that applies
sum_k D^(k,1) x ... x D^(k,d) by mode-j products, so no matrix of size
prod(N_j) is formed.  Only the identity metric is supported.
"""

from __future__ import annotations

import numpy as np


def kron_sum_matvec(terms, sizes, x):
    """Apply sum_k kron(terms[k]) to the C-order flattening of ``x``."""
    xt = np.asarray(x, dtype=float).reshape(sizes)
    out = np.zeros_like(xt)
    for term in terms:
        y = xt
        for j, f in enumerate(term):
            y = np.moveaxis(np.tensordot(f, y, axes=([1], [j])), 0, j)
        out += y
    return out.ravel()


def matrix_free_mu1(op, m) -> float:
    """Smallest eigenvalue of ``op`` by Lanczos (``eigsh``, SA)."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    if not all(np.array_equal(mj, np.eye(len(mj))) for mj in m.masses):
        raise ValueError("matrix_free_mu1 supports only the identity metric")
    sizes = tuple(op.sizes)
    dim = int(np.prod(sizes))
    lin = LinearOperator((dim, dim), dtype=float,
                         matvec=lambda x: kron_sum_matvec(op.terms, sizes, x))
    vals = eigsh(lin, k=1, which="SA", tol=0.0, v0=np.ones(dim),
                 return_eigenvectors=False)
    return float(vals[0])
