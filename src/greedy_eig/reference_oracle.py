"""Dense ground truth: standard-form assembly, reference eigensolve, errors.

The reference eigenpairs come from a dense LAPACK solve, an independent
check on the factored arithmetic of the solvers.  The mass is factored per
dimension: M = M_1 x ... x M_d has the Cholesky factor L = L_1 x ... x L_d,
so the pencil (A, M) is solved in the standard form C = L^-1 A L^-T,
assembled from the whitened factors L_j^-1 D L_j^-T, and the eigenvectors
are mapped back one axis at a time.  Neither A nor M is assembled: the error
metrics whiten the iterates instead, u -> L^T u factor by factor, so the
metric norm becomes the Euclidean one and a(u, v) a product with C.

All BLAS work here runs with the bundled OpenBLAS pools at one thread,
except the dense eigensolve, which keeps the caller's thread counts: it is
the one call large enough to gain from threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .dense_kernels import one_blas_thread
from .errors import KernelFailure, TooLargeForOracle
from .tensor_core import (
    KroneckerSumOperator,
    MetricSet,
    TensorSum,
)

DENSE_SIZE_LIMIT = 4096
DEGENERACY_TOL = 1e-8
# a bound on the dense eigensolve's absolute rounding, in eps * ||C||
ROUNDING_FACTOR = 100


def _check_size(sizes) -> None:
    total = int(np.prod(sizes))
    if total > DENSE_SIZE_LIMIT:
        raise TooLargeForOracle(
            f"dense assembly of dimension {total} exceeds the guard "
            f"{DENSE_SIZE_LIMIT}"
        )


@dataclass(frozen=True, eq=False)
class DenseReference:
    """Reference eigendata for the smallest eigenvalue of (A, M).

    ``eigenspace`` columns are M-orthonormal and span every eigenvector whose
    eigenvalue lies within the degeneracy cut of the minimum,
    max(DEGENERACY_TOL |mu1|, ROUNDING_FACTOR eps ||C||); ``gap``
    is the distance to the next eigenvalue (inf when there is none).
    ``standard`` is the assembled C = L^-1 A L^-T, ``chols`` holds the lower
    Cholesky factors L_j of the masses, and ``whitened_eigenspace`` is the
    orthonormal L^T ``eigenspace``.
    """

    mu1: float
    eigenspace: np.ndarray
    gap: float
    standard: np.ndarray
    chols: tuple
    whitened_eigenspace: np.ndarray


def _kron_sum(terms) -> np.ndarray:
    """Sum over the terms of the Kronecker product of each term's factors."""
    total = functools.reduce(np.kron, terms[0], np.ones((1, 1)))
    for term in terms[1:]:
        total += functools.reduce(np.kron, term)
    return total


def dense_assemble(op: KroneckerSumOperator, m: MetricSet):
    """Expand the operator and metric to full matrices."""
    _check_size(op.sizes)
    return _kron_sum(op.terms), _kron_sum(m.terms)


def _whiten(f: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """L^-1 F L^-T for a symmetric factor F and a lower Cholesky factor L."""
    half = scipy.linalg.solve_triangular(chol, f, lower=True)
    w = scipy.linalg.solve_triangular(chol, half.T, lower=True)
    return 0.5 * (w + w.T)


def _unwhiten(y: np.ndarray, chols) -> np.ndarray:
    """(L_1^-T x ... x L_d^-T) y for each column of y, one axis at a time."""
    k = y.shape[1]
    x = y.reshape(*(c.shape[0] for c in chols), k)
    for axis, chol in enumerate(chols):
        moved = np.moveaxis(x, axis, 0)
        solved = scipy.linalg.solve_triangular(
            chol, moved.reshape(chol.shape[0], -1), lower=True, trans="T")
        x = np.moveaxis(solved.reshape(moved.shape), 0, axis)
    return x.reshape(-1, k)


def dense_reference(op: KroneckerSumOperator, m: MetricSet) -> DenseReference:
    """Lowest eigenpairs of the pencil, multiplicity-aware.

    The pencil is solved in standard form, C = L^-1 A L^-T with L the
    Cholesky factor of M.  Only the k lowest eigenpairs are computed: k
    starts at 2 and doubles while every returned eigenvalue lies within the
    degeneracy cut of the minimum, up to the full dimension, so the
    eigenspace and the gap above it are those of a full solve.
    """
    _check_size(op.sizes)
    with one_blas_thread():
        chols = tuple(scipy.linalg.cholesky(mm, lower=True)
                      for mm in m.masses)
        terms = [[_whiten(f, chol) for f, chol in zip(term, chols)]
                 for term in op.terms]
        c_full = _kron_sum(terms)
        # ||C||_2 <= sum_k prod_j ||C_kj||_2 over the whitened factors C_kj
        c_norm = sum(math.prod(np.linalg.norm(f, 2) for f in term)
                     for term in terms)
    floor = ROUNDING_FACTOR * np.finfo(float).eps * c_norm
    n = c_full.shape[0]
    k = min(2, n)
    while True:
        try:
            vals, vecs = scipy.linalg.eigh(c_full, subset_by_index=[0, k - 1])
        except scipy.linalg.LinAlgError as exc:
            raise KernelFailure(
                f"dense symmetric eigensolve failed: {exc}") from exc
        mu1 = float(vals[0])
        cut = mu1 + max(DEGENERACY_TOL * abs(mu1), floor)
        if vals[-1] > cut or k == n:
            break
        k = min(2 * k, n)
    mult = int(np.sum(vals <= cut))
    gap = float(vals[mult] - mu1) if mult < k else float("inf")
    whitened = vecs[:, :mult]
    with one_blas_thread():
        # x = L^-T y is M-orthonormal because y is orthonormal
        basis = _unwhiten(whitened, chols)
    return DenseReference(mu1, basis, gap, c_full, chols, whitened)


@one_blas_thread()
def error_metrics(iterates: Sequence[TensorSum], lams, ref: DenseReference,
                  nu: float) -> dict:
    """Distance of each (u, lam) of a run to the reference lowest eigenpair.

    Returns one array per key, entry i for ``(iterates[i], lams[i])``.
    err_vec_h is the metric norm of the component of u outside the lowest
    eigenspace; err_vec_a is the distance, in the norm of A + nu M, to the
    closest normalized element of that eigenspace (inf when u has no
    component in it).  Pass the shift the iterates were computed with
    (``GreedyConfig.nu``).  Each iterate is whitened factor by factor,
    L_j^T F_j, and the whitened iterates are stacked as columns, so the
    metric norms are Euclidean and the energy costs one product with C for
    the whole run.
    """
    c_full, basis = ref.standard, ref.whitened_eigenspace
    rows = len(iterates)
    lams = np.asarray(lams, dtype=float)
    if lams.shape != (rows,):
        raise ValueError(f"{rows} iterates but lams has shape {lams.shape}")
    whitened = [TensorSum(it.sizes, it.coeffs,
                          [chol.T @ f for chol, f in zip(ref.chols, it.factors)])
                for it in iterates]
    u = np.array([it.to_dense() for it in whitened]).reshape(
        rows, c_full.shape[0]).T
    coeffs = basis.T @ u
    inside = basis @ coeffs
    split = np.hstack([u - inside, inside])
    sq = np.einsum("ij,ij->j", split, split)
    err_vec_h = np.sqrt(np.maximum(sq[:rows], 0.0))

    err_vec_a = np.full(rows, np.inf)
    has = np.linalg.norm(coeffs, axis=0) >= 1e-300
    w = inside[:, has] / np.sqrt(sq[rows:][has])
    # quadratic forms of the difference itself: expanding them cancels
    # catastrophically once u is close to w
    diff = np.hstack([u[:, has] - w, u[:, has] + w])
    val = (np.einsum("ij,ij->j", diff, c_full @ diff)
           + nu * np.einsum("ij,ij->j", diff, diff))
    err_vec_a[has] = np.sqrt(np.maximum(val, 0.0)).reshape(2, -1).min(axis=0)
    return {
        "err_lambda": np.abs(lams - ref.mu1),
        "err_vec_h": err_vec_h,
        "err_vec_a": err_vec_a,
    }
