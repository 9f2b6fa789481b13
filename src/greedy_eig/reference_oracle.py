"""Dense ground truth: full assembly, reference eigensolve, error metrics.

The operator and the metric are assembled as full matrices and the
reference eigenpairs come from a dense LAPACK solve, an independent check
on the factored arithmetic of the solvers.  Only the mass is factored per
dimension: M = M_1 x ... x M_d has the Cholesky factor L = L_1 x ... x L_d,
so the pencil (A, M) is solved in the standard form L^-1 A L^-T, assembled
from the whitened factors L_j^-1 D L_j^-T, and the eigenvectors are mapped
back one axis at a time.

All BLAS work here runs with the bundled OpenBLAS pools at one thread,
except the dense eigensolve, which keeps the caller's thread counts: it is
the one call large enough to gain from threads.
"""

from __future__ import annotations

import functools
import os
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
    a_inner,
    h_inner,
)

DENSE_SIZE_LIMIT = 4096
ORACLE_LIMIT_ENV = "GREEDY_EIG_ORACLE_LIMIT"
DEGENERACY_TOL = 1e-8


def _size_limit() -> int:
    raw = os.environ.get(ORACLE_LIMIT_ENV)
    if raw is None:
        return DENSE_SIZE_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise TooLargeForOracle(
            f"{ORACLE_LIMIT_ENV}={raw!r} is not an integer"
        ) from None


def _check_size(sizes) -> int:
    total = int(np.prod(sizes))
    limit = _size_limit()
    if total > limit:
        raise TooLargeForOracle(
            f"dense assembly of dimension {total} exceeds the guard {limit} "
            f"(override with {ORACLE_LIMIT_ENV} at your own risk)"
        )
    return total


@dataclass(frozen=True)
class DenseReference:
    """Reference eigendata for the smallest eigenvalue of (A, M).

    ``eigenspace`` columns are M-orthonormal and span every eigenvector whose
    eigenvalue lies within the degeneracy tolerance of the minimum; ``gap``
    is the distance to the next eigenvalue (inf when there is none).
    ``operator`` and ``mass`` are the assembled A and M.
    """

    mu1: float
    eigenspace: np.ndarray
    gap: float
    operator: np.ndarray
    mass: np.ndarray


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
    """Lowest eigenpairs of the assembled pencil, multiplicity-aware.

    The pencil is solved in standard form, C = L^-1 A L^-T with L the
    Cholesky factor of M.  Only the k lowest eigenpairs are computed: k
    starts at 2 and doubles while every returned eigenvalue lies within the
    degeneracy cut of the minimum, up to the full dimension, so the
    eigenspace and the gap above it are those of a full solve.
    """
    with one_blas_thread():
        a_full, m_full = dense_assemble(op, m)
        chols = [scipy.linalg.cholesky(mm, lower=True) for mm in m.masses]
        c_full = _kron_sum([[_whiten(f, chol) for f, chol in zip(term, chols)]
                            for term in op.terms])
    n = c_full.shape[0]
    k = min(2, n)
    while True:
        try:
            vals, vecs = scipy.linalg.eigh(c_full, subset_by_index=[0, k - 1])
        except scipy.linalg.LinAlgError as exc:
            raise KernelFailure(
                f"dense symmetric eigensolve failed: {exc}") from exc
        mu1 = float(vals[0])
        cut = mu1 + DEGENERACY_TOL * (1.0 + abs(mu1))
        if vals[-1] > cut or k == n:
            break
        k = min(2 * k, n)
    mult = int(np.sum(vals <= cut))
    gap = float(vals[mult] - mu1) if mult < k else float("inf")
    with one_blas_thread():
        # x = L^-T y is M-orthonormal because y is orthonormal
        basis = _unwhiten(vecs[:, :mult], chols)
    return DenseReference(mu1, basis, gap, a_full, m_full)


@one_blas_thread()
def error_metrics(iterates: Sequence[TensorSum], lams, ref: DenseReference,
                  nu: float) -> dict:
    """Distance of each (u, lam) of a run to the reference lowest eigenpair.

    Returns one array per key, entry i for ``(iterates[i], lams[i])``.
    err_vec_h is the metric norm of the component of u outside the lowest
    eigenspace; err_vec_a is the distance, in the norm of A + nu M, to the
    closest normalized element of that eigenspace (inf when u has no
    component in it).  Pass the shift the iterates were computed with
    (``GreedyConfig.nu``).  The iterates are stacked as columns, so each
    quantity costs one product with A and one with M for the whole run.
    """
    a_full, m_full, basis = ref.operator, ref.mass, ref.eigenspace
    rows = len(iterates)
    lams = np.asarray(lams, dtype=float)
    if lams.shape != (rows,):
        raise ValueError(f"{rows} iterates but lams has shape {lams.shape}")
    u = np.array([it.to_dense() for it in iterates]).reshape(
        rows, m_full.shape[0]).T
    coeffs = basis.T @ (m_full @ u)
    inside = basis @ coeffs
    split = np.hstack([u - inside, inside])
    sq = np.einsum("ij,ij->j", split, m_full @ split)
    err_vec_h = np.sqrt(np.maximum(sq[:rows], 0.0))

    err_vec_a = np.full(rows, np.inf)
    has = np.linalg.norm(coeffs, axis=0) >= 1e-300
    w = inside[:, has] / np.sqrt(sq[rows:][has])
    # quadratic forms of the difference itself: expanding them cancels
    # catastrophically once u is close to w
    diff = np.hstack([u[:, has] - w, u[:, has] + w])
    val = (np.einsum("ij,ij->j", diff, a_full @ diff)
           + nu * np.einsum("ij,ij->j", diff, m_full @ diff))
    err_vec_a[has] = np.sqrt(np.maximum(val, 0.0)).reshape(2, -1).min(axis=0)
    return {
        "err_lambda": np.abs(lams - ref.mu1),
        "err_vec_h": err_vec_h,
        "err_vec_a": err_vec_a,
    }


def grad_check_rayleigh(op: KroneckerSumOperator, m: MetricSet, v: TensorSum,
                        h_step: float = 1e-5, num_dirs: int = 20,
                        seed: int = 0) -> float:
    """Finite-difference check of the Rayleigh quotient derivative.

    The derivative of J(v) = a(v,v)/<v,v> in direction w is
    J'(v)w = 2 (a(v,w) - J(v) <v,w>) / <v,v>; central differences along
    ``num_dirs`` seeded rank-one directions are compared against it and the
    maximum relative error is returned.
    """
    nrm2 = h_inner(v, v, m)
    nrm = float(np.sqrt(nrm2))
    if not (0.5 < nrm < 1.5):
        raise ValueError(f"base point norm {nrm:.3f} outside (0.5, 1.5)")
    jv = a_inner(op, v, v) / nrm2
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(num_dirs):
        w = TensorSum.rank_one([rng.standard_normal(n) for n in op.sizes])
        wn = float(np.sqrt(h_inner(w, w, m)))
        w = w.scaled(1.0 / wn)
        analytic = 2.0 * (a_inner(op, v, w) - jv * h_inner(v, w, m)) / nrm2

        def j_of(t):
            vt = v.plus(w.scaled(t))
            return a_inner(op, vt, vt) / h_inner(vt, vt, m)

        fd = (j_of(h_step) - j_of(-h_step)) / (2.0 * h_step)
        scale = max(1.0, abs(analytic))
        worst = max(worst, abs(fd - analytic) / scale)
    return worst
