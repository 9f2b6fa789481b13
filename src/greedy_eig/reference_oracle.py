"""Dense ground truth: full assembly, reference eigensolve, error metrics.

Everything here deliberately ignores the tensor structure.  The assembled
matrices serve as an independent check on the factored arithmetic, so the
expansion is written in the most direct way possible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import KernelFailure, TooLargeForOracle
from .tensor_core import (
    KroneckerSumOperator,
    MetricSet,
    RankOne,
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


def dense_assemble(op: KroneckerSumOperator, m: MetricSet):
    """Expand the operator and metric to full matrices."""
    _check_size(op.sizes)
    a_full = None
    for term in op.terms:
        t = np.array([[1.0]])
        for f in term:
            t = np.kron(t, f)
        a_full = t if a_full is None else a_full + t
    m_full = np.array([[1.0]])
    for mm in m.masses:
        m_full = np.kron(m_full, mm)
    return a_full, m_full


def dense_reference(op: KroneckerSumOperator, m: MetricSet,
                    degeneracy_tol: float = DEGENERACY_TOL) -> DenseReference:
    """Lowest eigenpairs of the assembled pencil, multiplicity-aware.

    Only the k lowest eigenpairs are computed: k starts at 2 and doubles
    while every returned eigenvalue lies within the degeneracy cut of the
    minimum, up to the full dimension, so the eigenspace and the gap above
    it are those of a full solve.
    """
    a_full, m_full = dense_assemble(op, m)
    n = a_full.shape[0]
    k = min(2, n)
    while True:
        try:
            vals, vecs = scipy.linalg.eigh(a_full, m_full,
                                           subset_by_index=[0, k - 1])
        except scipy.linalg.LinAlgError as exc:
            raise KernelFailure(
                f"dense generalized eigensolve failed: {exc}") from exc
        mu1 = float(vals[0])
        cut = mu1 + degeneracy_tol * (1.0 + abs(mu1))
        if vals[-1] > cut or k == n:
            break
        k = min(2 * k, n)
    mult = int(np.sum(vals <= cut))
    gap = float(vals[mult] - mu1) if mult < k else float("inf")
    basis = vecs[:, :mult]
    # scipy returns M-orthonormal vectors already; re-orthonormalize defensively
    g = basis.T @ m_full @ basis
    basis = basis @ np.linalg.inv(np.linalg.cholesky(g)).T
    return DenseReference(mu1, basis, gap, a_full, m_full)


def error_metrics(u: TensorSum, lam: float, ref: DenseReference,
                  nu: float) -> dict:
    """Distance of (u, lam) to the reference lowest eigenpair.

    err_vec_h is the metric norm of the component of u outside the lowest
    eigenspace; err_vec_a is the distance, in the norm of A + nu M, to the
    closest normalized element of that eigenspace.  Pass the shift the
    iterate was computed with (``GreedyConfig.nu``).
    """
    a_full, m_full = ref.operator, ref.mass
    u_vec = u.to_dense()
    coeffs = ref.eigenspace.T @ m_full @ u_vec
    inside = ref.eigenspace @ coeffs
    outside = u_vec - inside
    err_vec_h = float(np.sqrt(max(outside @ m_full @ outside, 0.0)))

    if np.linalg.norm(coeffs) < 1e-300:
        d_a = float("inf")
    else:
        w = inside / np.sqrt(inside @ m_full @ inside)
        # quadratic forms of the difference itself: expanding them cancels
        # catastrophically once u is close to w
        best = np.inf
        for cand in (w, -w):
            diff = u_vec - cand
            val = diff @ a_full @ diff + nu * (diff @ m_full @ diff)
            best = min(best, float(np.sqrt(max(val, 0.0))))
        d_a = best
    return {
        "err_lambda": abs(lam - ref.mu1),
        "err_vec_h": err_vec_h,
        "err_vec_a": d_a,
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
        w = TensorSum.from_rank_one(
            RankOne([rng.standard_normal(n) for n in op.sizes])
        )
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
