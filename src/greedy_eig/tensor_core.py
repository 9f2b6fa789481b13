"""Kronecker-structured symmetric operators and low-rank tensor values.

The operator class represents a symmetric bilinear form a(u, v) whose matrix
is a sum of K Kronecker products of per-dimension symmetric factors,

    A = sum_k  D^(k,1) x D^(k,2) x ... x D^(k,d).

The metric is the one-term case, M = M_1 x ... x M_d: ``MetricSet`` is a
``KroneckerSumOperator`` with a single term, so <u, v> is ``a_inner(m, u, v)``
and M u is ``apply_operator(m, u)``.

Iterates are kept in factored form: a ``TensorSum`` is a linear combination
of rank-one terms, and a rank-one element is the one-term sum
``TensorSum.rank_one(factors)``.  All inner products are evaluated dimension
by dimension through small Gram matrices; something of size prod(N_j) is
formed only by ``to_dense`` and by ``euclidean_norm`` for tensors of at most
DENSE_NORM_LIMIT entries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateDirection, DegenerateIterate, StructuralError

ZERO_NORM_TOL = 1e-14
DENSE_NORM_LIMIT = 4096   # entries up to which euclidean_norm assembles


def symmetrize_factor(mat) -> np.ndarray:
    """Validate and symmetrize a per-dimension factor matrix."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError(f"factor must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise StructuralError("factor contains non-finite entries")
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class KroneckerSumOperator:
    """Symmetric bilinear form given by a sum of Kronecker-product terms.

    ``terms[k][j]`` is the j-th dimension factor of the k-th term; all
    factors are symmetrized on construction.
    """

    terms: tuple

    def __init__(self, terms: Sequence[Sequence[np.ndarray]]):
        if len(terms) < 1:
            raise StructuralError("operator needs at least one Kronecker term")
        d = len(terms[0])
        if d < 2:
            raise StructuralError("operator needs at least two dimensions")
        clean = []
        sizes = None
        for term in terms:
            if len(term) != d:
                raise StructuralError("all terms must have the same number of factors")
            facs = tuple(symmetrize_factor(f) for f in term)
            term_sizes = tuple(f.shape[0] for f in facs)
            if sizes is None:
                sizes = term_sizes
            elif term_sizes != sizes:
                raise StructuralError(
                    f"term factor sizes {term_sizes} do not match {sizes}"
                )
            clean.append(facs)
        object.__setattr__(self, "terms", tuple(clean))

    @functools.cached_property
    def d(self) -> int:
        return len(self.terms[0])

    @functools.cached_property
    def num_terms(self) -> int:
        return len(self.terms)

    @functools.cached_property
    def sizes(self) -> tuple:
        return tuple(f.shape[0] for f in self.terms[0])

    @functools.cached_property
    def stacked(self) -> tuple:
        """Per dimension j, the (K N_j, N_j) array of D^(1,j), ..., D^(K,j)
        stacked by rows: one product applies every term's factor."""
        return tuple(np.concatenate([term[j] for term in self.terms])
                     for j in range(self.d))


class MetricSet(KroneckerSumOperator):
    """Per-dimension SPD mass matrices, the one-term form M_1 x ... x M_d.

    Defines <u, v> = u^T (M_1 x ... x M_d) v.  The residual rule's shift nu
    is a solver setting (``GreedyConfig.nu``), not part of the metric.
    """

    def __init__(self, masses: Sequence[np.ndarray]):
        super().__init__([masses])
        for mass in self.masses:
            try:
                np.linalg.cholesky(mass)
            except np.linalg.LinAlgError:
                raise StructuralError("mass matrix is not positive definite") from None

    @property
    def masses(self) -> tuple:
        return self.terms[0]

    @classmethod
    def identity(cls, sizes: Sequence[int]) -> "MetricSet":
        return cls([np.eye(n) for n in sizes])


def rebalance(factors):
    """Factors of the same outer product with equal norms, or None when a
    factor is zero.  Works on plain arrays, without validation."""
    norms = [math.sqrt(f @ f) for f in factors]
    if 0.0 in norms:
        return None
    total = math.prod(norms) ** (1.0 / len(norms))
    return [total * (f / n) for f, n in zip(factors, norms)]


class TensorSum:
    """Linear combination sum_k c_k z_k of rank-one terms.

    Factors are stored column-stacked per dimension (shape ``(N_j, n_terms)``)
    so inner products reduce to per-dimension Gram matrices.  The empty sum
    represents zero.  Instances are immutable.
    """

    __slots__ = ("coeffs", "factors", "sizes")

    def __init__(self, sizes: Sequence[int], coeffs=None, factors=None):
        sizes = tuple(int(n) for n in sizes)
        if coeffs is None:
            coeffs = np.zeros(0)
            factors = tuple(np.zeros((n, 0)) for n in sizes)
        coeffs = np.asarray(coeffs, dtype=float).ravel()
        factors = tuple(np.asarray(f, dtype=float) for f in factors)
        if len(factors) != len(sizes):
            raise StructuralError("factor count does not match dimension count")
        for n, f in zip(sizes, factors):
            if f.shape != (n, len(coeffs)):
                raise StructuralError(
                    f"factor block shape {f.shape} incompatible with "
                    f"size {n} and {len(coeffs)} terms"
                )
        self.coeffs = coeffs
        self.factors = factors
        self.sizes = sizes

    @classmethod
    def rank_one(cls, factors: Sequence[np.ndarray]) -> "TensorSum":
        """The outer product f^(1) x ... x f^(d) as a one-term sum with
        coefficient 1; any zero factor gives the zero element."""
        facs = [np.asarray(f, dtype=float).reshape(-1, 1) for f in factors]
        if len(facs) < 2:
            raise StructuralError("rank-one element needs at least two factors")
        if not all(np.all(np.isfinite(f)) for f in facs):
            raise StructuralError("rank-one factor contains non-finite entries")
        return cls([len(f) for f in facs], np.ones(1), facs)

    @property
    def num_terms(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return self.num_terms == 0

    def scaled(self, t: float) -> "TensorSum":
        return TensorSum(self.sizes, t * self.coeffs, self.factors)

    def plus(self, other: "TensorSum") -> "TensorSum":
        if other.sizes != self.sizes:
            raise StructuralError("cannot add tensors of different shapes")
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return TensorSum(
            self.sizes,
            np.concatenate([self.coeffs, other.coeffs]),
            tuple(
                np.hstack([a, b]) for a, b in zip(self.factors, other.factors)
            ),
        )

    def to_dense(self) -> np.ndarray:
        """Assemble the full coefficient tensor, flattened C-order."""
        if self.is_zero():
            return np.zeros(math.prod(self.sizes))
        # rows run over the leading indices, one column per term
        lead = self.factors[0] * self.coeffs
        for f in self.factors[1:-1]:
            lead = (lead[:, None, :] * f[None, :, :]).reshape(-1, self.num_terms)
        return (lead @ self.factors[-1].T).ravel()


def _check_shapes(u: TensorSum, v: TensorSum, sizes) -> None:
    if u.sizes != tuple(sizes) or v.sizes != tuple(sizes):
        raise StructuralError(
            f"tensor shapes {u.sizes} / {v.sizes} do not match {tuple(sizes)}"
        )


def a_inner(op: KroneckerSumOperator, u: TensorSum, v: TensorSum) -> float:
    """a(u, v) for the Kronecker-sum operator."""
    _check_shapes(u, v, op.sizes)
    if u.is_zero() or v.is_zero():
        return 0.0
    had = None   # had[k] = hadamard_j U_j^T D^(k,j) V_j
    for uj, vj, stack in zip(u.factors, v.factors, op.stacked):
        g = uj.T @ (stack @ vj).reshape(op.num_terms, len(uj), -1)
        had = g if had is None else had * g
    return float(u.coeffs @ had.sum(axis=0) @ v.coeffs)


def h_inner(u: TensorSum, v: TensorSum, m: MetricSet) -> float:
    """<u, v> under the product mass metric, the one-term form m."""
    return a_inner(m, u, v)


def h_norm(u: TensorSum, m: MetricSet) -> float:
    return float(np.sqrt(max(h_inner(u, u, m), 0.0)))


def euclidean_norm(u: TensorSum) -> float:
    """Plain 2-norm of the flattened coefficient tensor.

    A tensor of at most DENSE_NORM_LIMIT entries is assembled, which gives
    the norm to rounding.  A larger one is measured through the factored
    Gram, which squares the norm: a sum whose terms cancel to below about
    1e-8 of their own norms, such as an eigenpair residual, is not resolved.
    """
    if u.is_zero():
        return 0.0
    if math.prod(u.sizes) <= DENSE_NORM_LIMIT:
        return float(np.linalg.norm(u.to_dense()))
    had = None
    for uj in u.factors:
        g = uj.T @ uj
        had = g if had is None else had * g
    return float(np.sqrt(max(u.coeffs @ had @ u.coeffs, 0.0)))


def rayleigh(op: KroneckerSumOperator, m: MetricSet, u: TensorSum) -> float:
    """Rayleigh quotient a(u,u)/<u,u>; +inf for the zero element."""
    denom = h_inner(u, u, m)
    if denom == 0.0:
        return float("inf")
    return a_inner(op, u, u) / denom


def normalize(u: TensorSum, m: MetricSet) -> TensorSum:
    """Rescale u to unit H-norm; direction is preserved."""
    nrm = h_norm(u, m)
    if nrm < ZERO_NORM_TOL:
        raise DegenerateIterate(f"cannot normalize: H-norm {nrm:.3e}")
    return u.scaled(1.0 / nrm)


def apply_operator(op: KroneckerSumOperator, u: TensorSum) -> TensorSum:
    """A u in factored form; the result has K * num_terms rank-one terms."""
    if u.is_zero():
        return u
    K, n = op.num_terms, u.num_terms
    return TensorSum(
        u.sizes,
        np.tile(u.coeffs, K),
        tuple((stack @ fj).reshape(K, -1, n).transpose(1, 0, 2).reshape(-1, K * n)
              for stack, fj in zip(op.stacked, u.factors)),
    )


def eig_residual(op: KroneckerSumOperator, m: MetricSet, u: TensorSum, lam: float) -> float:
    """Euclidean norm of A u - lam M u, evaluated without dense assembly."""
    r = apply_operator(op, u).plus(apply_operator(m, u).scaled(-lam))
    return euclidean_norm(r)


@dataclass(frozen=True)
class DirectionData:
    """Per-direction contraction of the bilinear forms around a rank-one hole.

    Writing z(s) for the frozen rank-one element with s in the open slot:
    a(z(s), z(t)) = s^T A_j t, <z(s), z(t)> = s^T Mj_eff t,
    a(context, z(s)) = b_j^T s, <context, z(s)> = m_j^T s,
    alpha = a(context, context), beta = <context, context>.
    """

    A_j: np.ndarray
    Mj_eff: np.ndarray
    b_j: np.ndarray
    m_j: np.ndarray
    alpha: float
    beta: float


class DirectionWorkspace:
    """Caches context contractions reused across ADM direction updates.

    The context (the accumulated greedy iterate) is fixed during an ADM
    solve, so a(context, context), <context, context> and the per-dimension
    images D^(k,j) U_j, M_j U_j are computed once.  Per dimension, the K
    operator factors and the mass matrix are stacked into one array, and
    their context images side by side, so contracting a frozen factor
    against all terms takes two matrix products.  The contractions of the
    last factor seen in each slot are kept, so a sweep that changes one
    factor per update recomputes one slot per update; frozen factors must
    therefore not be modified in place between calls.
    """

    def __init__(self, op: KroneckerSumOperator, m: MetricSet, context: TensorSum):
        _check_shapes(context, context, op.sizes)
        self.op = op
        self.m = m
        self.context = context
        self.alpha = a_inner(op, context, context)
        self.beta = h_inner(context, context, m)
        K, n = op.num_terms, context.num_terms
        # per dimension j: rows k*N_j .. (k+1)*N_j - 1 hold D^(k,j), the
        # last block M_j; and the (N_j, (K+1) n) images [D^(k,j) U_j | M_j U_j]
        self._stacks = [np.concatenate([stack, mass])
                        for stack, mass in zip(op.stacked, m.masses)]
        self._terms_flat = [stack.reshape(K, -1) for stack in op.stacked]
        self._images = self._weighted = None
        if n:
            self._images = [
                np.ascontiguousarray((stack @ context.factors[j])
                                     .reshape(K + 1, -1, n).transpose(1, 0, 2)
                                     .reshape(-1, (K + 1) * n))
                for j, stack in enumerate(self._stacks)
            ]
            # the open slot's images carry the context coefficients
            self._weighted = [img * np.tile(context.coeffs, K + 1)
                              for img in self._images]
        self._slots = [None] * op.d

    def _contract(self, l: int, f):
        """(f^T D^(k,l) f over k and the mass, f^T [images] per term) for
        the frozen factor ``f`` in slot ``l``."""
        slot = self._slots[l]
        if slot is not None and slot[0] is f:
            return slot[1], slot[2]
        key, f = f, np.asarray(f, dtype=float)
        if len(f) != self.op.sizes[l]:
            raise StructuralError("frozen factor length mismatch")
        if f @ f < ZERO_NORM_TOL ** 2:
            raise DegenerateDirection(f"frozen factor in dimension {l} is zero")
        terms = self.op.num_terms + 1
        quad = (self._stacks[l] @ f).reshape(terms, -1) @ f
        proj = None
        if self._images is not None:
            proj = (f @ self._images[l]).reshape(terms, -1)
        self._slots[l] = (key, quad, proj)
        return quad, proj

    def reduce(self, frozen: Sequence, j: int) -> DirectionData:
        """Contract everything but direction ``j`` against the frozen factors."""
        op = self.op
        d, K = op.d, op.num_terms
        if not (0 <= j < d):
            raise StructuralError(f"direction index {j} out of range for d={d}")
        nj = op.sizes[j]
        # w[k] = prod_{l != j} f_l^T D^(k,l) f_l, with w[K] the mass weight;
        # p[k] = prod_{l != j} f_l^T D^(k,l) U_l, row K for the mass
        w = p = None
        for l in range(d):
            if l != j:
                quad, proj = self._contract(l, frozen[l])
                w = quad if w is None else w * quad
                p = proj if p is None else p * proj

        A_j = (w[:K] @ self._terms_flat[j]).reshape(nj, nj)
        Mj_eff = w[K] * self.m.masses[j]
        if p is None:
            b_j, m_j = np.zeros(nj), np.zeros(nj)
        else:
            n = self.context.num_terms
            img = self._weighted[j]
            b_j = img[:, :K * n] @ p[:K].ravel()
            m_j = img[:, K * n:] @ p[K]
        return DirectionData(A_j, Mj_eff, b_j, m_j, self.alpha, self.beta)

