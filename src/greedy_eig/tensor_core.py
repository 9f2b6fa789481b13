"""Kronecker-structured symmetric operators and low-rank tensor values.

The operator class represents a symmetric bilinear form a(u, v) whose matrix
is a sum of K Kronecker products of per-dimension symmetric factors,

    A = sum_k  D^(k,1) x D^(k,2) x ... x D^(k,d).

The metric is the one-term case, M = M_1 x ... x M_d: ``MetricSet`` is a
``KroneckerSumOperator`` with a single term, so <u, v> is ``a_inner(m, u, v)``.

Iterates are kept in factored form: a ``TensorSum`` is a linear combination
of rank-one terms, and a rank-one element is the one-term sum
``TensorSum.rank_one(factors)``.  All inner products are evaluated dimension
by dimension through small Gram matrices; something of size prod(N_j) is
formed only by ``to_dense``, and by ``eig_residual`` for tensors of at most
DENSE_NORM_LIMIT entries.  Above that limit the eigenpair residual is read
from the Euclidean Grams of the members' images under A and M
(``residual_grams``), which the greedy state grows by one row per step
(``grow_residual_grams``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dense_kernels import cholesky_spd
from .errors import DegenerateDirection, IllConditionedGram, StructuralError

ZERO_NORM_TOL = 1e-14
DENSE_NORM_LIMIT = 4096   # entries up to which the residual is assembled
SYMMETRY_RTOL = 1e-12     # largest max|A - A^T| / max|A| of a factor


def symmetrize_factor(mat) -> np.ndarray:
    """Validate a per-dimension factor matrix: square, finite and symmetric
    to SYMMETRY_RTOL relative.  Returns 0.5 (A + A^T), exactly symmetric."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError(f"factor must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise StructuralError("factor contains non-finite entries")
    asym = np.abs(a - a.T).max(initial=0.0)
    if asym > SYMMETRY_RTOL * np.abs(a).max(initial=0.0):
        raise StructuralError(f"asymmetric factor: max|A - A^T| = {asym:.3e}")
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class KroneckerSumOperator:
    """Symmetric bilinear form given by a sum of Kronecker-product terms.

    ``terms[k][j]`` is the j-th dimension factor of the k-th term; a factor
    that is not symmetric to rounding is refused (``symmetrize_factor``).
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
    is a solver setting (``GreedyConfig.nu``), not part of the metric.  A
    mass that fails ``cholesky_spd``, the SPD test the solver applies, is
    refused.
    """

    def __init__(self, masses: Sequence[np.ndarray]):
        super().__init__([masses])
        for mass in self.masses:
            try:
                cholesky_spd(mass)
            except IllConditionedGram:
                raise StructuralError("mass matrix is not positive definite") from None

    @property
    def masses(self) -> tuple:
        return self.terms[0]

    @classmethod
    def identity(cls, sizes: Sequence[int]) -> "MetricSet":
        return cls([np.eye(n) for n in sizes])


def rebalance(factors, norms=None):
    """Factors of the same outer product with equal norms, or None when a
    factor is zero.  Works on plain arrays, without validation; ``norms``
    are the factors' 2-norms when the caller has them."""
    norms = norms or [math.sqrt(f @ f) for f in factors]
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
    def _new(cls, sizes: tuple, coeffs: np.ndarray, factors: tuple) -> "TensorSum":
        """A sum from parts whose shapes and dtypes hold by construction,
        skipping the checks of ``__init__``."""
        u = object.__new__(cls)
        u.coeffs, u.factors, u.sizes = coeffs, factors, sizes
        return u

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
        return TensorSum._new(self.sizes, t * self.coeffs, self.factors)

    def plus(self, other: "TensorSum") -> "TensorSum":
        if other.sizes != self.sizes:
            raise StructuralError("cannot add tensors of different shapes")
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return TensorSum._new(
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


def h_norm(u: TensorSum, m: MetricSet) -> float:
    return float(np.sqrt(max(a_inner(m, u, u), 0.0)))


def residual_by_grams(sizes) -> bool:
    """Whether ``eig_residual`` reads these sizes from the residual Grams:
    above DENSE_NORM_LIMIT entries, read at call time."""
    return math.prod(sizes) > DENSE_NORM_LIMIT


def bordered(old: np.ndarray, row: np.ndarray, col: np.ndarray) -> np.ndarray:
    """``old`` grown by a last row and column over its last two axes."""
    n = old.shape[-1]
    G = np.empty(old.shape[:-2] + (n + 1, n + 1))
    G[..., :n, :n], G[..., n, :], G[..., :n, n] = old, row, col[..., :n]
    return G


def _gram_blocks(K: int, rows, images) -> np.ndarray:
    """X[p, q, a, b] = <P z_a, Q z_b> for P, Q in (A, M), where per axis the
    rows of ``rows`` hold the K + 1 images of each z_a and the columns of
    ``images`` those of each z_b: the Hadamard product over the axes of
    their Euclidean Grams, summed over the operator terms."""
    had = None
    for r, y in zip(rows, images):
        g = r @ y
        had = g if had is None else had * g
    sel = np.zeros((2, K + 1))   # sums the operator terms, keeps the mass
    sel[0, :K] = sel[1, K] = 1.0
    n_rows, n_cols = (k // (K + 1) for k in had.shape)
    x = sel @ had.reshape(n_rows, K + 1, n_cols * (K + 1))
    return (x.reshape(n_rows, 2, n_cols, K + 1) @ sel.T).transpose(1, 3, 0, 2)


def residual_grams(op: KroneckerSumOperator, m: MetricSet, u: TensorSum) -> tuple:
    """The residual cache of u's members z_a, built from scratch: per axis
    the images [D^(1,j) f; ...; D^(K,j) f; M_j f] of each member's factor
    as the columns of an (N_j, n (K + 1)) array, and the Grams
    G[p, q, a, b] = <P z_a, Q z_b> for P, Q in (A, M)."""
    K, n = op.num_terms, u.num_terms
    images = tuple(
        np.concatenate([(stack @ f).reshape(K, len(f), n), (mass @ f)[None]])
        .transpose(1, 2, 0).reshape(len(f), -1)
        for stack, mass, f in zip(op.stacked, m.masses, u.factors))
    return images, _gram_blocks(K, [y.T for y in images], images)


def grow_residual_grams(op: KroneckerSumOperator, images: tuple,
                        grams: np.ndarray, new: Sequence[np.ndarray]) -> tuple:
    """The residual cache grown by a member whose per-axis images are the
    rows of ``new``: one product per axis with every member's images gives
    the new row and column of each Gram, O(K^2 n sum_j N_j)."""
    images = tuple(np.concatenate([y, f.T], axis=1) for y, f in zip(images, new))
    x = _gram_blocks(op.num_terms, new, images)[:, :, 0]
    return images, bordered(grams, x, x.transpose(1, 0, 2))


def eig_residual(op: KroneckerSumOperator, m: MetricSet, u: TensorSum,
                 lam: float, grams: np.ndarray | None = None) -> float:
    """Euclidean norm of A u - lam M u.

    Up to DENSE_NORM_LIMIT entries the iterate is assembled and taken
    through one stacked array [D^(1,j); ...; D^(K,j); M_j] per axis, exact
    to rounding.  Above, with c the coefficients of u's members,
    ||r||^2 = c^T G_AA c - 2 lam c^T G_AM c + lam^2 c^T G_MM c, read from
    ``grams`` (the greedy state grows them with its basis) or from
    ``residual_grams``.  This squares the norm: a residual whose terms
    cancel below about sqrt(eps) = 1e-8 of their own norms, as an
    eigenpair's do, is not resolved."""
    if residual_by_grams(u.sizes):
        grams = residual_grams(op, m, u)[1] if grams is None else grams
        w = np.array([1.0, -lam])
        return float(np.sqrt(max(w @ (grams @ u.coeffs @ u.coeffs) @ w, 0.0)))
    stacks = [np.concatenate([stack, mass])
              for stack, mass in zip(op.stacked, m.masses)]
    # y[t] is the t-th term's image, the mass's last: per axis, each
    # term's factor acts on it in one broadcast product
    y, lead = u.to_dense().reshape(1, 1, -1), 1
    for j, (nj, stack) in enumerate(zip(u.sizes, stacks)):
        f = stack.reshape(-1, nj, nj)
        if j < op.d - 1:
            y = f[:, None] @ y.reshape(len(y), lead, nj, -1)
        else:   # symmetric factors act on the last axis from the right
            y = y.reshape(len(y), -1, nj) @ f
        lead *= nj
    return float(np.linalg.norm(y[:-1].sum(axis=0) - lam * y[-1]))


class DirectionData(NamedTuple):
    """Per-direction contraction of the bilinear forms around a rank-one hole.

    Writing z(s) for the frozen rank-one element with s in the open slot:
    a(z(s), z(t)) = s^T A_j t, <z(s), z(t)> = s^T Mj_eff t,
    a(context, z(s)) = b_j^T s, <context, z(s)> = m_j^T s.
    """

    A_j: np.ndarray
    Mj_eff: np.ndarray
    b_j: np.ndarray
    m_j: np.ndarray


class DirectionWorkspace:
    """Caches what ADM direction updates against one context reuse.

    The context (the accumulated greedy iterate) is fixed during an ADM
    solve.  Per dimension, the K operator factors and the mass matrix are
    stacked into one array, so one product gives a frozen factor's images
    under all of them; those images meet the factor and the context factors
    for the slot's weights and projections, and no image of the context is
    formed.  The contraction of the last factor seen in each slot is kept,
    so a sweep that changes one factor per update recomputes one slot per
    update; frozen factors must therefore not be modified in place between
    calls.  a(context, context) and <context, context> are not formed: the
    ADM solvers take them from the greedy state.
    """

    def __init__(self, op: KroneckerSumOperator, m: MetricSet, context: TensorSum):
        _check_shapes(context, context, op.sizes)
        if m.sizes != op.sizes:
            raise StructuralError(
                f"metric sizes {m.sizes} do not match operator sizes {op.sizes}")
        self.op = op
        self.m = m
        # per dimension j: rows k*N_j .. (k+1)*N_j - 1 hold D^(k,j), the last
        # block M_j; and U_j, plain and scaled by the context coefficients
        self._stacks = [np.concatenate([stack, mass])
                        for stack, mass in zip(op.stacked, m.masses)]
        self._context = context.factors
        self._weighted = [uj * context.coeffs for uj in context.factors]
        # per slot, (factor, quad, proj) of the last factor contracted
        self._slots = [(None,) * 3] * op.d

    def _contract(self, l: int, f):
        """(f^T D^(k,l) f, f^T D^(k,l) U_l) over k and then the mass, for
        the frozen factor ``f`` in slot ``l``."""
        key, quad, proj = self._slots[l]
        if key is f:
            return quad, proj
        key, f = f, np.asarray(f, dtype=float)
        if f @ f < ZERO_NORM_TOL ** 2:
            raise DegenerateDirection(f"frozen factor in dimension {l} is zero")
        # the factors are symmetric, so row t of y is f^T D^(t,l)
        y = (self._stacks[l] @ f).reshape(self.op.num_terms + 1, -1)
        quad, proj = y @ f, y @ self._context[l]
        self._slots[l] = (key, quad, proj)
        return quad, proj

    def reduce(self, frozen: Sequence, j: int) -> DirectionData:
        """Contract everything but direction ``j`` against the frozen factors."""
        op = self.op
        d, K = op.d, op.num_terms
        nj = op.sizes[j]
        # w[k] = prod_{l != j} f_l^T D^(k,l) f_l, with w[K] the mass weight;
        # p[k] = prod_{l != j} f_l^T D^(k,l) U_l, row K for the mass
        w = p = None
        for l in range(d):
            if l != j:
                quad, proj = self._contract(l, frozen[l])
                w = quad if w is None else w * quad
                p = proj if p is None else p * proj

        A_j = (w[:K] @ op.stacked[j].reshape(K, -1)).reshape(nj, nj)
        Mj_eff = w[K] * self.m.masses[j]
        if not p.size:   # an empty context projects to zero
            return DirectionData(A_j, Mj_eff, np.zeros(nj), np.zeros(nj))
        # v[k] = sum_i c_i p[k, i] U_j[:, i]; b_j = sum_k D^(k,j) v[k]
        v = p @ self._weighted[j].T
        b_j = op.stacked[j].T @ v[:K].ravel()
        m_j = self.m.masses[j] @ v[K]
        return DirectionData(A_j, Mj_eff, b_j, m_j)
