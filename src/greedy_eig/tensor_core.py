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
(``residual_grams``).  A greedy basis's Grams live in one ``BasisGrams``
value, which ``grow_basis`` grows by one member per step: the forms' Grams
A and B and, above the limit, the residual's images and Grams.
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


@dataclass(frozen=True, eq=False)
class KroneckerSumOperator:
    """Symmetric bilinear form given by a sum of Kronecker-product terms.

    ``terms[k][j]`` is the j-th dimension factor of the k-th term; a factor
    that is not symmetric to rounding is refused (``symmetrize_factor``).
    Operators hold arrays, so they compare and hash by identity.
    """

    terms: tuple
    d: int
    num_terms: int
    sizes: tuple

    def __init__(self, terms: Sequence[Sequence[np.ndarray]]):
        if len(terms) < 1:
            raise StructuralError("operator needs at least one Kronecker term")
        if len(terms[0]) < 2:
            raise StructuralError("operator needs at least two dimensions")
        clean = tuple(tuple(symmetrize_factor(f) for f in term) for term in terms)
        sizes = tuple(f.shape[0] for f in clean[0])
        for term in clean:   # a term with another factor count fails too
            term_sizes = tuple(f.shape[0] for f in term)
            if term_sizes != sizes:
                raise StructuralError(
                    f"term factor sizes {term_sizes} do not match {sizes}")
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "d", len(sizes))
        object.__setattr__(self, "num_terms", len(clean))
        object.__setattr__(self, "sizes", sizes)

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

    def scaled(self, t: float) -> "TensorSum":
        return TensorSum._new(self.sizes, t * self.coeffs, self.factors)

    def plus(self, other: "TensorSum") -> "TensorSum":
        if other.sizes != self.sizes:
            raise StructuralError("cannot add tensors of different shapes")
        return TensorSum._new(
            self.sizes,
            np.concatenate([self.coeffs, other.coeffs]),
            tuple(
                np.hstack([a, b]) for a, b in zip(self.factors, other.factors)
            ),
        )

    def to_dense(self) -> np.ndarray:
        """Assemble the full coefficient tensor, flattened C-order."""
        # rows run over the leading indices, one column per term
        lead = self.factors[0] * self.coeffs
        for f in self.factors[1:-1]:
            lead = (lead[:, None, :] * f).reshape(len(lead) * len(f), -1)
        return (lead @ self.factors[-1].T).ravel()


def _check_shapes(u: TensorSum, v: TensorSum, sizes) -> None:
    if u.sizes != tuple(sizes) or v.sizes != tuple(sizes):
        raise StructuralError(
            f"tensor shapes {u.sizes} / {v.sizes} do not match {tuple(sizes)}"
        )


def _axis_product(blocks):
    """The entrywise product of per-axis blocks, taken in axis order."""
    return functools.reduce(np.multiply, blocks)


def _pencil_stacks(op: KroneckerSumOperator, m: MetricSet) -> list:
    """Per axis j, the (K + 1) N_j x N_j array [D^(1,j); ...; D^(K,j); M_j]:
    one product applies every term's factor and the mass."""
    return [np.concatenate([stack, mass])
            for stack, mass in zip(op.stacked, m.masses)]


def a_inner(op: KroneckerSumOperator, u: TensorSum, v: TensorSum) -> float:
    """a(u, v) for the Kronecker-sum operator."""
    _check_shapes(u, v, op.sizes)
    # had[k] = hadamard_j U_j^T D^(k,j) V_j
    had = _axis_product(uj.T @ (stack @ vj).reshape(op.num_terms, len(uj), -1)
                        for uj, vj, stack in zip(u.factors, v.factors, op.stacked))
    return float(u.coeffs @ had.sum(axis=0) @ v.coeffs)


def h_norm(u: TensorSum, m: MetricSet) -> float:
    return float(np.sqrt(max(a_inner(m, u, u), 0.0)))


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
    had = _axis_product(r @ y for r, y in zip(rows, images))
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
    images = tuple((stack @ f).reshape(K + 1, len(f), n)
                   .transpose(1, 2, 0).reshape(len(f), -1)
                   for stack, f in zip(_pencil_stacks(op, m), u.factors))
    return images, _gram_blocks(K, [y.T for y in images], images)


@dataclass(frozen=True, eq=False)
class BasisGrams:
    """The Grams of a basis z_1, ..., z_n: A = [a(z_a, z_b)] and
    B = [<z_a, z_b>].  Above DENSE_NORM_LIMIT entries it also holds the
    cache of ``residual_grams``, the members' per-axis images and the
    Grams <P z_a, Q z_b> for P, Q in (A, M); below, both are None."""

    a: np.ndarray
    b: np.ndarray
    images: tuple | None
    residual: np.ndarray | None


def grow_basis(op: KroneckerSumOperator, m: MetricSet, members: TensorSum,
               grams: BasisGrams | None = None) -> BasisGrams:
    """``grams`` of all but the last of ``members`` grown by the last (the
    value given is not changed), or, when ``grams`` is None, the Grams of
    the one-member basis ``members``.  The last member's images
    [D^(1,j) f; ...; D^(K,j) f; M_j f] are formed once: per axis, one
    product with every member's factors gives the new row of A and B and,
    above DENSE_NORM_LIMIT, one with every member's images that of each
    residual Gram, O(K^2 n sum_j N_j)."""
    K = op.num_terms
    new = [(stack @ cols[:, -1]).reshape(K + 1, -1)
           for stack, cols in zip(_pencil_stacks(op, m), members.factors)]
    rows = _axis_product(y @ cols for y, cols in zip(new, members.factors))
    a_row, b_row = rows[:-1].sum(axis=0), rows[-1]
    images = residual = None
    if grams is None:
        empty = np.zeros((0, 0))
        grams = BasisGrams(empty, empty, None, None)
        if math.prod(op.sizes) > DENSE_NORM_LIMIT:
            # views of the rows: numpy forms their Gram as one symmetric
            # product, bitwise the one of residual_grams
            images = tuple(y.T for y in new)
            residual = _gram_blocks(K, new, images)
    elif grams.images is not None:
        images = tuple(np.concatenate([y, f.T], axis=1)
                       for y, f in zip(grams.images, new))
        x = _gram_blocks(K, new, images)[:, :, 0]
        residual = bordered(grams.residual, x, x.transpose(1, 0, 2))
    return BasisGrams(bordered(grams.a, a_row, a_row),
                      bordered(grams.b, b_row, b_row), images, residual)


def eig_residual(op: KroneckerSumOperator, m: MetricSet, u: TensorSum,
                 lam: float, grams: np.ndarray | None = None) -> float:
    """Euclidean norm of A u - lam M u.

    Up to DENSE_NORM_LIMIT entries the iterate is assembled and taken
    through one stacked array [D^(1,j); ...; D^(K,j); M_j] per axis, exact
    to rounding.  Above, with c the coefficients of u's members,
    ||r||^2 = c^T G_AA c - 2 lam c^T G_AM c + lam^2 c^T G_MM c, read from
    ``grams`` (the residual Grams of ``grow_basis``) or from
    ``residual_grams``.  This squares the norm: a residual whose terms
    cancel below about sqrt(eps) = 1e-8 of their own norms, as an
    eigenpair's do, is not resolved."""
    if math.prod(u.sizes) > DENSE_NORM_LIMIT:
        grams = residual_grams(op, m, u)[1] if grams is None else grams
        w = np.array([1.0, -lam])
        return float(np.sqrt(max(w @ (grams @ u.coeffs @ u.coeffs) @ w, 0.0)))
    # y[t] is the t-th term's image, the mass's last: per axis, each
    # term's factor acts on it in one broadcast product
    y, lead = u.to_dense().reshape(1, 1, -1), 1
    for j, (nj, stack) in enumerate(zip(u.sizes, _pencil_stacks(op, m))):
        f = stack.reshape(-1, nj, nj)
        if j < op.d - 1:
            y = f[:, None] @ y.reshape(len(y), lead, nj, -1)
        else:   # symmetric factors act on the last axis from the right
            y = y.reshape(len(y), -1, nj) @ f
        lead *= nj
    return float(np.linalg.norm(y[:-1].sum(axis=0) - lam * y[-1]))


class DirectionData(NamedTuple):
    """The pencil of the open slot j around a rank-one hole: coefficients w
    (K + 1) and v ((K + 1) x N_j) on slot j's stack [D^(1,j); ...; D^(K,j);
    M_j], viewed as ``stack`` ((K + 1) x N_j^2) and ``stack_t`` (transposed).

    Writing z(s) for the frozen rank-one element with s in the open slot:
    a(z(s), z(t)) = s^T A_j t, <z(s), z(t)> = s^T Mj_eff t,
    a(context, z(s)) = b_j^T s, <context, z(s)> = m_j^T s.  Every shifted
    direction system is ``shifted(sigma, tau)``, the pair (A_j + sigma Mj_eff,
    tau m_j - b_j), and only this module reads the stack layout.
    """

    w: np.ndarray
    v: np.ndarray
    stack: np.ndarray
    stack_t: np.ndarray

    def shifted(self, sigma: float, tau: float) -> tuple:
        """The coefficients (1, ..., 1, sigma) w on the stack and
        (-1, ..., -1, tau) v on its transpose, one product each."""
        w, v = self.w.copy(), -self.v
        w[-1] *= sigma
        np.multiply(self.v[-1], tau, out=v[-1])
        return ((w @ self.stack).reshape(len(self.stack_t), -1),
                self.stack_t @ v.ravel())

    @property
    def A_j(self) -> np.ndarray:
        return (self.w[:-1] @ self.stack[:-1]).reshape(self.v.shape[1], -1)

    @property
    def Mj_eff(self) -> np.ndarray:
        return self.w[-1] * self.stack[-1].reshape(self.v.shape[1], -1)

    @property
    def b_j(self) -> np.ndarray:
        return self.stack_t[:, :-len(self.stack_t)] @ self.v[:-1].ravel()

    @property
    def m_j(self) -> np.ndarray:
        return self.stack_t[:, -len(self.stack_t):] @ self.v[-1]


class DirectionWorkspace:
    """Caches what ADM direction updates against one context reuse.

    The context (the accumulated greedy iterate) is fixed during an ADM
    solve.  Per dimension, the K operator factors and the mass matrix are
    stacked into one array, so one product gives a frozen factor's images
    under all of them; those images meet the factor and the context factors
    for the slot's pencil coefficients, and no image of the context is
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
        # per dimension j: rows k*N_j .. (k+1)*N_j - 1 hold D^(k,j), the last
        # block M_j, and its two views; U_j scaled by the context coefficients
        self._stacks = [(s, s.reshape(op.num_terms + 1, -1), s.T)
                        for s in _pencil_stacks(op, m)]
        self._weighted = [uj * context.coeffs for uj in context.factors]
        # per slot, the buffer [f | U_l] and the last frozen factor f
        # contracted, with its rows [f^T D^(k,l) f | f^T D^(k,l) U_l]
        self._bufs = [np.concatenate([np.empty((len(ul), 1)), ul], axis=1)
                      for ul in context.factors]
        self._slots = [(None, None)] * op.d

    def _contract(self, l: int, f):
        """[f^T D^(k,l) f | f^T D^(k,l) U_l] over k and then the mass, one
        row each, for the frozen factor ``f`` in slot ``l``."""
        self._bufs[l][:, 0] = f
        # the factors are symmetric, so row t of y is f^T D^(t,l)
        y = (self._stacks[l][0] @ f).reshape(self.op.num_terms + 1, -1)
        rows = y @ self._bufs[l]
        self._slots[l] = (f, rows)
        return rows

    def reduce(self, frozen: Sequence, j: int) -> DirectionData:
        """Contract everything but direction ``j`` against the frozen
        factors.  DegenerateDirection when the rank-one element is zero: the
        product over the slots of f_l^T M_l f_l, w[K] times the entry kept
        for ``frozen[j]`` (1 if none), is at most ZERO_NORM_TOL^(2d)."""
        # w[k] = prod_{l != j} f_l^T D^(k,l) f_l, with w[K] the mass weight;
        # p[k] = prod_{l != j} f_l^T D^(k,l) U_l, row K for the mass
        wp = None
        for l, (f, (key, rows)) in enumerate(zip(frozen, self._slots)):
            if l != j:
                if key is not f:
                    rows = self._contract(l, f)
                wp = rows if wp is None else wp * rows
        key, own = self._slots[j]
        zero = ZERO_NORM_TOL ** (2 * len(frozen))
        if wp[-1, 0] * (own[-1, 0] if key is frozen[j] else 1.0) <= zero:
            mass = [rows[-1, 0] if key is f else math.inf
                    for f, (key, rows) in zip(frozen, self._slots)]
            raise DegenerateDirection("rank-one element is zero; smallest "
                                      f"factor in dimension {mass.index(min(mass))}")
        # v[k] = sum_i c_i p[k, i] U_j[:, i]
        return DirectionData(wp[:, 0], wp[:, 1:] @ self._weighted[j].T,
                             *self._stacks[j][1:])
