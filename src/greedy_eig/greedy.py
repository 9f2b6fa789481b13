"""Outer greedy drivers for the rank-one eigenvalue algorithms.

Three correction rules are available (Rayleigh minimization, shifted residual
minimization, explicit correction equation), each in a pure flavor, where the
new iterate is the normalized sum of the previous iterate and the correction,
and an orthogonal flavor, where all coefficients over the collected basis
(u_0, z_1, ..., z_n) are re-optimized through a small generalized eigenproblem.
"""

from __future__ import annotations

import enum
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .adm import (
    AdmConfig,
    adm_explicit_step,
    adm_initial_guess,
    adm_rayleigh_step,
    adm_residual_step,
)
from .dense_kernels import gen_sym_eig_smallest, one_blas_thread
from .errors import DegenerateIterate, GreedyEigError, IllConditionedGram
from .tensor_core import (
    KroneckerSumOperator,
    MetricSet,
    RankOne,
    TensorSum,
    a_inner,
    a_norm,
    eig_residual,
    h_inner,
    h_norm,
    normalize,
    shifted_inner,
)

ITERATE_COLLAPSE_TOL = 1e-12


class Variant(enum.Enum):
    RAYLEIGH = "rayleigh"
    RESIDUAL = "residual"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class GreedyConfig:
    variant: Variant = Variant.RAYLEIGH
    orthogonal: bool = False
    nu: float = 0.0
    max_iter: int = 100
    tol_lambda: float = 1e-12
    tol_residual: float = 1e-9
    adm: AdmConfig = field(default_factory=AdmConfig)
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol_lambda <= 0 or self.tol_residual <= 0:
            raise ValueError("tolerances must be positive")
        if self.nu < 0:
            raise ValueError("nu must be non-negative")


@dataclass(frozen=True)
class TraceRow:
    n: int
    lambda_n: float
    lambda_decrease: float
    z_norm_a: float
    euler_residual: float
    eig_residual_h: float
    alpha_n: float
    wall_time: float
    lambda_pure: float  # same-iteration pure-update value (= lambda_n when pure)


@dataclass
class GreedyState:
    n: int
    u: TensorSum
    lam: float
    basis: list          # RankOne elements: u_0, z_1, ..., z_n
    trace: list          # TraceRow per executed iteration
    gram_a: np.ndarray   # basis Gram of the operator form
    gram_b: np.ndarray   # basis Gram of the metric


@dataclass(frozen=True)
class GreedyResult:
    lam: float
    u: TensorSum
    trace: tuple
    reason: str
    iterations: int
    iterates: tuple = ()  # per-trace-row iterates when requested


def _extend_grams(op, m, A, B, basis, new):
    """Grow the basis Grams by one row/column for ``new``.

    Per dimension, the images of ``new``'s factor under every operator
    factor and the mass matrix meet all basis factors in one product.
    """
    k = len(basis)
    rows = np.ones((op.num_terms + 1, k + 1))
    for j, (stack, mass) in enumerate(zip(op.stacked, m.masses)):
        f = new.factors[j]
        images = np.vstack([(stack @ f).reshape(op.num_terms, -1), mass @ f])
        # the members side by side, C-ordered like np.column_stack builds
        # them (the product's rounding depends on it) at half its cost
        members = np.array([b.factors[j] for b in basis] + [f]).T
        rows *= images @ np.ascontiguousarray(members)
    A2 = np.zeros((k + 1, k + 1))
    B2 = np.zeros((k + 1, k + 1))
    A2[:k, :k] = A
    B2[:k, :k] = B
    A2[k, :] = A2[:, k] = rows[:-1].sum(axis=0)
    B2[k, :] = B2[:, k] = rows[-1]
    return A2, B2


def initialize(op: KroneckerSumOperator, m: MetricSet, cfg: GreedyConfig,
               rng=None) -> GreedyState:
    """Build the starting iterate: the best rank-one element, H-normalized.

    Under the residual rule, warns when the starting Rayleigh value plus the
    shift nu is not positive: the shifted form may then fail to be coercive.
    """
    rng = np.random.default_rng(cfg.rng_seed) if rng is None else rng
    out = adm_initial_guess(op, m, cfg.adm, rng)
    u0 = TensorSum.from_rank_one(out.z)
    u0 = normalize(u0, m)
    lam0 = a_inner(op, u0, u0)
    if cfg.variant is Variant.RESIDUAL and lam0 + m.nu <= 0:
        warnings.warn(f"shift nu={m.nu} may be too small: the starting "
                      f"rank-one Rayleigh value is {lam0:.3e}", stacklevel=2)
    res0 = eig_residual(op, m, u0, lam0)
    row = TraceRow(0, lam0, 0.0, 0.0, 0.0, res0, 1.0, 0.0, lam0)
    empty = np.zeros((0, 0))
    return GreedyState(0, u0, lam0, [out.z], [row],
                       *_extend_grams(op, m, empty, empty, [], out.z))


def _compute_correction(op, m, state, cfg, rng) -> RankOne:
    if cfg.variant is Variant.RAYLEIGH:
        return adm_rayleigh_step(op, m, state.u, cfg.adm, rng).z
    if cfg.variant is Variant.RESIDUAL:
        return adm_residual_step(op, m, state.u, state.lam, cfg.adm, rng).z
    return adm_explicit_step(op, m, state.u, state.lam, cfg.adm, rng).z


def _euler_residual(op, m, variant, u_prev, u_new, z_ts, lam_prev, lam_new, nu):
    if variant is Variant.RAYLEIGH:
        return abs(a_inner(op, u_new, z_ts) - lam_new * h_inner(u_new, z_ts, m))
    u_plus = u_prev.plus(z_ts)
    if variant is Variant.RESIDUAL:
        return abs(
            shifted_inner(op, m, u_plus, z_ts)
            - (lam_prev + nu) * h_inner(u_prev, z_ts, m)
        )
    return abs(a_inner(op, u_plus, z_ts) - lam_prev * h_inner(u_plus, z_ts, m))


def _pure_update(u_prev, u_pure, basis, gram_a, gram_b, m) -> TensorSum:
    """The normalized sum of the previous iterate and the correction."""
    return u_pure


def _smallest_coefficients(A, B) -> np.ndarray:
    # basis members scaled to unit metric norm for conditioning
    d = np.sqrt(np.maximum(np.diag(B), 1e-300))
    _, coef = gen_sym_eig_smallest(A / np.outer(d, d), B / np.outer(d, d))
    return coef / d


def _galerkin_update(u_prev, u_pure, basis, gram_a, gram_b, m) -> TensorSum:
    """The smallest generalized eigenvector of the basis Grams.

    On a rank-deficient Gram the basis member at the failing Cholesky pivot
    is dropped and the solve retried once.
    """
    active = list(range(len(basis)))
    try:
        coef = _smallest_coefficients(gram_a, gram_b)
    except IllConditionedGram as exc:
        del active[exc.pivot]
        idx = np.ix_(active, active)
        coef = _smallest_coefficients(gram_a[idx], gram_b[idx])
    u_new = normalize(TensorSum.combine(coef, [basis[i] for i in active]), m)
    return u_new if h_inner(u_prev, u_new, m) > 0 else u_new.scaled(-1.0)


def _step(state, op, m, cfg, rng, update_coefficients) -> GreedyState:
    """One greedy iteration: correction, coefficient update, record.

    The normalized pure update u + z is formed under either coefficient
    update: the trace records its value and its stationarity residual.
    """
    rng = np.random.default_rng(cfg.rng_seed + state.n + 1) if rng is None else rng
    t0 = time.perf_counter()
    z = _compute_correction(op, m, state, cfg, rng)
    z_ts = TensorSum.from_rank_one(z)
    candidate = state.u.plus(z_ts)
    nrm = h_norm(candidate, m)
    if nrm < ITERATE_COLLAPSE_TOL:
        raise DegenerateIterate(
            f"updated iterate has H-norm {nrm:.3e}; cannot normalize"
        )
    alpha = 1.0 / nrm
    u_pure = candidate.scaled(alpha)
    lam_pure = a_inner(op, u_pure, u_pure)
    gram_a, gram_b = _extend_grams(op, m, state.gram_a, state.gram_b,
                                   state.basis, z)
    basis = state.basis + [z]
    u_new = update_coefficients(state.u, u_pure, basis, gram_a, gram_b, m)
    # a_inner costs O(n^2) in the iterate's n terms: skip it for u_pure
    lam_new = lam_pure if u_new is u_pure else a_inner(op, u_new, u_new)
    euler = _euler_residual(op, m, cfg.variant, state.u, u_pure, z_ts,
                            state.lam, lam_pure, m.nu)
    res = eig_residual(op, m, u_new, lam_new)
    row = TraceRow(
        state.n + 1,
        lam_new,
        state.lam - lam_new,
        a_norm(op, m, z_ts),
        euler,
        res,
        alpha,
        time.perf_counter() - t0,
        lam_pure,
    )
    return GreedyState(state.n + 1, u_new, lam_new, basis, state.trace + [row],
                       gram_a, gram_b)


def step(state: GreedyState, op: KroneckerSumOperator, m: MetricSet,
         cfg: GreedyConfig, rng=None) -> GreedyState:
    """One pure iteration: the new iterate is u + z, normalized."""
    return _step(state, op, m, cfg, rng, _pure_update)


def orthogonal_update(state: GreedyState, op: KroneckerSumOperator,
                      m: MetricSet, cfg: GreedyConfig, rng=None) -> GreedyState:
    """One orthogonal iteration: all coefficients over (u_0, z_1, ..., z_n)
    are re-optimized through the smallest eigenpair of the basis Grams."""
    return _step(state, op, m, cfg, rng, _galerkin_update)


@one_blas_thread()
def run(op: KroneckerSumOperator, m: MetricSet, cfg: GreedyConfig,
        keep_iterates: bool = False) -> GreedyResult:
    """Drive a full greedy computation and report the termination reason.

    Stops when the eigenpair residual drops below tol_residual, when the
    eigenvalue decrease stays below tol_lambda for three consecutive
    iterations, at max_iter, or on a step failure.  With ``keep_iterates``
    the result also carries one normalized iterate per trace row.  The
    bundled OpenBLAS runs on one thread for the duration of the call.
    """
    m_eff = m if m.nu == cfg.nu else m.with_nu(cfg.nu)
    rng = np.random.default_rng(cfg.rng_seed)
    state = initialize(op, m_eff, cfg, rng)
    iterates = [state.u]
    if state.trace[0].eig_residual_h <= cfg.tol_residual:
        return GreedyResult(state.lam, state.u, tuple(state.trace),
                            "InitialGuessIsEigenvector", 0,
                            tuple(iterates) if keep_iterates else ())

    advance = orthogonal_update if cfg.orthogonal else step
    stall = 0
    reason = "max_iter"
    while state.n < cfg.max_iter:
        try:
            state = advance(state, op, m_eff, cfg, rng)
        except GreedyEigError as exc:
            reason = f"step_failure: {type(exc).__name__}: {exc}"
            break
        iterates.append(state.u)
        row = state.trace[-1]
        if row.eig_residual_h <= cfg.tol_residual:
            reason = "converged_residual"
            break
        if abs(row.lambda_decrease) < cfg.tol_lambda:
            stall += 1
            if stall >= 3:
                reason = "converged_lambda"
                break
        else:
            stall = 0
    return GreedyResult(state.lam, state.u, tuple(state.trace), reason, state.n,
                        tuple(iterates) if keep_iterates else ())
