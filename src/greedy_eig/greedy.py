"""Outer greedy drivers for the rank-one eigenvalue algorithms.

Three correction rules are available (Rayleigh minimization, shifted residual
minimization, explicit correction equation), each in a pure flavor, where the
new iterate is the normalized sum of the previous iterate and the correction,
and an orthogonal flavor, where all coefficients over the collected basis
(u_0, z_1, ..., z_n) are re-optimized through a small generalized eigenproblem.
"""

from __future__ import annotations

import enum
import math
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
    require_count,
)
from .dense_kernels import gen_sym_eig_smallest, one_blas_thread
from .errors import DegenerateIterate, GreedyEigError, IllConditionedGram
from .tensor_core import (
    KroneckerSumOperator,
    MetricSet,
    TensorSum,
    eig_residual,
)

ITERATE_COLLAPSE_TOL = 1e-12


class Variant(enum.Enum):
    RAYLEIGH = "rayleigh"
    RESIDUAL = "residual"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class GreedyConfig:
    """Every solver setting: the rule, the residual rule's shift ``nu``
    (the metric carries none) and the seed of every random draw."""

    variant: Variant = Variant.RAYLEIGH
    orthogonal: bool = False
    nu: float = 0.0
    max_iter: int = 100
    tol_lambda: float = 1e-12
    tol_residual: float = 1e-9
    adm: AdmConfig = field(default_factory=AdmConfig)
    rng_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.orthogonal, bool):
            raise ValueError(f"orthogonal must be true or false, "
                             f"got {self.orthogonal!r}")
        require_count("max_iter", self.max_iter)
        require_count("rng_seed", self.rng_seed, least=0)
        if not (0 < self.tol_lambda < math.inf
                and 0 < self.tol_residual < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 0 <= self.nu < math.inf:
            raise ValueError("nu must be non-negative and finite")


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
    u: TensorSum         # its terms are the basis u_0, z_1, ..., z_n
    lam: float
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
    iterates: tuple       # the normalized iterate of each trace row


def _extend_grams(op, m, A, B, members):
    """Grow the basis Grams by one row/column for the last of ``members``.

    Per dimension, the images of the new factor under every operator
    factor and the mass matrix meet all member factors in one product.
    """
    rows = np.ones((op.num_terms + 1, len(A) + 1))
    for stack, mass, cols in zip(op.stacked, m.masses, members.factors):
        f = cols[:, -1]
        images = np.vstack([(stack @ f).reshape(op.num_terms, -1), mass @ f])
        rows *= images @ cols
    a_row, b_row = rows[:-1].sum(axis=0), rows[-1]
    return (np.block([[A, a_row[:-1, None]], [a_row]]),
            np.block([[B, b_row[:-1, None]], [b_row]]))


def _unit(coef, gram_b):
    """``coef`` scaled to unit metric norm, and the scale factor."""
    nrm = float(np.sqrt(max(coef @ gram_b @ coef, 0.0)))
    if nrm < ITERATE_COLLAPSE_TOL:
        raise DegenerateIterate(f"updated iterate has H-norm {nrm:.3e}; "
                                "cannot normalize")
    alpha = 1.0 / nrm
    return alpha * coef, alpha


def initialize(op: KroneckerSumOperator, m: MetricSet, cfg: GreedyConfig,
               rng=None) -> GreedyState:
    """Build the starting iterate: the best rank-one element, H-normalized.

    Under the residual rule, warns when the starting Rayleigh value plus the
    shift ``cfg.nu`` is not positive: the shifted form may then fail to be
    coercive.
    """
    rng = np.random.default_rng(cfg.rng_seed) if rng is None else rng
    out = adm_initial_guess(op, m, cfg.adm, rng)
    z0 = out.z
    empty = np.zeros((0, 0))
    gram_a, gram_b = _extend_grams(op, m, empty, empty, z0)
    coef, _ = _unit(z0.coeffs, gram_b)
    u0 = TensorSum(z0.sizes, coef, z0.factors)
    lam0 = float(coef @ gram_a @ coef)
    if cfg.variant is Variant.RESIDUAL and lam0 + cfg.nu <= 0:
        warnings.warn(f"shift nu={cfg.nu} may be too small: the starting "
                      f"rank-one Rayleigh value is {lam0:.3e}", stacklevel=2)
    res0 = eig_residual(op, m, u0, lam0)
    row = TraceRow(0, lam0, 0.0, 0.0, 0.0, res0, 1.0, 0.0, lam0)
    return GreedyState(0, u0, lam0, [row], gram_a, gram_b)


def _compute_correction(op, m, state, cfg, rng) -> TensorSum:
    if cfg.variant is Variant.RAYLEIGH:
        return adm_rayleigh_step(op, m, state.u, cfg.adm, rng).z
    if cfg.variant is Variant.RESIDUAL:
        return adm_residual_step(op, m, state.u, state.lam, cfg.nu, cfg.adm,
                                 rng).z
    return adm_explicit_step(op, m, state.u, state.lam, cfg.adm, rng).z


def _pure_update(prev, pure, gram_a, gram_b):
    """The normalized sum of the previous iterate and the correction."""
    return pure


def _smallest_coefficients(A, B) -> np.ndarray:
    # basis members scaled to unit metric norm for conditioning
    d = np.sqrt(np.maximum(np.diag(B), 1e-300))
    _, coef = gen_sym_eig_smallest(A / np.outer(d, d), B / np.outer(d, d))
    return coef / d


def _galerkin_update(prev, pure, gram_a, gram_b):
    """The smallest generalized eigenvector of the basis Grams, signed to
    agree with the previous iterate.

    On a rank-deficient Gram the basis member at the failing Cholesky pivot
    keeps coefficient 0 and the solve is retried once without it.
    """
    coef = np.zeros(len(prev))
    active = list(range(len(prev)))
    try:
        coef[:] = _smallest_coefficients(gram_a, gram_b)
    except IllConditionedGram as exc:
        del active[exc.pivot]
        idx = np.ix_(active, active)
        coef[active] = _smallest_coefficients(gram_a[idx], gram_b[idx])
    coef, _ = _unit(coef, gram_b)
    return coef if prev @ gram_b @ coef > 0 else -coef


def _step(state, op, m, cfg, rng, update_coefficients) -> GreedyState:
    """One greedy iteration: correction, coefficient update, record.

    The iterate's terms are the basis, so both updates map coefficients to
    coefficients and every recorded scalar except the eigenpair residual is
    a quadratic form of the basis Grams.  The normalized pure update u + z
    is formed under either update: the trace records its value and its
    stationarity residual.
    """
    rng = np.random.default_rng(cfg.rng_seed + state.n + 1) if rng is None else rng
    t0 = time.perf_counter()
    z = _compute_correction(op, m, state, cfg, rng)
    members = state.u.plus(z)
    A, B = _extend_grams(op, m, state.gram_a, state.gram_b, members)
    prev = np.append(state.u.coeffs, 0.0)   # u over the new basis
    plus = members.coeffs                    # u + z
    pure, alpha = _unit(plus, B)
    lam_pure = float(pure @ A @ pure)
    coef = update_coefficients(prev, pure, A, B)
    lam_new = float(coef @ A @ coef)
    # a(z, .) and <z, .> over the basis
    a_z, b_z = A[-1], B[-1]
    if cfg.variant is Variant.RAYLEIGH:
        euler = a_z @ pure - lam_pure * (b_z @ pure)
    elif cfg.variant is Variant.RESIDUAL:
        euler = (a_z @ plus + cfg.nu * (b_z @ plus)
                 - (state.lam + cfg.nu) * (b_z @ prev))
    else:
        euler = a_z @ plus - state.lam * (b_z @ plus)
    z_norm_a = float(np.sqrt(max(a_z[-1] + cfg.nu * b_z[-1], 0.0)))
    u_new = TensorSum(members.sizes, coef, members.factors)
    res = eig_residual(op, m, u_new, lam_new)
    row = TraceRow(state.n + 1, lam_new, state.lam - lam_new, z_norm_a,
                   float(abs(euler)), res, alpha, time.perf_counter() - t0,
                   lam_pure)
    return GreedyState(state.n + 1, u_new, lam_new, state.trace + [row], A, B)


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
def run(op: KroneckerSumOperator, m: MetricSet, cfg: GreedyConfig) -> GreedyResult:
    """Drive a full greedy computation and report the termination reason.

    Stops when the eigenpair residual drops below tol_residual, when the
    eigenvalue decrease stays below tol_lambda for three consecutive
    iterations, at max_iter, or on a step failure.  The result carries one
    normalized iterate per trace row.  The bundled OpenBLAS runs on one
    thread for the duration of the call.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    state = initialize(op, m, cfg, rng)
    iterates = [state.u]
    if state.trace[0].eig_residual_h <= cfg.tol_residual:
        return GreedyResult(state.lam, state.u, tuple(state.trace),
                            "InitialGuessIsEigenvector", 0, tuple(iterates))

    advance = orthogonal_update if cfg.orthogonal else step
    stall = 0
    reason = "max_iter"
    while state.n < cfg.max_iter:
        try:
            state = advance(state, op, m, cfg, rng)
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
                        tuple(iterates))
