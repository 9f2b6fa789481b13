"""Outer greedy drivers for the rank-one eigenvalue algorithms.

Three correction rules are available (Rayleigh minimization, shifted residual
minimization, explicit correction equation), each in a pure flavor, where the
new iterate is the normalized sum of the previous iterate and the correction,
and an orthogonal flavor, where all coefficients over the collected basis
(u_0, z_1, ..., z_n) are re-optimized through a small generalized eigenproblem.
A correction that adds nothing to the span of the basis leaves it unchanged.
"""

from __future__ import annotations

import copy
import enum
import math
import numbers
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .adm import (
    adm_explicit_step,
    adm_initial_guess,
    adm_rayleigh_step,
    adm_residual_step,
)
from .dense_kernels import gen_sym_eig_smallest, one_blas_thread
from .errors import (DegenerateIterate, GreedyEigError, IllConditionedGram,
                     require_count)
from .tensor_core import (
    BasisGrams,
    KroneckerSumOperator,
    MetricSet,
    TensorSum,
    eig_residual,
    grow_basis,
)

# smallest metric norm of a coefficient vector c, relative to the sum
# sum_i |c_i| ||m_i|| over the members m_i, that normalization accepts
ITERATE_COLLAPSE_RTOL = 1e-6


class Variant(enum.Enum):
    RAYLEIGH = "rayleigh"
    RESIDUAL = "residual"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class GreedyConfig:
    """Every solver setting: the rule, the residual rule's shift ``nu``
    (the metric carries none) and the seed of the run's one random stream."""

    variant: Variant = Variant.RAYLEIGH
    orthogonal: bool = False
    nu: float = 0.0
    max_iter: int = 100
    tol_lambda: float = 1e-12
    tol_residual: float = 1e-9
    rng_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            raise ValueError(f"variant must be a Variant, got {self.variant!r}")
        if not isinstance(self.orthogonal, bool):
            raise ValueError(f"orthogonal must be true or false, "
                             f"got {self.orthogonal!r}")
        require_count("max_iter", self.max_iter)
        require_count("rng_seed", self.rng_seed, least=0)
        for name, sign in (("nu", "non-negative"), ("tol_lambda", "positive"),
                           ("tol_residual", "positive")):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not 0 <= value < math.inf
                    or value == 0 and sign == "positive"):
                raise ValueError(f"{name} must be a {sign} finite number, "
                                 f"got {value!r}")


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


@dataclass(eq=False)
class GreedyState:
    """The iterate, the Grams of its basis and the run's stream.  The
    Grams (``tensor_core.grow_basis``) grow with the basis and carry
    whatever the eigenpair residual is read from."""

    n: int
    u: TensorSum         # its terms are the basis: u_0 and the kept z_i
    lam: float
    trace: list          # TraceRow per executed iteration
    grams: BasisGrams    # of the basis: A, B and the residual's
    rng: np.random.Generator   # the run's stream; a step draws from a copy


@dataclass(frozen=True)
class GreedyResult:
    lam: float
    u: TensorSum
    trace: tuple
    reason: str
    iterations: int
    iterates: tuple       # the normalized iterate of each trace row


def _unit(coef, gram_b):
    """``coef`` scaled to unit metric norm, and the scale factor.

    c^T B c rounds to about eps (sum_i |c_i| sqrt(B_ii))^2, so a norm
    below ITERATE_COLLAPSE_RTOL of that sum is a sum of members that
    cancelled, and raises DegenerateIterate."""
    nrm = math.sqrt(max(coef @ gram_b @ coef, 0.0))
    scale = float(np.abs(coef) @ np.sqrt(gram_b.diagonal()))
    if not nrm > ITERATE_COLLAPSE_RTOL * scale:
        raise DegenerateIterate(f"updated iterate has H-norm {nrm:.3e}, its "
                                f"members' sum {scale:.3e}; cannot normalize")
    alpha = 1.0 / nrm
    return alpha * coef, alpha


def initialize(op: KroneckerSumOperator, m: MetricSet,
               cfg: GreedyConfig) -> GreedyState:
    """Build the starting iterate: the best rank-one element, H-normalized.

    Seeds the run's generator from ``cfg.rng_seed``.  Under the residual
    rule, warns when the starting Rayleigh value plus the shift ``cfg.nu``
    is not positive: the shifted form may then fail to be coercive.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    out = adm_initial_guess(op, m, rng)
    z0 = out.z
    grams = grow_basis(op, m, z0)
    coef, _ = _unit(z0.coeffs, grams.b)
    u0 = TensorSum._new(z0.sizes, coef, z0.factors)
    lam0 = float(coef @ grams.a @ coef)
    if cfg.variant is Variant.RESIDUAL and lam0 + cfg.nu <= 0:
        warnings.warn(f"shift nu={cfg.nu} may be too small: the starting "
                      f"rank-one Rayleigh value is {lam0:.3e}", stacklevel=2)
    res0 = eig_residual(op, m, u0, lam0, grams.residual)
    row = TraceRow(0, lam0, 0.0, 0.0, 0.0, res0, 1.0, 0.0, lam0)
    return GreedyState(0, u0, lam0, [row], grams, rng)


def _compute_correction(op, m, state, cfg, rng) -> TensorSum:
    if cfg.variant is Variant.RAYLEIGH:
        return adm_rayleigh_step(op, m, state.u, state.lam, rng).z
    if cfg.variant is Variant.RESIDUAL:
        return adm_residual_step(op, m, state.u, state.lam, cfg.nu, rng).z
    return adm_explicit_step(op, m, state.u, state.lam, rng).z


def _pure_update(prev, pure, gram_a, gram_b):
    """The normalized sum of the previous iterate and the correction."""
    return pure


def _galerkin_update(prev, pure, gram_a, gram_b):
    """The smallest generalized eigenvector of the basis Grams, signed to
    agree with the previous iterate.

    None when the metric Gram fails the SPD test: the new member then lies
    in the span of the others, and the Galerkin problem has not changed.
    """
    # basis members scaled to unit metric norm for conditioning
    d = np.sqrt(np.maximum(np.diag(gram_b), 1e-300))
    try:
        _, coef = gen_sym_eig_smallest(gram_a / np.outer(d, d),
                                       gram_b / np.outer(d, d))
    except IllConditionedGram:
        return None
    coef, _ = _unit(coef / d, gram_b)
    return coef if prev @ gram_b @ coef > 0 else -coef


def _step(state, op, m, cfg, update_coefficients) -> GreedyState:
    """One greedy iteration: correction, coefficient update, record.

    The iterate's terms are the basis, so both updates map coefficients to
    coefficients and every recorded scalar except the eigenpair residual is
    a quadratic form of the basis Grams.  The normalized pure update u + z
    is formed under either update: the trace records its value and its
    stationarity residual.  When the update returns None, z is not added
    and the iterate, its Grams and lambda stay.  The draws come from a copy
    of ``state.rng``.
    """
    t0 = time.perf_counter()
    rng = np.random.Generator(copy.copy(state.rng.bit_generator))
    z = _compute_correction(op, m, state, cfg, rng)
    members = state.u.plus(z)
    grams = grow_basis(op, m, members, state.grams)
    A, B = grams.a, grams.b
    prev = np.append(state.u.coeffs, 0.0)   # u over the new basis
    plus = members.coeffs                    # u + z
    pure, alpha = _unit(plus, B)
    lam_pure = float(pure @ A @ pure)
    coef = update_coefficients(prev, pure, A, B)
    # a(z, .) and <z, .> over the basis
    a_z, b_z = A[-1], B[-1]
    if cfg.variant is Variant.RAYLEIGH:
        euler = a_z @ pure - lam_pure * (b_z @ pure)
    else:   # the explicit rule is the residual rule at shift -lambda
        shift = cfg.nu if cfg.variant is Variant.RESIDUAL else -state.lam
        euler = (a_z @ plus + shift * (b_z @ plus)
                 - (state.lam + shift) * (b_z @ prev))
    z_norm_a = float(np.sqrt(max(a_z[-1] + cfg.nu * b_z[-1], 0.0)))
    if coef is None:
        u_new, lam_new, grams = state.u, state.lam, state.grams
    else:
        u_new = TensorSum._new(members.sizes, coef, members.factors)
        lam_new = float(coef @ A @ coef)
    res = eig_residual(op, m, u_new, lam_new, grams.residual)
    row = TraceRow(state.n + 1, lam_new, state.lam - lam_new, z_norm_a,
                   float(abs(euler)), res, alpha, time.perf_counter() - t0,
                   lam_pure)
    return GreedyState(row.n, u_new, lam_new, state.trace + [row], grams, rng)


def step(state: GreedyState, op: KroneckerSumOperator, m: MetricSet,
         cfg: GreedyConfig) -> GreedyState:
    """One pure iteration: the new iterate is u + z, normalized."""
    return _step(state, op, m, cfg, _pure_update)


def orthogonal_update(state: GreedyState, op: KroneckerSumOperator,
                      m: MetricSet, cfg: GreedyConfig) -> GreedyState:
    """One orthogonal iteration: all coefficients over (u_0, z_1, ..., z_n)
    are re-optimized through the smallest eigenpair of the basis Grams.  A
    z in the span of the basis is not added, and the iterate stays."""
    return _step(state, op, m, cfg, _galerkin_update)


@one_blas_thread()
def run(op: KroneckerSumOperator, m: MetricSet, cfg: GreedyConfig) -> GreedyResult:
    """Drive a full greedy computation and report the termination reason.

    Stops when the eigenpair residual drops below tol_residual, when the
    eigenvalue decrease stays below tol_lambda for three consecutive
    iterations, at max_iter, or on a step failure.  The result carries one
    normalized iterate per trace row; ``initialize`` and then ``step`` or,
    under ``cfg.orthogonal``, ``orthogonal_update`` calls make the same run.
    The bundled OpenBLAS runs on one thread for the duration of the call.
    """
    state = initialize(op, m, cfg)
    iterates = [state.u]
    if state.trace[0].eig_residual_h <= cfg.tol_residual:
        return GreedyResult(state.lam, state.u, tuple(state.trace),
                            "InitialGuessIsEigenvector", 0, tuple(iterates))

    advance = orthogonal_update if cfg.orthogonal else step
    stall = 0
    reason = "max_iter"
    while state.n < cfg.max_iter:
        try:
            state = advance(state, op, m, cfg)
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
