"""Alternating direction solvers for the rank-one subproblems.

Each greedy iteration needs one rank-one correction.  The four inner solvers
here sweep cyclically over tensor directions, freezing all factors but one:

* ``adm_initial_guess``  - smallest eigenpair of the contracted pencil,
* ``adm_rayleigh_step``  - global direction minimizer via the secular solver,
* ``adm_residual_step``  - SPD linear solve of the shifted quadratic,
* ``adm_explicit_step``  - symmetric (possibly indefinite) linear solve.

The first three minimize an objective, which every direction update reports
as a byproduct of the contracted data, so sweep convergence costs nothing
extra; the explicit sweep has no objective and stops once its iterate
settles.  Factors are rebalanced to equal norms whenever an update leaves
their norms far apart, and on return; the objectives are invariant under
that rescaling.  Starts and reseeds draw from the generator the caller
passes, so the greedy driver's seed fixes every draw.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import secular
from .dense_kernels import gen_sym_eig_smallest, spd_solve, sym_indefinite_solve
from .errors import (
    AdmFailure,
    DegenerateDirection,
    ExplicitStepFailure,
    IllConditionedGram,
    NuTooSmall,
    SingularSystem,
    StructuralError,
)
from .tensor_core import (
    DirectionWorkspace,
    KroneckerSumOperator,
    MetricSet,
    TensorSum,
    h_norm,
    normalize,
    rebalance,
)


# largest ratio of two factor norms the sweep lets stand before rebalancing
REBALANCE_RATIO = 1e3


def require_count(name, value, least=1) -> None:
    """Raise ValueError unless ``value`` is an integer (numpy's included,
    bool not) of at least ``least``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class AdmConfig:
    max_sweeps: int = 50
    tol_sweep: float = 1e-10
    restart_attempts: int = 3

    def __post_init__(self):
        require_count("max_sweeps", self.max_sweeps)
        require_count("restart_attempts", self.restart_attempts)
        if not 0 < self.tol_sweep < math.inf:
            raise ValueError("tol_sweep must be positive and finite")


@dataclass(frozen=True)
class AdmOutcome:
    z: TensorSum   # one term with coefficient 1
    sweeps_used: int
    converged: bool
    objective: float | None   # None for the explicit rule, which has none


def _balanced(factors) -> TensorSum:
    """The one-term sum of ``factors``, rebalanced to equal norms."""
    return TensorSum.rank_one(rebalance(factors) or factors)


def _folded(z: TensorSum) -> list:
    """Copies of the factors of the one-term ``z``, its coefficient folded
    into the first."""
    factors = [f[:, 0].copy() for f in z.factors]
    factors[0] *= z.coeffs[0]
    return factors


def seed_rank_one(sizes, rng) -> TensorSum:
    return _balanced([rng.standard_normal(n) for n in sizes])


def _objective_settled(prev_factors, prev_obj, factors, obj, tol) -> bool:
    """The objective changed by at most ``tol`` relative over the sweep."""
    return abs(obj - prev_obj) <= tol * (1.0 + abs(prev_obj))


def _sweep_loop(op, cfg, rng, update_direction, start=None,
                settled=_objective_settled) -> AdmOutcome:
    """Generic ADM driver: cyclic direction updates with reseeding on collapse.

    ``update_direction(factors, j)`` returns ``(new_factor, objective)``.
    The sweep stops once ``settled(prev_factors, prev_obj, factors, obj,
    cfg.tol_sweep)`` holds for the factors and objective before and after
    a sweep.  The first sweep has nothing before it to compare with, so
    convergence takes at least two sweeps.  Seeds and reseeds draw from
    ``rng``.  A ``start`` must have exactly one term; its coefficient goes
    into the first factor.
    """
    if start is not None and start.num_terms != 1:
        raise StructuralError(
            f"ADM start must be one rank-one term, got {start.num_terms}")
    last_error = None
    for attempt in range(cfg.restart_attempts):
        z = start if (start is not None and attempt == 0) else seed_rank_one(op.sizes, rng)
        factors = _folded(z)
        sq_norms = [f @ f for f in factors]
        obj = np.inf
        converged = False
        try:
            for sweep in range(1, cfg.max_sweeps + 1):
                prev_factors, prev_obj = list(factors), obj
                for j in range(op.d):
                    factors[j], obj = update_direction(factors, j)
                    # rebalancing makes new factors, which the workspaces
                    # must contract again, so it waits for the norms to
                    # drift apart
                    sq_norms[j] = factors[j] @ factors[j]
                    if max(sq_norms) > REBALANCE_RATIO ** 2 * min(sq_norms):
                        factors = rebalance(factors) or factors
                        sq_norms = [f @ f for f in factors]
                if sweep > 1 and settled(prev_factors, prev_obj, factors, obj,
                                         cfg.tol_sweep):
                    converged = True
                    break
            return AdmOutcome(_balanced(factors), sweep, converged, obj)
        except DegenerateDirection as exc:
            last_error = exc
            continue
    raise AdmFailure(
        f"ADM failed after {cfg.restart_attempts} reseeds: {last_error}"
    )


def adm_initial_guess(op: KroneckerSumOperator, m: MetricSet, cfg: AdmConfig,
                      rng) -> AdmOutcome:
    """Minimize the Rayleigh quotient over rank-one elements.

    Each direction update is the smallest eigenpair of the contracted pencil
    (A_j, Mj_eff); the returned element is H-normalized.
    """
    ws = DirectionWorkspace(op, m, TensorSum(op.sizes))

    def update(factors, j):
        dd = ws.reduce(factors, j)
        tau, s = gen_sym_eig_smallest(dd.A_j, dd.Mj_eff)
        return s, tau

    out = _sweep_loop(op, cfg, rng, update)
    return replace(out, z=_balanced(_folded(normalize(out.z, m))))


def adm_rayleigh_step(op: KroneckerSumOperator, m: MetricSet, u_prev: TensorSum,
                      cfg: AdmConfig, rng,
                      start: TensorSum | None = None) -> AdmOutcome:
    """Minimize the Rayleigh quotient of u_prev + z over rank-one z.

    The direction problem is solved exactly through the secular reduction,
    so each update is a global minimizer over its slot and the reported
    objective is the quotient value itself.
    """
    ws = DirectionWorkspace(op, m, u_prev)
    rho = None   # the quotient after the previous update

    def update(factors, j):
        nonlocal rho
        dd = ws.reduce(factors, j)
        red = secular.reduce(dd.A_j, dd.Mj_eff, dd.b_j, dd.m_j, dd.alpha, dd.beta)
        # the current factor attains rho, so the new root is at or left of it
        rho = secular.solve_secular(red.problem, start=rho)
        return secular.recover_minimizer(red, rho), rho

    return _sweep_loop(op, cfg, rng, update, start=start)


def adm_residual_step(op: KroneckerSumOperator, m: MetricSet, u_prev: TensorSum,
                      lambda_prev: float, nu: float, cfg: AdmConfig, rng,
                      start: TensorSum | None = None) -> AdmOutcome:
    """Minimize 0.5*||u_prev + z||_a^2 - (lambda_prev + nu) <u_prev, z>,
    where ||v||_a^2 = a(v, v) + nu <v, v> with the residual rule's shift nu.

    Each direction is a single SPD solve of the shifted contracted system
    (A_j + nu Mj_eff) s = lambda_prev m_j - b_j; the quadratic objective
    follows from the same contracted data.
    """
    ws = DirectionWorkspace(op, m, u_prev)

    def update(factors, j):
        dd = ws.reduce(factors, j)
        system = dd.A_j + nu * dd.Mj_eff
        rhs = lambda_prev * dd.m_j - dd.b_j
        try:
            s = spd_solve(system, rhs)
        except IllConditionedGram as exc:
            raise NuTooSmall(
                f"shifted direction system not SPD (nu={nu}): {exc}"
            ) from exc
        # 0.5 s^T (A_j + nu M_j) s - rhs^T s + 0.5 (alpha + nu beta), which
        # at the solution of (A_j + nu M_j) s = rhs is:
        return s, 0.5 * (dd.alpha + nu * dd.beta - float(rhs @ s))

    return _sweep_loop(op, cfg, rng, update, start=start)


def adm_explicit_step(op: KroneckerSumOperator, m: MetricSet, u_prev: TensorSum,
                      lambda_prev: float, cfg: AdmConfig, rng,
                      start: TensorSum | None = None) -> AdmOutcome:
    """Solve the explicit correction equation direction-wise.

    Each direction solves the symmetric, possibly indefinite system
    (A_j - lambda_prev Mj_eff) s = lambda_prev m_j - b_j.  The sweep is a
    fixed-point iteration with no variational objective: it converges once
    a sweep moves the iterate by at most tol_sweep (1 + ||z||_H) in the
    metric norm.  The reported objective is None.
    """
    ws = DirectionWorkspace(op, m, u_prev)

    def update(factors, j):
        dd = ws.reduce(factors, j)
        system = dd.A_j - lambda_prev * dd.Mj_eff
        rhs = lambda_prev * dd.m_j - dd.b_j
        try:
            return sym_indefinite_solve(system, rhs), None
        except SingularSystem as exc:
            raise ExplicitStepFailure(
                f"explicit direction system singular at shift {lambda_prev}: {exc}"
            ) from exc

    def settled(prev_factors, prev_obj, factors, obj, tol):
        cur = TensorSum.rank_one(factors)
        change = cur.plus(TensorSum.rank_one(prev_factors).scaled(-1.0))
        return h_norm(change, m) <= tol * (1.0 + h_norm(cur, m))

    return _sweep_loop(op, cfg, rng, update, start=start, settled=settled)
