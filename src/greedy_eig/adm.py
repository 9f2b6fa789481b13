"""Alternating direction solvers for the rank-one subproblems.

Each greedy iteration needs one rank-one correction.  The four inner solvers
here sweep cyclically over tensor directions, freezing all factors but one:

* ``adm_initial_guess``  - smallest eigenpair of the contracted pencil,
* ``adm_rayleigh_step``  - global direction minimizer, by Newton's method on
                           the secular function or a bordered eigenpair,
* ``adm_residual_step``  - SPD linear solve of the shifted quadratic,
* ``adm_explicit_step``  - the residual rule's solve at shift -lambda_prev.

One driver, ``_sweep_loop``, owns the direction workspace, the seeds and
reseeds and the sweeps; each rule supplies only its direction solve and its
stop test.  Each shifted system comes from ``DirectionData.shifted``: only
``tensor_core`` reads the stack layout.  The first three rules
minimize an objective, which every direction solve reports as a byproduct
of the contracted data, and stop at the first of two tests: a sweep changed
the objective by at most TOL_SWEEP relative, or by at most DECREASE_RTOL of
the correction's decrease below the zero correction's objective (none for
the initial guess).  The explicit sweep has no objective: it is a fixed-point
iteration, accelerated by type-II Anderson mixing of factors 1..d-1 between
sweeps, and it stops once a plain sweep moves its rank-one iterate by at
most TOL_SWEEP relative, a change taken in closed form from one 3 x 3 Gram
per axis.  The sweep is gauge-free: factors are balanced to equal norms
only at each seed and on return, and the zero test reads the rank-one
element (``DirectionWorkspace.reduce``).  Seeds and reseeds draw from the
generator the caller passes, so the greedy driver's seed fixes every draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import secular
from .dense_kernels import (gen_sym_eig_smallest, spd_solve,
                            sym_indefinite_solve)
from .errors import (
    AdmFailure,
    DegenerateDirection,
    ExplicitStepFailure,
    IllConditionedGram,
    NuTooSmall,
    PoleCollision,
    SingularSystem,
    StructuralError,
)
from .tensor_core import (
    DirectionWorkspace,
    KroneckerSumOperator,
    MetricSet,
    TensorSum,
    rebalance,
)


MAX_SWEEPS = 50          # sweeps per start before giving up on convergence
TOL_SWEEP = 1e-10        # relative change a settled sweep stays within
DECREASE_RTOL = 3e-2     # share of the correction's decrease, likewise
RESTART_ATTEMPTS = 3     # starts, the first included, before AdmFailure
MIX_MEMORY = 3           # sweeps the explicit rule's Anderson mixing recalls


@dataclass(frozen=True)
class AdmOutcome:
    z: TensorSum   # one term with coefficient 1
    sweeps_used: int
    converged: bool
    objective: float | None   # None for the explicit rule, which has none


def _balanced(factors) -> TensorSum:
    """The one-term sum of the 1-D float arrays ``factors``, rebalanced to
    equal norms; a non-finite factor raises StructuralError."""
    norms = [math.sqrt(f @ f) for f in factors]
    if not math.isfinite(sum(norms)):
        raise StructuralError("rank-one factor contains non-finite entries")
    factors = rebalance(factors, norms) or factors
    return TensorSum._new(tuple(len(f) for f in factors), np.ones(1),
                          tuple(f[:, None] for f in factors))


def seed_rank_one(sizes, rng) -> TensorSum:
    return _balanced([rng.standard_normal(n) for n in sizes])


def _decrease_settled(ref):
    """The stop test of a correction whose zero has objective ``ref``: the
    objective changed by at most TOL_SWEEP relative over the sweep, or by at
    most DECREASE_RTOL of its decrease below ``ref``.  At ``ref = -inf``,
    the initial guess's, the second test reads |change| <= 0, which the
    first implies."""
    def settled(prev_factors, prev_obj, factors, obj):
        change = abs(obj - prev_obj)
        return (change <= TOL_SWEEP * (1.0 + abs(prev_obj))
                or change <= DECREASE_RTOL * max(ref - obj, 0.0))
    return settled


def _change_and_norm(prev_factors, factors, masses):
    """(||z - z_prev||_M, ||z||_M) for the rank-one elements z_prev and z of
    two factor lists, in closed form.  From the last axis back, the tail's
    change is D_j = (cur_j - prev_j) x cur_>j + prev_j x D_j+1: it telescopes
    into d terms, no two of which cancel, where the two-term difference's
    Gram cancels to rounding of z.  The M-Grams of D_j and of the tail of z
    follow from one 3 x 3 M_j-Gram of (prev, cur, cur - prev) per axis."""
    cc, dc, dd = 1.0, 0.0, 0.0   # <tail, tail>, <D, tail>, <D, D>
    for p, c, mass in zip(prev_factors[::-1], factors[::-1], masses[::-1]):
        v = np.array([p, c, c - p])
        (g00, g01, g02), (_, g11, g12), (_, _, g22) = (v @ mass @ v.T).tolist()
        cc, dc, dd = (g11 * cc, g12 * cc + g01 * dc,
                      g22 * cc + 2.0 * g02 * dc + g00 * dd)
    return math.sqrt(max(dd, 0.0)), math.sqrt(max(cc, 0.0))


def _anderson_mixing():
    """A fresh memory of type-II Anderson mixing (Walker & Ni, SIAM J.
    Numer. Anal. 49, 2011) for the sweep map on factors 1..d-1.

    The map is homogeneous in each factor, so its fixed points come in
    scaled families: the mixing takes each factor at unit norm, with its
    sign matched to the sweep's input, and hands the mixed factors back at
    the plain output's norms and signs.  ``mix(prev_factors, factors)``
    takes a sweep's input and plain output and returns the next sweep's
    input.  It keeps x, the newest pair [r, g] of the plain output g and its
    change r = g - x at unit norms, and the rows [dr, dg] of the last
    MIX_MEMORY differences of pairs.  When r grows, or the least squares on
    them is ill-conditioned, the memory keeps only the newest pair.
    """
    x, rg, rr, diffs = None, None, -math.inf, []   # input; [r, g]; r.r; rows

    def mix(prev_factors, factors):
        nonlocal x, rg, rr, diffs
        if x is None:
            x = [f / math.sqrt(f @ f) for f in prev_factors[1:]]
        # the plain output g at unit norms and matched signs, and its change
        scale = [math.copysign(math.sqrt(f @ f), f @ xl)
                 for f, xl in zip(factors[1:], x)]
        parts = [f / s for f, s in zip(factors[1:], scale)]
        g = np.concatenate(parts)
        r = g - np.concatenate(x)
        new, new_rr = np.concatenate([r, g]), r @ r
        diffs = [] if new_rr > rr else (diffs + [new - rg])[-MIX_MEMORY:]
        rg, rr, x = new, new_rr, parts
        if diffs:
            # the least-squares problem min |r - dr gamma| by its normal
            # equations, whose Gram must pass the SPD pivot test
            dr, dg = np.array(diffs).reshape(-1, 2, len(r)).transpose(1, 0, 2)
            try:
                gamma = spd_solve(dr @ dr.T, dr @ r)
            except IllConditionedGram:
                diffs = []
                return factors
            mixed, x = g - gamma @ dg, []
            for part in parts:
                seg, mixed = mixed[:len(part)], mixed[len(part):]
                x.append(seg / math.sqrt(seg @ seg))
            return factors[:1] + [s * f for s, f in zip(scale, x)]
        return factors

    return mix


def _sweep_loop(op, m, context, rng, solve, settled,
                mixing=None) -> AdmOutcome:
    """The one ADM driver: cyclic direction updates against ``context``,
    reseeded when a start collapses (DegenerateDirection) or breaks a
    direction update (PoleCollision, ExplicitStepFailure).  Starts are
    ``seed_rank_one`` draws from ``rng``; every start reuses one
    ``DirectionWorkspace(op, m, context)``.

    Direction j becomes ``solve(ws.reduce(factors, j), obj)``, a
    ``(new_factor, objective)`` pair, where obj is the objective the current
    factors attain, inf before each start's first update.  The sweep stops
    once ``settled(prev_factors, prev_obj, factors, obj)`` holds for the
    factors and objective before and after a sweep, which takes at least
    two sweeps, or, unconverged, after MAX_SWEEPS sweeps.  ``mixing()``, when given, makes each start's
    step ``mix(prev_factors, factors)``, which turns the input and output
    of a sweep that has not settled into the next sweep's input.
    """
    ws = DirectionWorkspace(op, m, context)
    last_error = None
    for _ in range(RESTART_ATTEMPTS):
        factors = [f[:, 0] for f in seed_rank_one(op.sizes, rng).factors]
        obj = np.inf
        converged = False
        mix = mixing() if mixing else None
        try:
            for sweep in range(1, MAX_SWEEPS + 1):
                prev_factors, prev_obj = list(factors), obj
                for j in range(op.d):
                    factors[j], obj = solve(ws.reduce(factors, j), obj)
                if sweep > 1 and settled(prev_factors, prev_obj, factors, obj):
                    converged = True
                    break
                if mix and sweep < MAX_SWEEPS:
                    factors = mix(prev_factors, factors)
            return AdmOutcome(_balanced(factors), sweep, converged, obj)
        except (DegenerateDirection, PoleCollision, ExplicitStepFailure) as exc:
            last_error = exc
    raise AdmFailure(f"ADM failed in all {RESTART_ATTEMPTS} starts: "
                     f"{last_error}") from last_error


def adm_initial_guess(op: KroneckerSumOperator, m: MetricSet,
                      rng) -> AdmOutcome:
    """Minimize the Rayleigh quotient over rank-one elements.

    Each direction update is the smallest eigenpair of the contracted pencil
    (A_j, Mj_eff) with s^T Mj_eff s = 1, so the element is H-normalized.
    """
    def solve(dd, _obj):
        tau, s = gen_sym_eig_smallest(dd.A_j, dd.Mj_eff)
        return s, tau

    return _sweep_loop(op, m, TensorSum(op.sizes), rng, solve,
                       _decrease_settled(-math.inf))


def adm_rayleigh_step(op: KroneckerSumOperator, m: MetricSet, u_prev: TensorSum,
                      lambda_prev: float, rng) -> AdmOutcome:
    """Minimize the Rayleigh quotient of u_prev + z over rank-one z.

    u_prev must have unit metric norm and Rayleigh quotient lambda_prev, as
    the greedy iterate has: they are the bordered quotient's constants
    a(u_prev, u_prev) and <u_prev, u_prev>.  Each direction problem is
    solved exactly (see ``secular``): by Newton's method on its secular
    function from the value the current factors attain, or, on a start's
    first update and wherever that route declines, as the smallest
    eigenpair of its bordered matrix.  So each update is a global minimizer
    over its slot and the reported objective is the quotient value itself.
    An update whose infimum is not attained (PoleCollision) reseeds the
    solve.  The zero correction's objective, for the stop test, is
    lambda_prev.
    """
    def solve(dd, obj):
        if math.isfinite(obj):
            found = secular.newton_minimizer(dd, lambda_prev, 1.0, obj)
            if found is not None:
                return found
        red = secular.reduce(dd.A_j, dd.Mj_eff, dd.b_j, dd.m_j, lambda_prev, 1.0)
        rho, y = secular.solve_secular(red)
        return secular.recover_minimizer(red, y), rho

    return _sweep_loop(op, m, u_prev, rng, solve,
                       _decrease_settled(lambda_prev))


def adm_residual_step(op: KroneckerSumOperator, m: MetricSet, u_prev: TensorSum,
                      lambda_prev: float, nu: float, rng) -> AdmOutcome:
    """Minimize 0.5*||u_prev + z||_a^2 - (lambda_prev + nu) <u_prev, z>,
    where ||v||_a^2 = a(v, v) + nu <v, v> with the residual rule's shift nu.

    u_prev must have unit metric norm and Rayleigh quotient lambda_prev, as
    the greedy iterate has, so the zero correction's objective is
    0.5 (lambda_prev + nu).  Each direction is a single SPD solve of the
    shifted contracted system (A_j + nu Mj_eff) s = lambda_prev m_j - b_j;
    the quadratic objective follows from the same contracted data.
    """
    zero_obj = 0.5 * (lambda_prev + nu)

    def solve(dd, _obj):
        system, rhs = dd.shifted(nu, lambda_prev)
        try:
            s = spd_solve(system, rhs)
        except IllConditionedGram as exc:
            raise NuTooSmall(
                f"shifted direction system not SPD (nu={nu}): {exc}"
            ) from exc
        # 0.5 s^T (A_j + nu M_j) s - rhs^T s + zero_obj, which at the
        # solution of (A_j + nu M_j) s = rhs is:
        return s, zero_obj - 0.5 * float(rhs @ s)

    return _sweep_loop(op, m, u_prev, rng, solve, _decrease_settled(zero_obj))


def adm_explicit_step(op: KroneckerSumOperator, m: MetricSet, u_prev: TensorSum,
                      lambda_prev: float, rng) -> AdmOutcome:
    """Solve the explicit correction equation direction-wise.

    Each direction solves the symmetric system
    (A_j - lambda_prev Mj_eff) s = lambda_prev m_j - b_j, the residual
    rule's system at nu = -lambda_prev.  That shifted form is indefinite,
    so there is no objective to minimize: the sweep is a fixed-point
    iteration.  Between sweeps, type-II Anderson mixing over the last
    MIX_MEMORY sweeps moves factors 1..d-1 (``_anderson_mixing``).  Its
    safeguard restarts the memory when the plain sweep's change grows or
    its least-squares problem is ill-conditioned, and every reseed starts
    with an empty memory.  The solve converges once a plain sweep moves the
    iterate from its input, which may be a mixed point, by at most
    TOL_SWEEP (1 + ||z||_H) in the metric norm, and returns that sweep's
    plain output.  The reported objective is None.
    """
    def solve(dd, _obj):
        try:
            return sym_indefinite_solve(*dd.shifted(-lambda_prev,
                                                    lambda_prev)), None
        except SingularSystem as exc:
            raise ExplicitStepFailure(
                f"explicit direction system singular at shift {lambda_prev}: {exc}"
            ) from exc

    def settled(prev_factors, prev_obj, factors, obj):
        change, norm = _change_and_norm(prev_factors, factors, m.masses)
        return change <= TOL_SWEEP * (1.0 + norm)

    return _sweep_loop(op, m, u_prev, rng, solve, settled,
                       mixing=_anderson_mixing)
