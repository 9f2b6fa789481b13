"""The per-direction Rayleigh minimization: a bordered eigenpair, or Newton's
method on the secular function from a value the direction already attains.

The direction update minimizes a quotient of two inhomogeneous quadratics,
R(S) = (S^T A S + 2 a^T S + alpha) / (S^T B S + 2 b^T S + beta) with B SPD.
In x ~ (S, 1) it is the Rayleigh quotient of the bordered pencil
([[A, a], [a^T, alpha]], [[B, b], [b^T, beta]]).  With B = L L^T and
g = L^-1 b the second matrix is C C^T, C = [[L, 0], [g^T, sqrt(delta)]] and
delta = beta - g^T g, and the congruence H = C^-1 [[A, a], [a^T, alpha]] C^-T
makes it the Rayleigh quotient of y = C^T x on H.  Its infimum is the
smallest eigenvalue of H (Gander, Golub & von Matt, Linear Algebra Appl.
114/115, 1989), attained at S = x[:N] / x[N], x = C^-T y.  The
characteristic equation of H is the quotient's secular equation (Golub,
SIAM Rev. 15, 1973), whence the module's name.  An eigenvector with
y[N] = 0 to rounding is a root at a pole: the infimum is approached only as
|S| grows without bound, and is not attained.  This bordered route
(``reduce``, ``solve_secular``, ``recover_minimizer``) takes any quotient.

Given a value rho_0 that some S attains, ``newton_minimizer`` takes the
infimum rho* <= rho_0 by Dinkelbach's parametric method (Management Sci.
13, 1967), which is Newton's method on the secular function
phi(rho) = min_S num(S) - rho den(S) = (alpha - rho beta) - r^T S(rho),
r = rho b - a and S(rho) = (A - rho B)^-1 r, whose slope is -den(S(rho)).
If A - rho_0 B is positive definite, so is A - rho B for every rho <=
rho_0: rho* lies left of the pencil's smallest eigenvalue, the infimum is
attained, and on that interval phi is concave and decreasing.  Newton's
steps from rho_0 >= rho* then fall monotonically and quadratically to the
root rho*, the bordered route's eigenvalue, and S(rho*) is its minimizer.
Each step takes A - rho B and rho b - a from ``DirectionData.shifted``
(only ``tensor_core`` reads the stack layout) and one Cholesky solve.  The
route declines, returning None, when a shifted matrix fails the pivot test
of ``dense_kernels``, when the denominator falls to 1e-14 beta, or when rho
has not settled within NEWTON_STEPS steps; the bordered route then decides,
and raises DegenerateDenominator or PoleCollision where the quotient needs it.
``adm_rayleigh_step`` starts the Newton route from the value its current
factors attain, and takes the bordered route on each start's first update,
which has no such value, and wherever the Newton route declines.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dense_kernels import (cholesky_solve, cholesky_spd, spd_factor_solve,
                            sym_eig_full, tri_solve)
from .errors import DegenerateDenominator, IllConditionedGram, PoleCollision

NEWTON_STEPS = 6      # Newton steps before the route declines
NEWTON_RTOL = 2.0 ** -26   # sqrt(eps): the relative size of a last step


class SecularReduction(NamedTuple):
    bordered: np.ndarray    # H, of order N + 1
    chol: np.ndarray        # C, the Cholesky factor of the denominator


def reduce(A_eff, B_eff, a_lin, b_lin, alpha, beta: float) -> SecularReduction:
    """Whiten the quotient into H; ``beta`` is the denominator's constant
    term (1 for a normalized context).  Unless beta > 0 and delta > 1e-14
    beta, the denominator is not positive definite: DegenerateDenominator."""
    if beta <= 0:
        raise DegenerateDenominator(f"denominator constant beta={beta} not positive")
    L = cholesky_spd(B_eff)
    g = tri_solve(L, b_lin)
    delta = beta - float(g @ g)
    if delta <= 1e-14 * beta:
        raise DegenerateDenominator(
            f"reduced denominator constant {delta / beta:.3e} <= 1e-14")
    n = L.shape[0]
    C = np.zeros((n + 1, n + 1), order="F")
    C[:n, :n] = L
    C[n, :n] = g
    C[n, n] = math.sqrt(delta)
    num = np.empty((n + 1, n + 1), order="F")
    num[:n, :n] = A_eff
    num[:n, n] = num[n, :n] = a_lin
    num[n, n] = alpha
    # C^-1 (C^-1 num)^T = C^-1 num C^-T, symmetric up to round-off;
    # sym_eig_full reads one triangle
    return SecularReduction(tri_solve(C, tri_solve(C, num).T), C)


def solve_secular(r: SecularReduction) -> tuple[float, np.ndarray]:
    """Smallest eigenpair (rho, y) of H, the only pair computed (LAPACK
    ``dsyevr``, il = iu = 1).  rho, the quotient's infimum, is the unit
    vector y's Rayleigh quotient, the value its minimizer attains: the
    eigenvalue itself is accurate only to rounding of the norm of H."""
    y = sym_eig_full(r.bordered, count=1).vectors[:, 0]
    return float(y @ (r.bordered @ y)), y


def recover_minimizer(r: SecularReduction, y: np.ndarray) -> np.ndarray:
    """Direction vector S whose quotient is y's Rayleigh quotient on H."""
    if abs(float(y[-1])) <= 1e-14 * math.sqrt(float(y @ y)):
        raise PoleCollision("the quotient's infimum is not attained")
    x = tri_solve(r.chol, y, transposed=True)
    return x[:-1] / x[-1]


def newton_minimizer(dd, alpha, beta, rho):
    """(S, value) minimizing the quotient from a value ``rho`` that some S
    attains, by Newton's method on the secular function; None where the
    route declines (see the module docstring), on a DirectionData ``dd``.

    Each step sets rho <- rho + phi(rho) / den(S(rho)), the quotient value
    that S(rho) attains.  Once a step moves rho by at most NEWTON_RTOL
    relative, S moves to the new rho to first order, S + step dS/drho with
    dS/drho = (A - rho B)^-1 (B S + b), by one more solve on the same
    factor.  The value returned is the new rho, which exceeds the infimum
    by Newton's error after that step: about eps |rho| / gap relative, for
    a root at distance gap below the pencil's smallest eigenvalue.
    """
    B, b = dd.Mj_eff, dd.m_j
    for _ in range(NEWTON_STEPS):
        shifted, r = dd.shifted(-rho, rho)   # A - rho B, rho b - a
        try:
            S, L = spd_factor_solve(shifted, r)
        except IllConditionedGram:
            return None
        half_grad = B @ S + b   # of den at S
        den = float(S @ (half_grad + b)) + beta   # S^T B S + 2 b^T S + beta
        if den <= 1e-14 * beta:
            return None
        step = ((alpha - rho * beta) - float(r @ S)) / den
        rho += step
        if abs(step) <= NEWTON_RTOL * abs(rho):
            return S + step * cholesky_solve(L, half_grad), rho
    return None
