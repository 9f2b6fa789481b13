"""The per-direction Rayleigh minimization as one bordered eigenpair.

The direction update minimizes a quotient of two inhomogeneous quadratics,
(S^T A S + 2 a^T S + alpha) / (S^T B S + 2 b^T S + beta) with B SPD.  In
x ~ (S, 1) it is the Rayleigh quotient of the bordered pencil
([[A, a], [a^T, alpha]], [[B, b], [b^T, beta]]).  With B = L L^T and
g = L^-1 b the second matrix is C C^T, C = [[L, 0], [g^T, sqrt(delta)]] and
delta = beta - g^T g, and the congruence H = C^-1 [[A, a], [a^T, alpha]] C^-T
makes it the Rayleigh quotient of y = C^T x on H.  Its infimum is the
smallest eigenvalue of H (Gander, Golub & von Matt, Linear Algebra Appl.
114/115, 1989), attained at S = x[:N] / x[N], x = C^-T y.  The
characteristic equation of H is the quotient's secular equation (Golub,
SIAM Rev. 15, 1973), whence the module's name.  An eigenvector with
y[N] = 0 to rounding is a root at a pole: the infimum is approached only as
|S| grows without bound, and is not attained.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dense_kernels import cholesky_spd, sym_eig_full, tri_solve
from .errors import DegenerateDenominator, PoleCollision


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
