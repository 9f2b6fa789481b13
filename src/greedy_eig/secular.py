"""Reduction of the per-direction Rayleigh minimization to a secular equation.

The direction update minimizes a quotient of two inhomogeneous quadratics

    (S^T A S + 2 a^T S + alpha) / (S^T B S + 2 b^T S + beta),      B SPD.

A Cholesky congruence plus a diagonalization turns this into

    L(T) = (sum_i kappa_i t_i^2 + 2 c_i t_i + gamma) / (T^T T + delta),

whose minimum value rho is the smallest root of the scalar secular equation

    rho * delta = f(rho),    f(rho) = sum_i c_i^2 / (rho - kappa_i) + gamma,

located left of the smallest active pole, where a one-pole Newton
iteration reaches it monotonically (``solve_secular``).  The minimizer
follows from t_i = c_i / (rho - kappa_i); a root within rounding of an
active pole has none, and ``recover_minimizer`` raises PoleCollision.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dense_kernels import cholesky_spd, sym_eig_full, tri_solve
from .errors import DegenerateDenominator, PoleCollision

ACTIVE_RTOL = 1e-14
ROOT_TOL = 1e-12   # stop once |g(rho)| <= ROOT_TOL max(1, |rho| delta)
_MAX_ROOT_ITER = 300


class SecularProblem:
    """Ascending poles ``kappa``, linear coefficients ``c`` in the pole
    eigenbasis, ``gamma`` and ``delta`` > 0, as ``reduce`` makes them (not
    checked again); ``active`` marks the coefficients not negligible."""

    __slots__ = ("kappa", "c", "gamma", "delta", "active")

    def __init__(self, kappa: np.ndarray, c: np.ndarray, gamma: float,
                 delta: float):
        self.kappa, self.c, self.gamma, self.delta = kappa, c, gamma, delta
        self.active = np.abs(c) > ACTIVE_RTOL * math.sqrt(c @ c)


class SecularReduction(NamedTuple):
    problem: SecularProblem
    chol_L: np.ndarray      # Cholesky factor of the denominator quadratic
    shift_g: np.ndarray     # L^-1 b
    eigvecs: np.ndarray     # eigenbasis of the transformed numerator quadratic

    def to_original(self, T: np.ndarray) -> np.ndarray:
        """Map reduced coordinates T back to the direction vector S."""
        return tri_solve(self.chol_L, self.eigvecs @ T - self.shift_g,
                         transposed=True)


def reduce(A_eff, B_eff, a_lin, b_lin, alpha, beta: float = 1.0) -> SecularReduction:
    """Reduce the quadratic quotient to a SecularProblem.

    ``beta`` is the constant term of the denominator (1 for a normalized
    context).  With B_eff = L L^T and S = L^-T (V T - g), g = L^-1 b_lin, the
    denominator becomes T^T T + delta with delta = beta - g^T g, and the
    numerator the diagonal quadratic of the problem.
    """
    if beta <= 0:
        raise DegenerateDenominator(f"denominator constant beta={beta} not positive")
    L = cholesky_spd(B_eff)
    n = L.shape[0]
    # L^-1 [A_eff, a_lin, b_lin] in one triangular solve
    rhs = np.empty((n, n + 2), order="F")
    rhs[:, :n] = A_eff
    rhs[:, n] = a_lin
    rhs[:, n + 1] = b_lin
    X = tri_solve(L, rhs)
    atil, g = X[:, n], X[:, n + 1]
    delta = beta - float(g @ g)
    if delta <= 1e-14 * beta:
        raise DegenerateDenominator(
            f"reduced denominator constant {delta / beta:.3e} <= 1e-14"
        )

    # L^-1 (L^-1 A_eff)^T = L^-1 A_eff L^-T, symmetric up to round-off;
    # sym_eig_full reads one triangle
    Atil = tri_solve(L, X[:, :n].T)
    kappa, V = sym_eig_full(Atil)
    Ag = Atil @ g
    c = V.T @ (atil - Ag)
    gamma = float(g @ Ag) - 2.0 * float(atil @ g) + alpha
    return SecularReduction(SecularProblem(kappa, c, gamma, delta), L, g, V)


def solve_secular(p: SecularProblem, start: float | None = None) -> float:
    """Smallest root of rho*delta = f(rho), left of the smallest active pole.

    Newton on a one-pole rational model ("middle way", R.-C. Li, LAPACK
    Working Note 89): the term of the smallest active pole kappa_1,
    c_1^2 / (kappa_1 - rho), is kept exact and the other terms are
    linearized at the iterate, so each step solves a quadratic.  Left of
    kappa_1, g(rho) = rho*delta - f(rho) is increasing and convex, so the
    linearized remainder lies below g and every step, from either side of
    the root, lands in [root, kappa_1): after the first step the iterates
    decrease monotonically onto the root (Bunch, Nielsen & Sorensen, Numer.
    Math. 31, 1978).  A step that rounds onto kappa_1, as one from far left
    can, stops one ulp short of it; a root that close ends there, and
    ``recover_minimizer`` raises.  ``start``, if left of kappa_1, is the
    first iterate, else a point next to kappa_1; a value the quotient
    attains, such as the previous direction's, lies at or right of the root.
    """
    mask = p.active
    n_active = np.count_nonzero(mask)
    if n_active == len(mask):
        kap, cs2 = p.kappa, p.c ** 2
    elif n_active:
        kap, cs2 = p.kappa[mask], p.c[mask] ** 2
    else:
        return p.gamma / p.delta
    k_min, c1sq = float(kap[0]), float(cs2[0])
    kap_rest, cs2_rest = kap[1:], cs2[1:]
    delta, gamma = p.delta, p.gamma

    if start is not None and start < k_min:
        x = float(start)
    else:
        x = k_min - 1e-12 * (1.0 + max(abs(float(p.kappa[0])),
                                       abs(float(p.kappa[-1]))))
    for _ in range(_MAX_ROOT_ITER):
        gaps = kap_rest - x
        terms = cs2_rest / gaps
        phi = float(np.add.reduce(terms))   # ndarray.sum, less dispatch
        gx = x * delta + c1sq / (k_min - x) + phi - gamma
        if abs(gx) <= ROOT_TOL * max(1.0, abs(x) * delta):
            return x
        # delta*rho + c1sq/(k_min - rho) + phi + dphi*(rho - x) = gamma,
        # as a v^2 - b v - c1sq = 0 in v = k_min - rho > 0
        dphi = float(np.add.reduce(terms / gaps))
        a = delta + dphi
        b = a * k_min + phi - dphi * x - gamma
        disc = math.sqrt(b * b + 4.0 * a * c1sq)
        v = (b + disc) / (2.0 * a) if b >= 0.0 else 2.0 * c1sq / (disc - b)
        x_new = min(k_min - v, math.nextafter(k_min, -math.inf))
        if x_new == x:
            return x   # the model's root to working precision
        x = x_new
    return x


def recover_minimizer(r: SecularReduction, rho_m: float) -> np.ndarray:
    """Direction vector S attaining the quotient value rho_m."""
    p = r.problem
    mask = p.active
    gaps = rho_m - p.kappa
    scale = 1.0 + max(abs(float(p.kappa[0])), abs(float(p.kappa[-1])))
    if np.count_nonzero(mask & (np.abs(gaps) < 1e-14 * scale)):
        raise PoleCollision("secular root coincides with an active pole")
    # t_i = c_i / (rho_m - kappa_i) on active poles, 0 elsewhere
    return r.to_original(np.divide(p.c, gaps, out=np.zeros(len(gaps)),
                                   where=mask))
